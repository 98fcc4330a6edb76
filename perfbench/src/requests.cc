// Request workloads: read_zipf, overwrite_churn and durable_small_file.
//
// Shared setup: 4 disks of 256 extents x 64 pages x 256 B, the default 256-page
// buffer cache per disk, LSM memtable_flush_entries=64 with level0_compaction_trigger=4,
// zipf(0.99) keys scrambled over the key space. Every write is acknowledged only after
// FlushAllDisks returns, and after every 8 acknowledged writes the client runs one
// ShardStore::ReclaimAny per disk, on its own thread, inside the timed wall clock.
//
// The loop is closed (one client, next request after the previous reply) because
// NodeServer runs each call synchronously on the caller's thread.

#include "requests.h"

#include <sys/vfs.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/disk/file_disk.h"
#include "src/rpc/node_server.h"
#include "timed_disk.h"

namespace perfbench {

namespace {

constexpr int kDisks = 4;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kScanWindow = 16;
constexpr uint64_t kMaintenanceEvery = 8;  // acknowledged writes per ReclaimAny round
constexpr size_t kPreloadBatch = 64;
constexpr size_t kMinSetups = 3;

constexpr RequestSpec kSpecs[] = {
    {"read_zipf", false, 4096, 1000, 95, 0, OpKind::kScan, false, 100000},
    {"overwrite_churn", false, 2048, 1000, 30, 70, OpKind::kPut, false, 16000},
    {"durable_small_file", true, 512, 128, 70, 25, OpKind::kPut, true, 3000},
};

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kGet:
      return "get";
    case OpKind::kPut:
      return "put";
    case OpKind::kScan:
      return "scan";
  }
  return "?";
}

ss::DiskGeometry Geometry() {
  return ss::DiskGeometry{.extent_count = 256, .pages_per_extent = 64, .page_size = 256};
}

ss::ShardStoreOptions StoreOptions() {
  ss::ShardStoreOptions options;  // cache_pages stays at the default 256 per disk
  options.lsm.memtable_flush_entries = 64;
  options.lsm.level0_compaction_trigger = 4;
  return options;
}

// NodeServer's hash placement for shards without a directory entry (all disks in
// service), so the replay stacks hold the same shards per disk as the node.
int HomeDisk(ss::ShardId id) {
  return static_cast<int>((id * 0x9e3779b97f4a7c15ULL >> 32) % kDisks);
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Value of write number `version` to `key`: distinct per write, so a stale or torn
// read never compares equal.
ss::Bytes MakeValue(ss::ShardId key, uint32_t version, size_t size) {
  ss::Bytes out(size);
  uint64_t state = (key << 24) ^ version;
  for (size_t i = 0; i < size; i += 8) {
    const uint64_t word = SplitMix64(state);
    std::memcpy(out.data() + i, &word, std::min<size_t>(8, size - i));
  }
  return out;
}

// Reference model of acknowledged writes. Every key is preloaded, so each has an
// acknowledged value; a write that failed is "maybe" visible until the key's next
// acknowledged write, and nothing else is accepted.
class ReferenceModel {
 public:
  explicit ReferenceModel(const RequestSpec& spec)
      : spec_(spec), acked_(spec.keys), maybe_(spec.keys), versions_(spec.keys, 0) {}

  ss::Bytes NextValue(ss::ShardId key) {
    return MakeValue(key, versions_[key]++, spec_.value_bytes);
  }
  void Ack(ss::ShardId key, ss::Bytes value) {
    acked_[key] = std::move(value);
    maybe_[key].clear();
  }
  void Unacked(ss::ShardId key, ss::Bytes value) { maybe_[key] = std::move(value); }
  bool Accepts(ss::ShardId key, const ss::Bytes& got) const {
    return got == acked_[key] || (!maybe_[key].empty() && got == maybe_[key]);
  }
  uint64_t LiveBytes() const {
    uint64_t total = 0;
    for (const ss::Bytes& value : acked_) {
      total += value.size();
    }
    return total;
  }

 private:
  const RequestSpec& spec_;
  std::vector<ss::Bytes> acked_;
  std::vector<ss::Bytes> maybe_;
  std::vector<uint32_t> versions_;
};

// Empty when the scan result is exactly the model's window; else what differs.
std::string CheckScan(const ReferenceModel& model, uint64_t keys, ss::ShardId start,
                      const std::vector<ss::ScanItem>& items) {
  const ss::ShardId end = std::min<uint64_t>(start + kScanWindow, keys);
  if (items.size() != end - start) {
    return "scan [" + std::to_string(start) + ") returned " + std::to_string(items.size()) +
           " items, expected " + std::to_string(end - start);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].id != start + i || !model.Accepts(items[i].id, items[i].value)) {
      return "scan [" + std::to_string(start) + ") wrong item for key " +
             std::to_string(start + i);
    }
  }
  return "";
}

std::string FsTypeName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

// A node and, for FileDisk, the directory holding its disks (removed with the bed).
class NodeBed {
 public:
  static std::unique_ptr<NodeBed> Create(const RequestSpec& spec, const std::string& dir,
                                         RunResult& result) {
    auto bed = std::unique_ptr<NodeBed>(new NodeBed());
    ss::NodeServerOptions options;
    options.disk_count = kDisks;
    options.geometry = Geometry();
    options.store = StoreOptions();
    if (spec.file_backend) {
      bed->dir_ = dir;
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      options.disk_backend =
          ss::DiskBackendConfig{.kind = ss::DiskBackendKind::kFile, .file_root = dir};
    }
    auto node = ss::NodeServer::Create(options);
    if (!node.ok()) {
      result.Violation("NodeServer::Create: " + node.status().ToString());
      return nullptr;
    }
    bed->node_ = std::move(node).value();
    return bed;
  }

  ~NodeBed() {
    node_.reset();  // FileDisk syncs and closes on destruction
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  NodeBed(const NodeBed&) = delete;
  NodeBed& operator=(const NodeBed&) = delete;

  ss::NodeServer& node() { return *node_; }

 private:
  NodeBed() = default;

  std::unique_ptr<ss::NodeServer> node_;
  std::string dir_;
};

// Writes every key once (batches of 64, then one FlushAllDisks) and acknowledges it.
bool Preload(ss::NodeServer& node, const RequestSpec& spec, ReferenceModel& model,
             RunResult& result) {
  for (ss::ShardId first = 0; first < spec.keys; first += kPreloadBatch) {
    std::vector<std::pair<ss::ShardId, ss::Bytes>> items;
    for (ss::ShardId key = first; key < std::min<uint64_t>(first + kPreloadBatch, spec.keys);
         ++key) {
      items.emplace_back(key, model.NextValue(key));
    }
    const ss::BatchResult batch = node.PutBatch(items);
    for (size_t i = 0; i < items.size(); ++i) {
      if (!batch.items[i].status.ok()) {
        result.Violation("preload put failed: " + batch.items[i].status.ToString());
        return false;
      }
    }
    for (auto& [key, value] : items) {
      model.Ack(key, std::move(value));
    }
  }
  const ss::Status flushed = node.FlushAllDisks();
  if (!flushed.ok()) {
    result.Violation("preload flush failed: " + flushed.ToString());
    return false;
  }
  return true;
}

// Store counters attributed to the request kind (or maintenance call) that moved them,
// read around each call from every store's registry.
enum Attr : size_t {
  kBloomMiss,
  kBloomHit,
  kBloomFalsePositive,
  kChunkGets,
  kChunkEvacuated,
  kChunkDropped,
  kCacheMisses,
  kAttrCount
};
constexpr const char* kAttrNames[kAttrCount] = {
    "lsm.bloom.miss", "lsm.bloom.hit",  "lsm.bloom.false_positive",
    "chunk.gets",     "chunk.evacuated", "chunk.dropped", "cache.misses"};
enum Bucket : size_t { kBucketGet, kBucketPut, kBucketScan, kBucketReclaim, kBucketCount };

class Attribution {
 public:
  using Counts = std::array<uint64_t, kAttrCount>;

  explicit Attribution(ss::NodeServer& node) {
    for (int d = 0; d < node.disk_count(); ++d) {
      std::shared_ptr<ss::ShardStore> store = node.store(d);
      for (size_t i = 0; i < kAttrCount; ++i) {
        counters_.push_back(&store->metrics().counter(kAttrNames[i]));
      }
      stores_.push_back(std::move(store));
    }
  }

  Counts Sum() const {
    Counts sum{};
    for (size_t c = 0; c < counters_.size(); ++c) {
      sum[c % kAttrCount] += counters_[c]->Value();
    }
    return sum;
  }
  void Charge(Bucket bucket, const Counts& before) {
    const Counts after = Sum();
    for (size_t i = 0; i < kAttrCount; ++i) {
      by_bucket_[bucket][i] += after[i] - before[i];
    }
  }
  uint64_t Get(Bucket bucket, Attr attr) const { return by_bucket_[bucket][attr]; }

 private:
  std::vector<std::shared_ptr<ss::ShardStore>> stores_;  // keeps the registries alive
  std::vector<ss::Counter*> counters_;
  std::array<Counts, kBucketCount> by_bucket_{};
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Request accounting, pooled over every episode of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  std::array<uint64_t, 3> counts{};
  uint64_t scan_items = 0;
  std::array<Samples, 3> latency;
  Samples all;
  uint64_t reclaim_calls = 0;
  Nanos reclaim_ns = 0;
  std::map<std::string, uint64_t> outcomes;  // "<kind>:<StatusCode>" -> count

  uint64_t failed() const { return attempted - succeeded; }
  uint64_t count(OpKind kind) const { return counts[static_cast<size_t>(kind)]; }
  const Samples& of(OpKind kind) const { return latency[static_cast<size_t>(kind)]; }
};

// The closed-loop client: issues one request at a time, checks every result against
// the model, classifies every outcome by status code, and runs the maintenance policy.
class Client {
 public:
  Client(ss::NodeServer& node, const RequestSpec& spec, ReferenceModel& model,
         RunResult& result, Tally& tally, SpanLog* spans, Attribution* attribution)
      : node_(node), spec_(spec), model_(model), result_(result), tally_(tally),
        spans_(spans), attribution_(attribution) {}

  void Execute(const Op& op) {
    ++tally_.attempted;
    switch (op.kind) {
      case OpKind::kGet:
        DoGet(op.key);
        break;
      case OpKind::kPut:
        DoPut(op.key);
        break;
      case OpKind::kScan:
        DoScan(op.key);
        break;
    }
  }

 private:
  Attribution::Counts Before() const {
    return attribution_ != nullptr ? attribution_->Sum() : Attribution::Counts{};
  }
  void Charge(Bucket bucket, const Attribution::Counts& before) {
    if (attribution_ != nullptr) {
      attribution_->Charge(bucket, before);
    }
  }
  void Outcome(const char* what, ss::StatusCode code) {
    ++tally_.outcomes[std::string(what) + ":" + std::string(ss::StatusCodeName(code))];
  }
  void Succeeded(OpKind kind, Nanos ns) {
    ++tally_.succeeded;
    const double us = static_cast<double>(ns) / 1e3;
    tally_.latency[static_cast<size_t>(kind)].Add(us);
    tally_.all.Add(us);
  }

  void DoGet(ss::ShardId key) {
    ++tally_.counts[static_cast<size_t>(OpKind::kGet)];
    const Attribution::Counts before = Before();
    const Nanos start = NowNs();
    ss::Result<ss::GetResult> got = [&] {
      ScopedSpan root(spans_, "client.get");
      ScopedSpan span(spans_, "rpc.get");
      return node_.Get(key);
    }();
    const Nanos elapsed = NowNs() - start;
    Charge(kBucketGet, before);
    Outcome("get", got.status().code());
    if (!got.ok()) {
      return;
    }
    if (!model_.Accepts(key, got.value().value)) {
      result_.Violation("get " + std::to_string(key) + " returned a value never acknowledged");
    }
    Succeeded(OpKind::kGet, elapsed);
  }

  void DoPut(ss::ShardId key) {
    ++tally_.counts[static_cast<size_t>(OpKind::kPut)];
    ss::Bytes value = model_.NextValue(key);
    const Attribution::Counts before = Before();
    const Nanos start = NowNs();
    ss::Status status = [&] {
      ScopedSpan root(spans_, "client.put");
      ss::Status put = [&] {
        ScopedSpan span(spans_, "rpc.put");
        ss::Result<ss::PutResult> r = node_.Put(key, value);
        return r.ok() ? ss::Status::Ok() : r.status();
      }();
      if (!put.ok()) {
        return put;
      }
      ScopedSpan span(spans_, "rpc.flush_all");
      return node_.FlushAllDisks();
    }();
    const Nanos elapsed = NowNs() - start;
    Charge(kBucketPut, before);
    Outcome("put", status.code());
    if (!status.ok()) {
      model_.Unacked(key, std::move(value));
      return;
    }
    model_.Ack(key, std::move(value));
    Succeeded(OpKind::kPut, elapsed);
    if (++acked_since_maintenance_ == kMaintenanceEvery) {
      acked_since_maintenance_ = 0;
      Maintain();
    }
  }

  void DoScan(ss::ShardId start_key) {
    ++tally_.counts[static_cast<size_t>(OpKind::kScan)];
    const Attribution::Counts before = Before();
    const Nanos start = NowNs();
    ss::Result<ss::ScanResult> scan = [&] {
      ScopedSpan root(spans_, "client.scan");
      ScopedSpan span(spans_, "rpc.scan");
      return node_.Scan(start_key, start_key + kScanWindow);
    }();
    const Nanos elapsed = NowNs() - start;
    Charge(kBucketScan, before);
    Outcome("scan", scan.status().code());
    if (!scan.ok()) {
      return;
    }
    tally_.scan_items += scan.value().items.size();
    const std::string diff = CheckScan(model_, spec_.keys, start_key, scan.value().items);
    if (!diff.empty()) {
      result_.Violation(diff);
    }
    Succeeded(OpKind::kScan, elapsed);
  }

  void Maintain() {
    ScopedSpan root(spans_, "client.maintenance");
    for (int d = 0; d < node_.disk_count(); ++d) {
      std::shared_ptr<ss::ShardStore> store = node_.store(d);
      if (store == nullptr) {
        continue;
      }
      const Attribution::Counts before = Before();
      const Nanos start = NowNs();
      ss::Status status = [&] {
        ScopedSpan span(spans_, "kv.reclaim_any");
        return store->ReclaimAny();
      }();
      tally_.reclaim_ns += NowNs() - start;
      ++tally_.reclaim_calls;
      Charge(kBucketReclaim, before);
      Outcome("reclaim_any", status.code());
    }
  }

  ss::NodeServer& node_;
  const RequestSpec& spec_;
  ReferenceModel& model_;
  RunResult& result_;
  Tally& tally_;
  SpanLog* spans_;
  Attribution* attribution_;

  uint64_t acked_since_maintenance_ = 0;
};

// Fresh node + preload, timed; the bed is null when set-up failed.
std::unique_ptr<NodeBed> SetUp(const RequestSpec& spec, const std::string& dir,
                               ReferenceModel& model, RunResult& result, double* seconds) {
  const Nanos start = NowNs();
  std::unique_ptr<NodeBed> bed = NodeBed::Create(spec, dir, result);
  if (bed == nullptr || !Preload(bed->node(), spec, model, result)) {
    return nullptr;
  }
  if (seconds != nullptr) {
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
  }
  return bed;
}

double SpaceAmp(ss::NodeServer& node, const ReferenceModel& model) {
  uint64_t live_pages = 0;
  for (int d = 0; d < node.disk_count(); ++d) {
    live_pages += node.disk(d).LivePages();
  }
  return Ratio(static_cast<double>(live_pages) * Geometry().page_size,
               static_cast<double>(model.LiveBytes()));
}

uint64_t FsyncCount(ss::NodeServer& node) {
  uint64_t total = 0;
  for (int d = 0; d < node.disk_count(); ++d) {
    if (auto* file = dynamic_cast<ss::FileDisk*>(&node.disk(d))) {
      total += file->fsync_count();
    }
  }
  return total;
}

// Output check at the end of a run: optionally crash-recover every disk, then every
// key must read back a value the model accepts (every acknowledged write survives).
void FinalCheck(ss::NodeServer& node, const RequestSpec& spec, const ReferenceModel& model,
                uint64_t seed, RunResult& result) {
  if (spec.crash_check) {
    for (int d = 0; d < node.disk_count(); ++d) {
      const ss::Status recovered = node.CrashAndRecoverDisk(d, seed * 1000003 + d);
      if (!recovered.ok()) {
        result.Violation("CrashAndRecoverDisk(" + std::to_string(d) +
                         "): " + recovered.ToString());
        return;
      }
    }
  }
  uint64_t lost = 0;
  for (ss::ShardId key = 0; key < spec.keys; ++key) {
    ss::Result<ss::GetResult> got = node.Get(key);
    if (!got.ok() || !model.Accepts(key, got.value().value)) {
      if (lost++ == 0) {
        result.Violation(std::string("final re-read") +
                         (spec.crash_check ? " after crash recovery" : "") + ": key " +
                         std::to_string(key) + " " +
                         (got.ok() ? "has a value never acknowledged"
                                   : "failed: " + got.status().ToString()));
      }
    }
  }
  if (lost > 0) {
    result.Violation(std::to_string(lost) + " keys failed the final re-read");
  }
}

void PrintConfig(const RequestSpec& spec, const RunConfig& config) {
  const ss::DiskGeometry g = Geometry();
  std::printf(
      "config: workload=%s seed=%llu nproc=%u build=%s backend=%s fs=%s disks=%d "
      "geometry=%ux%ux%uB cache_pages=%zu memtable_flush_entries=%zu "
      "level0_compaction_trigger=%zu keys=%llu value_bytes=%zu mix=get%u/put%u/scan%u "
      "zipf_theta=%.2f scan_window=%llu flush=FlushAllDisks-before-every-write-ack "
      "maintenance=ReclaimAny-per-disk-every-%llu-acked-writes client=1-closed-loop\n",
      spec.name, static_cast<unsigned long long>(config.seed),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      spec.file_backend ? "FileDisk" : "InMemoryDisk",
      spec.file_backend ? FsTypeName(config.work_dir).c_str() : "n/a", kDisks,
      g.extent_count, g.pages_per_extent, g.page_size, StoreOptions().cache_pages,
      StoreOptions().lsm.memtable_flush_entries, StoreOptions().lsm.level0_compaction_trigger,
      static_cast<unsigned long long>(spec.keys), spec.value_bytes, spec.get_pct,
      spec.put_pct, 100 - spec.get_pct - spec.put_pct, kZipfTheta,
      static_cast<unsigned long long>(kScanWindow),
      static_cast<unsigned long long>(kMaintenanceEvery));
}

void PrintOutcomes(const char* label, const Tally& tally) {
  std::printf("%s outcomes:", label);
  for (const auto& [what, n] : tally.outcomes) {
    std::printf(" %s=%llu", what.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

// The report lines: per-kind p50/p99 by name with unit, plus the highest percentile
// with at least ten samples beyond it and the sample count.
void PrintLatencies(const Tally& tally) {
  for (OpKind kind : {OpKind::kGet, OpKind::kPut, OpKind::kScan}) {
    const Samples& samples = tally.of(kind);
    if (samples.empty()) {
      continue;
    }
    const char* name = KindName(kind);
    std::printf("%s_p50_us %.3f us\n", name, samples.Quantile(0.50));
    std::printf("%s_p99_us %.3f us (samples beyond: %zu)\n", name, samples.Quantile(0.99),
                samples.Beyond(0.99));
    if (auto tail = samples.HighestTail()) {
      std::printf("%s_tail: p%g = %.3f us, n=%zu, %zu samples beyond\n", name,
                  tail->q * 100, tail->value, samples.size(), tail->beyond);
    }
  }
}

// Per-disk ShardStore stacks over TimedDisk: the replay that times the kv and disk
// layers, which NodeServer (building its own disks) cannot expose.
class ReplayBed {
 public:
  static std::unique_ptr<ReplayBed> Create(const RequestSpec& spec, const std::string& dir,
                                           RunResult& result) {
    auto bed = std::unique_ptr<ReplayBed>(new ReplayBed());
    if (spec.file_backend) {
      bed->dir_ = dir;
      std::filesystem::remove_all(dir);
    }
    for (int d = 0; d < kDisks; ++d) {
      std::unique_ptr<ss::disk::Disk> inner;
      if (spec.file_backend) {
        const std::string disk_dir = dir + "/disk-" + std::to_string(d);
        std::filesystem::create_directories(disk_dir);
        auto file = ss::FileDisk::Open(disk_dir, Geometry());
        if (!file.ok()) {
          result.Violation("FileDisk::Open: " + file.status().ToString());
          return nullptr;
        }
        inner = std::move(file).value();
      } else {
        inner = std::make_unique<ss::InMemoryDisk>(Geometry());
      }
      bed->disks_.push_back(std::make_unique<TimedDisk>(std::move(inner), &bed->stats_,
                                                        /*spans=*/nullptr));
      auto store = ss::ShardStore::Open(bed->disks_.back().get(), StoreOptions());
      if (!store.ok()) {
        result.Violation("ShardStore::Open: " + store.status().ToString());
        return nullptr;
      }
      bed->stores_.push_back(std::move(store).value());
    }
    return bed;
  }

  ~ReplayBed() {
    stores_.clear();
    disks_.clear();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  ReplayBed(const ReplayBed&) = delete;
  ReplayBed& operator=(const ReplayBed&) = delete;

  ss::ShardStore& store(int d) { return *stores_[d]; }
  DiskCallStats& stats() { return stats_; }
  void Trace(SpanLog* spans) {
    for (auto& disk : disks_) {
      disk->set_spans(spans);
    }
  }

  // Same preload as the node: 64-key batches split by home disk, then a flush.
  bool Preload(const RequestSpec& spec, ReferenceModel& model, RunResult& result) {
    for (ss::ShardId first = 0; first < spec.keys; first += kPreloadBatch) {
      std::array<std::vector<ss::StoreBatchItem>, kDisks> per_disk;
      for (ss::ShardId key = first;
           key < std::min<uint64_t>(first + kPreloadBatch, spec.keys); ++key) {
        per_disk[HomeDisk(key)].push_back(ss::StoreBatchItem{key, model.NextValue(key)});
      }
      for (int d = 0; d < kDisks; ++d) {
        if (per_disk[d].empty()) {
          continue;
        }
        const ss::StoreBatchResult batch = stores_[d]->ApplyBatch(per_disk[d]);
        for (size_t i = 0; i < per_disk[d].size(); ++i) {
          if (!batch.items[i].status.ok()) {
            result.Violation("replay preload failed: " + batch.items[i].status.ToString());
            return false;
          }
          model.Ack(per_disk[d][i].id, *per_disk[d][i].value);
        }
      }
    }
    return FlushAll();
  }

  bool FlushAll() {
    for (auto& store : stores_) {
      const ss::Status status = store->FlushAll();
      if (!status.ok()) {
        return false;
      }
    }
    return true;
  }

 private:
  ReplayBed() = default;

  DiskCallStats stats_;
  std::vector<std::unique_ptr<TimedDisk>> disks_;
  std::vector<std::unique_ptr<ss::ShardStore>> stores_;
  std::string dir_;
};

struct ReplayFigures {
  uint64_t gets = 0;
  uint64_t writes = 0;
  uint64_t acked_bytes = 0;
  uint64_t get_page_reads = 0;
  Nanos wall_ns = 0;
  DiskCallStats disk;
};

// Replays `ops` ops of the stream on the per-disk stacks, checking every result.
ReplayFigures Replay(const RequestSpec& spec, const RunConfig& config, size_t ops,
                     SpanLog& spans, RunResult& result) {
  ReplayFigures out;
  ReferenceModel model(spec);
  std::unique_ptr<ReplayBed> bed = ReplayBed::Create(spec, config.work_dir + "/replay", result);
  if (bed == nullptr || !bed->Preload(spec, model, result)) {
    result.Violation("replay set-up failed");
    return out;
  }
  bed->stats() = DiskCallStats{};
  bed->Trace(&spans);
  OpStream stream(spec, config.seed);
  uint64_t acked_since_maintenance = 0;
  const Nanos start = NowNs();
  for (size_t i = 0; i < ops; ++i) {
    const Op op = stream.Next();
    const int d = HomeDisk(op.key);
    switch (op.kind) {
      case OpKind::kGet: {
        ++out.gets;
        const uint64_t reads_before = bed->stats().page_reads;
        ss::Result<ss::Bytes> got = [&] {
          ScopedSpan span(&spans, "kv.get");
          return bed->store(d).Get(op.key);
        }();
        out.get_page_reads += bed->stats().page_reads - reads_before;
        if (got.ok() && !model.Accepts(op.key, got.value())) {
          result.Violation("replay get returned a value never acknowledged");
        }
        break;
      }
      case OpKind::kPut: {
        ++out.writes;
        ss::Bytes value = model.NextValue(op.key);
        bool acked = false;
        {
          ScopedSpan root(&spans, "replay.put");
          ss::Result<ss::Dependency> put = [&] {
            ScopedSpan span(&spans, "kv.put");
            return bed->store(d).Put(op.key, value);
          }();
          if (put.ok()) {
            ScopedSpan span(&spans, "kv.flush_all");
            acked = bed->FlushAll();
          }
        }
        if (!acked) {
          model.Unacked(op.key, std::move(value));
          break;
        }
        out.acked_bytes += value.size();
        model.Ack(op.key, std::move(value));
        if (++acked_since_maintenance == kMaintenanceEvery) {
          acked_since_maintenance = 0;
          for (int k = 0; k < kDisks; ++k) {
            ScopedSpan span(&spans, "kv.reclaim_any");
            (void)bed->store(k).ReclaimAny();
          }
        }
        break;
      }
      case OpKind::kScan: {
        std::vector<ss::ScanItem> items;
        bool ok = true;
        {
          ScopedSpan span(&spans, "kv.scan");
          for (int k = 0; k < kDisks && ok; ++k) {
            ss::Result<std::vector<ss::ScanItem>> part =
                bed->store(k).Scan(op.key, op.key + kScanWindow);
            ok = part.ok();
            if (ok) {
              for (ss::ScanItem& item : part.value()) {
                items.push_back(std::move(item));
              }
            }
          }
        }
        if (ok) {
          std::sort(items.begin(), items.end(),
                    [](const ss::ScanItem& a, const ss::ScanItem& b) { return a.id < b.id; });
          const std::string diff = CheckScan(model, spec.keys, op.key, items);
          if (!diff.empty()) {
            result.Violation("replay " + diff);
          }
        }
        break;
      }
    }
  }
  out.wall_ns = NowNs() - start;
  out.disk = bed->stats();
  bed->Trace(nullptr);
  return out;
}

}  // namespace

const RequestSpec* FindRequestSpec(std::string_view name) {
  for (const RequestSpec& spec : kSpecs) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

bool IsRequestWorkload(std::string_view name) { return FindRequestSpec(name) != nullptr; }

ZipfKeys::ZipfKeys(uint64_t n, double theta) : n_(n) {
  double norm = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  cdf_.reserve(n);
  double acc = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), theta) / norm;
    cdf_.push_back(acc);
  }
}

ss::ShardId ZipfKeys::Next(ss::Rng& rng) const {
  const double u = rng.NextDouble();
  const uint64_t rank = std::min<uint64_t>(
      static_cast<uint64_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()),
      n_ - 1);
  return (rank * 0x9E3779B97F4A7C15ULL) % n_;
}

OpStream::OpStream(const RequestSpec& spec, uint64_t seed)
    : spec_(spec), keys_(spec.keys, kZipfTheta), rng_(seed * 0x100000001b3ULL + spec.keys) {}

Op OpStream::Next() {
  const uint64_t roll = rng_.Below(100);
  const OpKind kind = roll < spec_.get_pct                  ? OpKind::kGet
                      : roll < spec_.get_pct + spec_.put_pct ? OpKind::kPut
                                                              : OpKind::kScan;
  return Op{kind, keys_.Next(rng_)};
}

RunResult RunRequestWorkload(const RunConfig& config) {
  const RequestSpec& spec = *FindRequestSpec(config.workload);
  if (config.trace) {
    return RunRequestTraced(spec, config, spec.episode_ops);
  }
  RunResult result;
  PrintConfig(spec, config);

  // Episodes: a fresh node and preload (one set-up sample), then the first
  // episode_ops ops of the seed's stream, timed. Every episode repeats the same work,
  // so the seconds only decide how many samples a run pools.
  Tally tally;
  Samples setup;
  Samples episode_rate;
  double measured_s = 0;
  double space_amp = 0;
  int episodes = 0;
  while ((episodes == 0 || measured_s < config.seconds) && result.correct) {
    ReferenceModel model(spec);
    double setup_s = 0;
    std::unique_ptr<NodeBed> bed = SetUp(
        spec, config.work_dir + "/node-" + std::to_string(episodes), model, result, &setup_s);
    if (bed == nullptr) {
      return result;
    }
    setup.Add(setup_s);
    Client client(bed->node(), spec, model, result, tally, nullptr, nullptr);
    OpStream stream(spec, config.seed);
    const uint64_t succeeded_before = tally.succeeded;
    const Nanos start = NowNs();
    for (size_t i = 0; i < spec.episode_ops; ++i) {
      client.Execute(stream.Next());
    }
    const double episode_s = static_cast<double>(NowNs() - start) / 1e9;
    measured_s += episode_s;
    episode_rate.Add(static_cast<double>(tally.succeeded - succeeded_before) / episode_s);
    space_amp = SpaceAmp(bed->node(), model);
    FinalCheck(bed->node(), spec, model, config.seed, result);
    ++episodes;
  }
  // Short runs still report set-up time as a median of several set-ups.
  while (setup.size() < kMinSetups && result.correct) {
    ReferenceModel model(spec);
    double setup_s = 0;
    if (SetUp(spec, config.work_dir + "/setup", model, result, &setup_s) == nullptr) {
      return result;
    }
    setup.Add(setup_s);
  }

  result.attempted = tally.attempted;
  result.failed = tally.failed();
  const Samples& heavy = tally.of(spec.heavy);
  if (tally.all.empty() || heavy.empty()) {
    result.Violation("no successful requests of the measured kinds");
    return result;
  }
  result.Add("ops_per_s", static_cast<double>(tally.succeeded) / measured_s, "1/s");
  result.Add("p50_us", tally.all.Quantile(0.50), "us");
  result.Add("p99_us", tally.all.Quantile(0.99), "us");
  result.Add("heavy_p50_us", heavy.Quantile(0.50), "us");
  result.Add("setup_s", setup.Quantile(0.50), "s");

  std::printf("requests: %d episodes of %zu ops, %llu attempted, %llu ok, %llu failed in "
              "%.3f s measured (heavy op: %s)\n",
              episodes, spec.episode_ops, static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.succeeded),
              static_cast<unsigned long long>(tally.failed()), measured_s, KindName(spec.heavy));
  PrintOutcomes("request", tally);
  PrintLatencies(tally);
  std::printf("p99_us over all requests: n=%zu, %zu samples beyond\n", tally.all.size(),
              tally.all.Beyond(0.99));
  std::printf("failed_share %.6f share\n",
              Ratio(static_cast<double>(tally.failed()), static_cast<double>(tally.attempted)));
  std::printf("space_amp %.4f ratio\n", space_amp);
  std::printf("setup_s samples: %zu\n", setup.size());
  std::printf("episode ops/s: min %.1f median %.1f max %.1f\n", episode_rate.Quantile(0.0),
              episode_rate.Quantile(0.5), episode_rate.Quantile(1.0));
  std::printf("maintenance: %llu ReclaimAny calls, %.3f s (%.1f%% of measured time)\n",
              static_cast<unsigned long long>(tally.reclaim_calls),
              static_cast<double>(tally.reclaim_ns) / 1e9,
              100.0 * static_cast<double>(tally.reclaim_ns) / 1e9 / measured_s);
  return result;
}

RunResult RunRequestTraced(const RequestSpec& spec, const RunConfig& config, size_t ops) {
  RunResult result;
  PrintConfig(spec, config);

  // Phase 1, untraced: the reference rate for the tracing-overhead figure.
  double untraced_ops_per_s = 0;
  {
    ReferenceModel model(spec);
    std::unique_ptr<NodeBed> bed =
        SetUp(spec, config.work_dir + "/untraced", model, result, nullptr);
    if (bed == nullptr) {
      return result;
    }
    Tally tally;
    Client client(bed->node(), spec, model, result, tally, nullptr, nullptr);
    OpStream stream(spec, config.seed);
    const Nanos start = NowNs();
    for (size_t i = 0; i < ops; ++i) {
      client.Execute(stream.Next());
    }
    untraced_ops_per_s =
        static_cast<double>(tally.succeeded) / (static_cast<double>(NowNs() - start) / 1e9);
  }

  // Phase 2, traced: the same op stream on a fresh node, with benchmark spans around
  // every call and store counters attributed per request kind.
  SpanLog spans;
  ReferenceModel model(spec);
  std::unique_ptr<NodeBed> bed = SetUp(spec, config.work_dir + "/traced", model, result, nullptr);
  if (bed == nullptr) {
    return result;
  }
  ss::NodeServer& node = bed->node();
  Attribution attribution(node);
  const ss::MetricsSnapshot before = node.MetricsSnapshot();
  const uint64_t fsyncs_before = FsyncCount(node);
  Tally tally;
  Client client(node, spec, model, result, tally, &spans, &attribution);
  OpStream stream(spec, config.seed);
  const Nanos start = NowNs();
  for (size_t i = 0; i < ops; ++i) {
    client.Execute(stream.Next());
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  const ss::MetricsSnapshot after = node.MetricsSnapshot();
  const uint64_t fsyncs = FsyncCount(node) - fsyncs_before;
  uint64_t runs_at_end = 0;
  for (int d = 0; d < node.disk_count(); ++d) {
    runs_at_end += node.store(d)->index().RunCount();
  }
  const double space_amp = SpaceAmp(node, model);
  FinalCheck(node, spec, model, config.seed, result);
  bed.reset();

  // Phase 3: replay on per-disk stacks over TimedDisk for the kv and disk layers.
  const ReplayFigures replay = Replay(spec, config, ops, spans, result);

  result.attempted = tally.attempted;
  result.failed = tally.failed();
  auto delta = [&](std::string_view name) {
    return static_cast<double>(ss::CounterDelta(before, after, name));
  };
  const double gets = static_cast<double>(tally.count(OpKind::kGet));
  const double writes = static_cast<double>(tally.count(OpKind::kPut));
  const double attempted = static_cast<double>(tally.attempted);
  const double reclaims = static_cast<double>(tally.reclaim_calls);
  auto by = [&](Bucket bucket, Attr attr) {
    return static_cast<double>(attribution.Get(bucket, attr));
  };

  // Read path.
  result.Add("lsm.bloom_skips_per_get", Ratio(by(kBucketGet, kBloomMiss), gets), "count");
  result.Add("lsm.run_probes_per_get",
             Ratio(by(kBucketGet, kBloomHit) + by(kBucketGet, kBloomFalsePositive), gets),
             "count");
  result.Add("lsm.bloom_fp_per_get", Ratio(by(kBucketGet, kBloomFalsePositive), gets), "count");
  result.Add("lsm.runs_at_end", static_cast<double>(runs_at_end), "count");
  result.Add("chunk.gets_per_get", Ratio(by(kBucketGet, kChunkGets), gets), "count");
  result.Add("chunk.gets_per_scan_item",
             Ratio(by(kBucketScan, kChunkGets), static_cast<double>(tally.scan_items)),
             "count");
  result.Add("cache.hit_ratio",
             Ratio(delta("cache.hits"), delta("cache.hits") + delta("cache.misses")), "ratio");
  result.Add("cache.evictions_per_op", Ratio(delta("cache.evictions"), attempted), "count");
  result.Add("cache.misses_per_get", Ratio(by(kBucketGet, kCacheMisses), gets), "count");
  result.Add("disk.read_pages_per_get",
             Ratio(static_cast<double>(replay.get_page_reads), static_cast<double>(replay.gets)),
             "count");

  // Reclamation.
  result.Add("kv.reclaim_any_ns", Ratio(static_cast<double>(tally.reclaim_ns), reclaims),
             "ns");
  result.Add("kv.reclaim_any_calls", reclaims, "count");
  result.Add("kv.maintenance_share",
             Ratio(static_cast<double>(tally.reclaim_ns) / 1e9, elapsed_s), "share");
  const double evacuated = by(kBucketReclaim, kChunkEvacuated);
  const double dropped = by(kBucketReclaim, kChunkDropped);
  result.Add("chunk.gets_per_reclaim", Ratio(by(kBucketReclaim, kChunkGets), reclaims), "count");
  result.Add("chunk.evacuated_per_reclaim", Ratio(evacuated, reclaims), "count");
  result.Add("chunk.dropped_per_reclaim", Ratio(dropped, reclaims), "count");
  result.Add("chunk.reclaim_yield", Ratio(dropped, dropped + evacuated), "ratio");

  // Durability barrier.
  const double replay_writes = static_cast<double>(replay.writes);
  result.Add("disk.fsyncs_per_write", Ratio(static_cast<double>(fsyncs), writes), "count");
  result.Add("disk.sync_ns_per_write",
             Ratio(static_cast<double>(replay.disk.barrier_ns), replay_writes), "ns");
  result.Add("extent.soft_wp_updates_per_write",
             Ratio(static_cast<double>(replay.disk.soft_wp_writes), replay_writes), "count");
  result.Add("rpc.flush_all_ns", spans.MeanNs("rpc.flush_all"), "ns");

  // Write path.
  result.Add("lsm.flushes_per_write", Ratio(delta("lsm.flushes"), writes), "count");
  result.Add("lsm.level_compactions_per_write", Ratio(delta("lsm.level_compactions"), writes),
             "count");
  result.Add("io.enqueued_per_write", Ratio(delta("io.enqueued"), writes), "count");
  result.Add("io.issued_per_write", Ratio(delta("io.issued"), writes), "count");
  result.Add("io.coalesced_pages_per_write", Ratio(delta("io.coalesced_pages"), writes),
             "count");
  result.Add("chunk.puts_per_write", Ratio(delta("chunk.puts"), writes), "count");
  result.Add("disk.bytes_written_per_user_byte",
             Ratio(static_cast<double>(replay.disk.bytes_written),
                   static_cast<double>(replay.acked_bytes)),
             "ratio");
  result.Add("disk.busy_share",
             Ratio(static_cast<double>(replay.disk.busy_ns()), static_cast<double>(replay.wall_ns)),
             "share");

  // Request plane and store.
  result.Add("rpc.get_ns", spans.MeanNs("rpc.get"), "ns");
  result.Add("rpc.put_ns", spans.MeanNs("rpc.put"), "ns");
  result.Add("rpc.scan_ns", spans.MeanNs("rpc.scan"), "ns");
  result.Add("rpc.err_per_op", Ratio(static_cast<double>(tally.failed()), attempted), "ratio");
  result.Add("kv.get_ns", spans.MeanNs("kv.get"), "ns");
  result.Add("kv.put_ns", spans.MeanNs("kv.put"), "ns");
  result.Add("kv.scan_ns", spans.MeanNs("kv.scan"), "ns");
  result.Add("kv.flush_all_ns", spans.MeanNs("kv.flush_all"), "ns");
  // IO attempts that failed and were retried; extent.retry.attempts itself counts
  // every IO check, first attempts included.
  result.Add("extent.retry_attempts", delta("extent.retry.transient_faults"), "count");
  result.Add("space.amp", space_amp, "ratio");
  result.Add("trace.ops_ratio",
             Ratio(static_cast<double>(tally.succeeded) / elapsed_s, untraced_ops_per_s), "x");

  std::printf("traced run: %zu ops per phase; untraced %.1f ops/s, traced %.1f ops/s\n", ops,
              untraced_ops_per_s, static_cast<double>(tally.succeeded) / elapsed_s);
  PrintOutcomes("traced request", tally);
  const std::string span_path = config.trace_dir + "/spans-" + spec.name + "-" +
                                std::to_string(config.seed) + ".csv";
  spans.PrintSummary();
  if (spans.WriteCsv(span_path)) {
    std::printf("spans: %s (%zu not retained)\n", span_path.c_str(), spans.dropped());
  }
  return result;
}

}  // namespace perfbench
