#include "src/harness/component_harness.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/cache/buffer_cache.h"
#include "src/chunk/chunk_store.h"
#include "src/dep/io_scheduler.h"
#include "src/harness/checks.h"
#include "src/lsm/lsm_index.h"
#include "src/superblock/extent_manager.h"

namespace ss {

namespace {

// Deterministic fabricated shard record for the index harness: the locators are
// synthetic tokens (extent ids far outside the disk) — the index treats records as
// opaque values, which is exactly what a mock usage would do.
ShardRecord FabricatedRecord(ShardId key, uint32_t tag) {
  ShardRecord record;
  record.total_bytes = tag;
  const uint32_t chunk_count = tag % 3;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    record.chunks.push_back(Locator{/*extent=*/100000 + static_cast<uint32_t>(key),
                                    /*first_page=*/tag + i, /*page_count=*/1,
                                    /*frame_bytes=*/64});
  }
  return record;
}

// The full lower stack the index needs.
struct IndexStack {
  InMemoryDisk disk;
  std::unique_ptr<IoScheduler> scheduler;
  std::unique_ptr<ExtentManager> extents;
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<ChunkStore> chunks;
  std::unique_ptr<LsmIndex> index;

  explicit IndexStack(const DiskGeometry& geometry) : disk(geometry) {}

  Status Open() {
    scheduler = std::make_unique<IoScheduler>(&disk);
    extents = std::make_unique<ExtentManager>(&disk, scheduler.get());
    cache = std::make_unique<BufferCache>(extents.get(), 128);
    chunks = std::make_unique<ChunkStore>(extents.get(), cache.get(), ChunkStoreOptions{});
    auto index_or = LsmIndex::Open(extents.get(), chunks.get(), LsmOptions{});
    if (!index_or.ok()) {
      return index_or.status();
    }
    index = std::move(index_or).value();
    return Status::Ok();
  }
};

}  // namespace

std::string IndexOp::ToString() const {
  static const char* kNames[] = {"Get",     "Put",    "Delete", "Flush",       "Compact",
                                 "Reclaim", "Reboot", "Scan",   "CompactLevel"};
  std::ostringstream out;
  out << kNames[static_cast<int>(kind)];
  if (kind == IndexOpKind::kGet || kind == IndexOpKind::kPut || kind == IndexOpKind::kDelete) {
    out << "(" << key << (kind == IndexOpKind::kPut ? ", #" + std::to_string(value_tag) : "")
        << ")";
  } else if (kind == IndexOpKind::kScan) {
    out << "(" << key << ", " << end << ")";
  } else if (kind == IndexOpKind::kCompactLevel) {
    out << "(" << value_tag << ")";
  }
  return out.str();
}

IndexOp IndexConformanceHarness::Gen(Rng& rng, const std::vector<IndexOp>& prefix,
                                     const IndexHarnessOptions& options) {
  std::vector<uint32_t> weights = {/*Get*/ 25,    /*Put*/ 30,     /*Delete*/ 10,
                                   /*Flush*/ 12,  /*Compact*/ 6,  /*Reclaim*/ 10,
                                   /*Reboot*/ 4,  /*Scan*/ 8,     /*CompactLevel*/ 5};
  IndexOp op;
  op.kind = static_cast<IndexOpKind>(rng.WeightedIndex(weights));
  std::vector<uint64_t> used;
  for (const IndexOp& prev : prefix) {
    if (prev.kind == IndexOpKind::kPut) {
      used.push_back(prev.key);
    }
  }
  if (op.kind == IndexOpKind::kGet || op.kind == IndexOpKind::kPut ||
      op.kind == IndexOpKind::kDelete) {
    op.key = BiasedKey(rng, used, 0.7, options.key_bound);
    op.value_tag = static_cast<uint32_t>(rng.Below(1000));
  } else if (op.kind == IndexOpKind::kScan) {
    op.key = BiasedKey(rng, used, 0.6, options.key_bound);
    op.end = op.key + rng.Below(options.key_bound / 2 + 2);  // allows an empty window
  } else if (op.kind == IndexOpKind::kCompactLevel) {
    op.value_tag = static_cast<uint32_t>(rng.Below(4));  // level
  }
  return op;
}

std::vector<IndexOp> IndexConformanceHarness::Shrink(const IndexOp& op) {
  std::vector<IndexOp> out;
  if (op.key > 0) {
    IndexOp smaller = op;
    smaller.key /= 2;
    out.push_back(smaller);
  }
  if (op.value_tag > 0) {
    IndexOp smaller = op;
    smaller.value_tag /= 2;
    out.push_back(smaller);
  }
  if (op.kind == IndexOpKind::kScan && op.end > op.key) {
    IndexOp narrower = op;
    narrower.end = op.key + (op.end - op.key) / 2;
    out.push_back(narrower);
  }
  if (op.kind != IndexOpKind::kGet) {
    IndexOp get;
    get.kind = IndexOpKind::kGet;
    get.key = op.key;
    out.push_back(get);
  }
  return out;
}

std::optional<std::string> IndexConformanceHarness::Run(const std::vector<IndexOp>& ops) {
  Violations<IndexOp> fail("index_conformance", ops);
  IndexStack stack(options_.geometry);
  if (Status status = stack.Open(); !status.ok()) {
    return "open failed: " + status.ToString();
  }
  IndexModel model;

  for (size_t i = 0; i < ops.size(); ++i) {
    const IndexOp& op = ops[i];
    switch (op.kind) {
      case IndexOpKind::kGet: {
        auto got = stack.index->Get(op.key);
        if (!got.ok()) {
          return fail(i, "error: " + got.status().ToString());
        }
        std::optional<ShardRecord> expected = model.Get(op.key);
        if (got.value().has_value() != expected.has_value() ||
            (expected.has_value() && !(*got.value() == *expected))) {
          return fail(i, "index and model disagree");
        }
        break;
      }
      case IndexOpKind::kPut:
        stack.index->Put(op.key, FabricatedRecord(op.key, op.value_tag), Dependency());
        model.Put(op.key, FabricatedRecord(op.key, op.value_tag));
        break;
      case IndexOpKind::kDelete:
        stack.index->Delete(op.key);
        model.Delete(op.key);
        break;
      case IndexOpKind::kFlush:
        if (Status status = stack.index->Flush();
            !status.ok() && status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "flush failed: " + status.ToString());
        }
        break;
      case IndexOpKind::kCompact:
        if (Status status = stack.index->Compact();
            !status.ok() && status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "compact failed: " + status.ToString());
        }
        break;
      case IndexOpKind::kReclaim: {
        std::vector<ExtentId> candidates = stack.chunks->ReclaimableExtents();
        if (candidates.empty()) {
          break;
        }
        // Fabricated shard locators never collide with real extents, so the
        // index's references are its own run chunks.
        Status status =
            stack.chunks->Reclaim(candidates[op.key % candidates.size()], stack.index.get());
        if (!status.ok() && status.code() != StatusCode::kUnavailable &&
            status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "reclaim failed: " + status.ToString());
        }
        break;
      }
      case IndexOpKind::kScan: {
        auto got = stack.index->Scan(op.key, op.end);
        if (!got.ok()) {
          return fail(i, "scan error: " + got.status().ToString());
        }
        std::vector<std::pair<ShardId, ShardRecord>> expected = model.Scan(op.key, op.end);
        const std::vector<LsmScanItem>& impl = got.value();
        bool match = impl.size() == expected.size();
        for (size_t k = 0; match && k < impl.size(); ++k) {
          match = impl[k].id == expected[k].first && impl[k].record == expected[k].second;
        }
        if (!match) {
          return fail(i, "scan and model disagree");
        }
        break;
      }
      case IndexOpKind::kCompactLevel:
        if (Status status = stack.index->CompactLevel(static_cast<int>(op.value_tag % 4));
            !status.ok() && status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "compact level failed: " + status.ToString());
        }
        break;
      case IndexOpKind::kReboot: {
        if (stack.index->NeedsShutdownFlush()) {
          if (Status status = stack.index->Flush();
              !status.ok() && status.code() != StatusCode::kResourceExhausted) {
            return fail(i, "shutdown flush failed: " + status.ToString());
          }
        }
        Status status = stack.scheduler->FlushAll();
        if (!status.ok()) {
          return fail(i, "clean shutdown failed: " + status.ToString());
        }
        if (status = stack.Open(); !status.ok()) {
          return fail(i, "recovery failed: " + status.ToString());
        }
        break;
      }
    }
    // Invariant: same key set after every op.
    auto keys_or = stack.index->Keys();
    if (!keys_or.ok()) {
      return fail(i, "keys failed: " + keys_or.status().ToString());
    }
    std::vector<ShardId> impl = keys_or.value();
    std::vector<ShardId> expected = model.Keys();
    std::sort(impl.begin(), impl.end());
    std::sort(expected.begin(), expected.end());
    if (impl != expected) {
      return fail(i, "key sets diverge");
    }
  }
  return std::nullopt;
}

// --- Chunk store harness ---------------------------------------------------------------

std::string ChunkOp::ToString() const {
  static const char* kNames[] = {"Get", "Put", "Forget", "Reclaim", "PumpIo"};
  std::ostringstream out;
  out << kNames[static_cast<int>(kind)] << "(pick=" << pick;
  if (kind == ChunkOpKind::kPut) {
    out << ", size=" << size;
  }
  out << ")";
  return out.str();
}

ChunkOp ChunkConformanceHarness::Gen(Rng& rng, const std::vector<ChunkOp>& prefix,
                                     const ChunkHarnessOptions& options) {
  std::vector<uint32_t> weights = {/*Get*/ 25, /*Put*/ 30, /*Forget*/ 15, /*Reclaim*/ 15,
                                   /*Pump*/ 15};
  ChunkOp op;
  op.kind = static_cast<ChunkOpKind>(rng.WeightedIndex(weights));
  op.pick = static_cast<uint32_t>(rng.Below(64));
  if (op.kind == ChunkOpKind::kPut) {
    op.size = static_cast<uint32_t>(
        BiasedValueSize(rng, options.geometry.page_size, 43, options.max_payload));
    op.payload_seed = rng.Next();
  }
  return op;
}

std::vector<ChunkOp> ChunkConformanceHarness::Shrink(const ChunkOp& op) {
  std::vector<ChunkOp> out;
  if (op.pick > 0) {
    ChunkOp smaller = op;
    smaller.pick /= 2;
    out.push_back(smaller);
  }
  if (op.size > 0) {
    ChunkOp smaller = op;
    smaller.size /= 2;
    out.push_back(smaller);
  }
  if (op.kind != ChunkOpKind::kGet) {
    ChunkOp get = op;
    get.kind = ChunkOpKind::kGet;
    out.push_back(get);
  }
  return out;
}

namespace {

// The harness itself is the reclaim client: its live list is the reference set.
class HarnessReclaimClient : public ReclaimClient {
 public:
  struct LiveChunk {
    Locator impl;
    ChunkStoreModel::ModelLocator model;
  };

  std::vector<LiveChunk> live;

  Result<std::optional<ChunkHolder>> FindHolder(const Locator& loc) override {
    for (const LiveChunk& chunk : live) {
      if (chunk.impl == loc) {
        return std::optional<ChunkHolder>(ChunkHolder{});
      }
    }
    return std::optional<ChunkHolder>(std::nullopt);
  }

  Result<Dependency> UpdateReference(const ChunkHolder& holder, const Locator& old_loc,
                                     const Locator& new_loc,
                                     const Dependency& new_dep) override {
    for (LiveChunk& chunk : live) {
      if (chunk.impl == old_loc) {
        chunk.impl = new_loc;
      }
    }
    return Dependency();
  }

  Dependency DropGate() override { return Dependency(); }  // no crashes in this harness
};

}  // namespace

std::optional<std::string> ChunkConformanceHarness::Run(const std::vector<ChunkOp>& ops) {
  InMemoryDisk disk(options_.geometry);
  IoScheduler scheduler(&disk);
  ExtentManager extents(&disk, &scheduler);
  BufferCache cache(&extents, 128);
  ChunkStoreOptions chunk_options;
  chunk_options.max_payload_bytes = options_.max_payload;
  ChunkStore chunks(&extents, &cache, chunk_options);
  ChunkStoreModel model;
  HarnessReclaimClient client;
  std::set<ChunkStoreModel::ModelLocator> ever_issued;
  Violations<ChunkOp> fail("chunk_conformance", ops);

  for (size_t i = 0; i < ops.size(); ++i) {
    const ChunkOp& op = ops[i];
    switch (op.kind) {
      case ChunkOpKind::kGet: {
        if (client.live.empty()) {
          break;
        }
        const auto& chunk = client.live[op.pick % client.live.size()];
        auto impl_or = chunks.Get(chunk.impl);
        std::optional<Bytes> expected = model.Get(chunk.model);
        if (!impl_or.ok()) {
          return fail(i, "implementation get failed: " + impl_or.status().ToString());
        }
        if (!expected.has_value()) {
          return fail(i, "model lost a live chunk (locator bookkeeping broken)");
        }
        if (impl_or.value() != *expected) {
          return fail(i, "chunk contents diverge");
        }
        break;
      }
      case ChunkOpKind::kPut: {
        Rng payload_rng(op.payload_seed);
        Bytes data(op.size);
        for (auto& b : data) {
          b = static_cast<uint8_t>(payload_rng.Below(256));
        }
        auto put_or = chunks.Put(data, Dependency());
        if (!put_or.ok()) {
          if (put_or.code() == StatusCode::kResourceExhausted) {
            break;
          }
          return fail(i, "put failed: " + put_or.status().ToString());
        }
        chunks.Unpin(put_or.value().locator.extent);
        ChunkStoreModel::ModelLocator model_loc = model.Put(data);
        // Invariant: model locators are unique forever (seeded bug #15 violates this).
        if (!ever_issued.insert(model_loc).second) {
          return fail(i, "model re-used locator " + std::to_string(model_loc));
        }
        client.live.push_back({put_or.value().locator, model_loc});
        break;
      }
      case ChunkOpKind::kForget: {
        if (client.live.empty()) {
          break;
        }
        const size_t index = op.pick % client.live.size();
        model.Forget(client.live[index].model);
        client.live.erase(client.live.begin() + static_cast<ptrdiff_t>(index));
        break;
      }
      case ChunkOpKind::kReclaim: {
        std::vector<ExtentId> candidates = chunks.ReclaimableExtents();
        if (candidates.empty()) {
          break;
        }
        Status status = chunks.Reclaim(candidates[op.pick % candidates.size()], &client);
        if (!status.ok() && status.code() != StatusCode::kUnavailable &&
            status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "reclaim failed: " + status.ToString());
        }
        break;
      }
      case ChunkOpKind::kPumpIo:
        scheduler.Pump(1 + op.pick % 8);
        break;
    }
  }
  // Final sweep: every live chunk still readable with the right contents.
  for (size_t c = 0; c < client.live.size(); ++c) {
    auto impl_or = chunks.Get(client.live[c].impl);
    std::optional<Bytes> expected = model.Get(client.live[c].model);
    if (!impl_or.ok() || !expected.has_value() || impl_or.value() != *expected) {
      return fail(ops.size(),
                  "final sweep: live chunk " + std::to_string(c) + " lost or corrupt");
    }
  }
  return std::nullopt;
}

}  // namespace ss
