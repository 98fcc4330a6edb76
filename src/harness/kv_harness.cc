#include "src/harness/kv_harness.h"

#include <algorithm>
#include <sstream>

#include "src/chunk/chunk_format.h"
#include "src/obs/flight_recorder.h"

namespace ss {

namespace {

std::string_view KindName(KvOpKind kind) {
  switch (kind) {
    case KvOpKind::kGet:
      return "Get";
    case KvOpKind::kPut:
      return "Put";
    case KvOpKind::kDelete:
      return "Delete";
    case KvOpKind::kList:
      return "List";
    case KvOpKind::kPumpIo:
      return "PumpIo";
    case KvOpKind::kFlushIndex:
      return "FlushIndex";
    case KvOpKind::kCompactIndex:
      return "CompactIndex";
    case KvOpKind::kReclaim:
      return "Reclaim";
    case KvOpKind::kReboot:
      return "Reboot";
    case KvOpKind::kDirtyReboot:
      return "DirtyReboot";
    case KvOpKind::kFailReadOnce:
      return "FailReadOnce";
    case KvOpKind::kFailWriteOnce:
      return "FailWriteOnce";
    case KvOpKind::kPutBatch:
      return "PutBatch";
    case KvOpKind::kScan:
      return "Scan";
    case KvOpKind::kCompactLevel:
      return "CompactLevel";
  }
  return "?";
}

Bytes RandomValue(Rng& rng, size_t size) {
  Bytes out(size);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  return out;
}

std::vector<uint64_t> UsedKeys(const std::vector<KvOp>& prefix) {
  std::vector<uint64_t> used;
  for (const KvOp& op : prefix) {
    if (op.kind == KvOpKind::kPut || op.kind == KvOpKind::kDelete ||
        op.kind == KvOpKind::kGet) {
      used.push_back(op.id);
    }
    for (const auto& [id, value] : op.batch) {
      used.push_back(id);
    }
  }
  return used;
}

}  // namespace

std::string KvOp::ToString() const {
  std::ostringstream out;
  out << KindName(kind);
  switch (kind) {
    case KvOpKind::kGet:
    case KvOpKind::kDelete:
      out << "(" << id << ")";
      break;
    case KvOpKind::kPut:
      out << "(" << id << ", " << value.size() << "B)";
      break;
    case KvOpKind::kPumpIo:
    case KvOpKind::kReclaim:
    case KvOpKind::kDirtyReboot:
    case KvOpKind::kFailReadOnce:
    case KvOpKind::kFailWriteOnce:
    case KvOpKind::kCompactLevel:
      out << "(" << arg << ")";
      break;
    case KvOpKind::kScan:
      out << "(" << id << ", " << end << ")";
      break;
    case KvOpKind::kPutBatch: {
      out << "(";
      for (size_t i = 0; i < batch.size(); ++i) {
        out << (i ? ", " : "") << batch[i].first << ":" << batch[i].second.size() << "B";
      }
      out << ")";
      break;
    }
    default:
      break;
  }
  return out.str();
}

KvOp KvConformanceHarness::Gen(Rng& rng, const std::vector<KvOp>& prefix,
                               const KvHarnessOptions& options) {
  // Weights over the alphabet (order matches KvOpKind).
  std::vector<uint32_t> weights = {
      /*Get*/ 24, /*Put*/ 30, /*Delete*/ 10, /*List*/ 3,  /*PumpIo*/ 10,
      /*Flush*/ 8, /*Compact*/ 4, /*Reclaim*/ 10, /*Reboot*/ 2,
      /*DirtyReboot*/ options.crashes ? 6u : 0u,
      /*FailRead*/ options.failure_injection ? 3u : 0u,
      /*FailWrite*/ options.failure_injection ? 3u : 0u,
      /*PutBatch*/ 8,
      /*Scan*/ 8,
      /*CompactLevel*/ 5,
  };
  KvOp op;
  op.kind = static_cast<KvOpKind>(rng.WeightedIndex(weights));
  switch (op.kind) {
    case KvOpKind::kGet:
      // Bias toward keys already touched: a Get of a never-written key exercises only
      // the miss path (section 4.2's example).
      op.id = options.bias_arguments ? BiasedKey(rng, UsedKeys(prefix), 0.75, options.key_bound)
                                     : rng.Below(options.key_bound);
      break;
    case KvOpKind::kPut: {
      op.id = options.bias_arguments ? BiasedKey(rng, UsedKeys(prefix), 0.5, options.key_bound)
                                     : rng.Below(options.key_bound);
      const size_t size =
          options.bias_arguments
              ? BiasedValueSize(rng, options.geometry.page_size, kChunkOverheadBytes,
                                options.max_value_bytes)
              : rng.Below(options.max_value_bytes + 1);
      op.value = RandomValue(rng, size);
      break;
    }
    case KvOpKind::kDelete:
      op.id = options.bias_arguments ? BiasedKey(rng, UsedKeys(prefix), 0.8, options.key_bound)
                                     : rng.Below(options.key_bound);
      break;
    case KvOpKind::kPumpIo:
      op.arg = static_cast<uint32_t>(rng.Range(1, 8));
      break;
    case KvOpKind::kReclaim:
      op.arg = static_cast<uint32_t>(rng.Below(8));  // candidate selector
      break;
    case KvOpKind::kDirtyReboot:
      op.arg = static_cast<uint32_t>(rng.Next());  // crash-state seed
      break;
    case KvOpKind::kFailReadOnce:
    case KvOpKind::kFailWriteOnce:
      op.arg = static_cast<uint32_t>(
          rng.Range(1, options.geometry.extent_count - 1));
      break;
    case KvOpKind::kScan: {
      // Start biased toward touched keys; window length biased small and allowed to be
      // zero (empty window) or to run past key_bound (covers the open right edge).
      op.id = options.bias_arguments ? BiasedKey(rng, UsedKeys(prefix), 0.6, options.key_bound)
                                     : rng.Below(options.key_bound);
      op.end = op.id + rng.Below(options.key_bound / 2 + 2);
      break;
    }
    case KvOpKind::kCompactLevel:
      op.arg = static_cast<uint32_t>(rng.Below(4));  // level
      break;
    case KvOpKind::kPutBatch: {
      const size_t items = 2 + rng.Below(4);  // 2..5 items per batch
      for (size_t k = 0; k < items; ++k) {
        const ShardId id = options.bias_arguments
                               ? BiasedKey(rng, UsedKeys(prefix), 0.5, options.key_bound)
                               : rng.Below(options.key_bound);
        const size_t size =
            options.bias_arguments
                ? BiasedValueSize(rng, options.geometry.page_size, kChunkOverheadBytes,
                                  options.max_value_bytes)
                : rng.Below(options.max_value_bytes + 1);
        op.batch.emplace_back(id, RandomValue(rng, size));
      }
      break;
    }
    default:
      break;
  }
  return op;
}

std::vector<KvOp> KvConformanceHarness::Shrink(const KvOp& op) {
  std::vector<KvOp> out;
  // Toward-zero numeric shrinks.
  if (op.id > 0) {
    KvOp smaller = op;
    smaller.id /= 2;
    out.push_back(smaller);
  }
  if (op.arg > 1) {
    KvOp smaller = op;
    smaller.arg /= 2;
    out.push_back(smaller);
  }
  // Shorter values.
  if (op.kind == KvOpKind::kPut && !op.value.empty()) {
    KvOp shorter = op;
    shorter.value.resize(op.value.size() / 2);
    out.push_back(shorter);
    KvOp tiny = op;
    tiny.value.resize(std::min<size_t>(op.value.size(), 1));
    out.push_back(tiny);
  }
  // A scan shrinks toward a narrower window (down to empty).
  if (op.kind == KvOpKind::kScan && op.end > op.id) {
    KvOp narrower = op;
    narrower.end = op.id + (op.end - op.id) / 2;
    out.push_back(narrower);
  }
  // A batch shrinks toward fewer items, and toward a plain Put of its first item.
  if (op.batch.size() > 1) {
    KvOp halved = op;
    halved.batch.resize(op.batch.size() / 2);
    out.push_back(halved);
  }
  if (!op.batch.empty()) {
    KvOp single;
    single.kind = KvOpKind::kPut;
    single.id = op.batch.front().first;
    single.value = op.batch.front().second;
    out.push_back(single);
  }
  // Earlier alphabet variant: anything can try to become a Get of the same key (the
  // minimizer keeps it only if the sequence still fails).
  if (op.kind != KvOpKind::kGet) {
    KvOp get;
    get.kind = KvOpKind::kGet;
    get.id = op.id;
    out.push_back(get);
  }
  return out;
}

std::optional<std::string> KvConformanceHarness::Run(const std::vector<KvOp>& ops) {
  KvRun run(options_, ops);
  if (auto err = run.Open(); err.has_value()) {
    return err;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (auto err = run.Step(i); err.has_value()) {
      return err;
    }
  }
  return run.Finish();
}

KvRun::KvRun(const KvHarnessOptions& options, const std::vector<KvOp>& ops)
    : options_(options), ops_(ops), fail_("kv_conformance", ops, options.recorder) {
  fail_.set_capture([this](FlightRecord& record) {
    if (store_ != nullptr) {
      CaptureStore(*store_, record);
    }
    record.spans_json = spans_.ToJson();
  });
}

std::optional<std::string> KvRun::Open() {
  disk_ = options_.disk_factory ? options_.disk_factory(options_.geometry)
                                : std::make_unique<InMemoryDisk>(options_.geometry);
  if (disk_ == nullptr) {
    return "disk factory returned no disk";
  }
  auto store_or = ShardStore::Open(disk_.get(), options_.store);
  if (!store_or.ok()) {
    return "initial open failed: " + store_or.status().ToString();
  }
  store_ = std::move(store_or).value();
  return std::nullopt;
}

std::optional<std::string> KvRun::Sweep(size_t i, const char* when) {
  for (ShardId id : model_.TouchedKeys()) {
    if (auto err = CheckRead(id, model_.Get(id), store_->Get(id)); err.has_value()) {
      return fail_(i, std::string(when) + ": " + *err);
    }
  }
  return std::nullopt;
}

std::optional<std::string> KvRun::CheckForwardProgress(size_t i) {
  for (const auto& [op_index, dep] : dep_log_) {
    if (!dep.IsPersistent() && !dep.Failed()) {
      return fail_(i, "forward progress violated: dependency of op#" +
                          std::to_string(op_index) + " not persistent after clean shutdown");
    }
  }
  return std::nullopt;
}

std::optional<std::string> KvRun::RecoverFromCrash(size_t i) {
  store_.reset();
  // Power cut: a buffered backend loses writebacks the crash issued but whose covering
  // barrier never fired (no-op for the in-memory image).
  disk_->DropUnsynced();
  disk_->fault_injector().Clear();
  faults_armed_ = false;
  auto reopened = ShardStore::Open(disk_.get(), options_.store);
  if (!reopened.ok()) {
    return fail_(i, "crash recovery failed: " + reopened.status().ToString());
  }
  store_ = std::move(reopened).value();
  // Dependencies dropped by the crash legitimately never persist; forward progress
  // only constrains operations issued since the last crash.
  dep_log_.clear();
  // Persistence + consistency sweep (section 5): every touched key must surface a
  // crash-allowed value — at least the latest mutation whose dependency persisted
  // (persistence), never anything older (consistency). The model then adopts the
  // observed durable state as its new baseline.
  if (auto err = AdoptPostCrashSweep(model_, model_.TouchedKeys(),
                                     [this](ShardId id) { return store_->Get(id); })) {
    return fail_(i, *err);
  }
  return std::nullopt;
}

std::optional<std::string> KvRun::Step(size_t i) {
  const KvOp& op = ops_[i];
  switch (op.kind) {
    case KvOpKind::kGet: {
      Span span(&spans_, &store_->extents(), "harness.get");
      auto got = store_->Get(op.id, span.scope());
      if (!got.ok()) {
        span.set_status(got.code());
      }
      auto err = CheckRead(op.id, model_.Get(op.id), got,
                           [this](const Status& status) -> std::optional<std::string> {
                             if (status.code() == StatusCode::kIoError && faults_armed_) {
                               // Allowed to fail under injected faults, never allowed
                               // to return wrong data (section 4.4's relaxed check).
                               return std::nullopt;
                             }
                             return "unexpected error: " + status.ToString();
                           });
      if (err.has_value()) {
        return fail_(i, *err);
      }
      break;
    }
    case KvOpKind::kPut: {
      Span span(&spans_, &store_->extents(), "harness.put");
      auto dep_or = store_->Put(op.id, op.value, span.scope());
      if (!dep_or.ok()) {
        span.set_status(dep_or.code());
      }
      if (dep_or.ok()) {
        model_.Put(op.id, op.value, dep_or.value());
        dep_log_.push_back({i, dep_or.value()});
      } else if (IsLegallyFull(dep_or.status()) ||
                 (dep_or.code() == StatusCode::kIoError && faults_armed_)) {
        // Failed puts must be atomic no-ops; the model stays unchanged.
      } else {
        return fail_(i, "unexpected error: " + dep_or.status().ToString());
      }
      break;
    }
    case KvOpKind::kDelete: {
      Span span(&spans_, &store_->extents(), "harness.delete");
      auto dep_or = store_->Delete(op.id, span.scope());
      if (!dep_or.ok()) {
        span.set_status(dep_or.code());
      }
      if (dep_or.ok()) {
        model_.Delete(op.id, dep_or.value());
        dep_log_.push_back({i, dep_or.value()});
      } else if (dep_or.code() == StatusCode::kIoError && faults_armed_) {
      } else {
        return fail_(i, "unexpected error: " + dep_or.status().ToString());
      }
      break;
    }
    case KvOpKind::kPutBatch: {
      std::vector<StoreBatchItem> items;
      items.reserve(op.batch.size());
      for (const auto& [id, value] : op.batch) {
        items.push_back({id, value});
      }
      Span span(&spans_, &store_->extents(), "harness.put_batch");
      StoreBatchResult result = store_->ApplyBatch(items, span.scope());
      if (result.items.size() != op.batch.size()) {
        return fail_(i, "batch returned wrong item count");
      }
      for (size_t k = 0; k < result.items.size(); ++k) {
        const StoreBatchItemResult& item = result.items[k];
        if (item.status.ok()) {
          model_.Put(op.batch[k].first, op.batch[k].second, item.dep);
          dep_log_.push_back({i, item.dep});
        } else if (IsLegallyFull(item.status) ||
                   (item.status.code() == StatusCode::kIoError && faults_armed_)) {
          // A failed item must be an atomic no-op; the model stays unchanged.
        } else {
          return fail_(i, "batch item " + std::to_string(k) +
                              " unexpected error: " + item.status.ToString());
        }
      }
      break;
    }
    case KvOpKind::kScan: {
      Span span(&spans_, &store_->extents(), "harness.scan");
      auto got = store_->Scan(op.id, op.end, span.scope());
      if (!got.ok()) {
        span.set_status(got.code());
        if ((got.code() == StatusCode::kIoError || got.code() == StatusCode::kUnavailable) &&
            faults_armed_) {
          break;
        }
        return fail_(i, "unexpected error: " + got.status().ToString());
      }
      // Exact comparison against the ordered-map oracle: same keys, same order, same
      // values. After a DirtyReboot the model holds the adopted persisted state, so
      // this doubles as "a scan sees exactly the persisted prefix".
      std::vector<std::pair<ShardId, Bytes>> expected = model_.Scan(op.id, op.end);
      const std::vector<ScanItem>& impl = got.value();
      bool match = impl.size() == expected.size();
      for (size_t k = 0; match && k < impl.size(); ++k) {
        match = impl[k].id == expected[k].first && impl[k].value == expected[k].second;
      }
      if (!match) {
        return fail_(i, "scan disagrees with the ordered-map oracle (" +
                            std::to_string(impl.size()) + " items vs " +
                            std::to_string(expected.size()) + " expected)");
      }
      break;
    }
    case KvOpKind::kList: {
      auto listed = store_->List();
      if (!listed.ok()) {
        if ((listed.code() == StatusCode::kIoError ||
             listed.code() == StatusCode::kUnavailable) &&
            faults_armed_) {
          break;
        }
        return fail_(i, "unexpected error: " + listed.status().ToString());
      }
      std::vector<ShardId> impl = listed.value();
      std::vector<ShardId> expected = model_.List();
      std::sort(impl.begin(), impl.end());
      std::sort(expected.begin(), expected.end());
      if (impl != expected) {
        return fail_(i, "listing disagrees with the model");
      }
      break;
    }
    case KvOpKind::kPumpIo:
      store_->PumpIo(op.arg);
      break;
    case KvOpKind::kFlushIndex:
    case KvOpKind::kCompactIndex:
    case KvOpKind::kCompactLevel:
    case KvOpKind::kReclaim: {
      Status status;
      if (op.kind == KvOpKind::kFlushIndex) {
        status = store_->FlushIndex();
      } else if (op.kind == KvOpKind::kCompactIndex) {
        status = store_->CompactIndex();
      } else if (op.kind == KvOpKind::kCompactLevel) {
        status = store_->CompactIndexLevel(static_cast<int>(op.arg % 4));
      } else {
        // Candidates include the active extent: reclamation may legally target it
        // (pinning is the protection for in-flight chunks), and several crash
        // scenarios — e.g. the UUID-collision issue #10 — need exactly that.
        std::vector<ExtentId> candidates;
        for (ExtentId e : store_->extents().ExtentsOwnedBy(ExtentOwner::kChunkData)) {
          if (store_->extents().WritePointer(e) > 0) {
            candidates.push_back(e);
          }
        }
        if (candidates.empty()) {
          break;
        }
        status = store_->ReclaimExtent(candidates[op.arg % candidates.size()]);
      }
      if (!status.ok() && status.code() != StatusCode::kUnavailable &&
          !IsLegallyFull(status) &&
          !(status.code() == StatusCode::kIoError && faults_armed_)) {
        return fail_(i, "maintenance failed: " + status.ToString());
      }
      break;
    }
    case KvOpKind::kReboot: {
      Status status = store_->FlushAll();
      if (!status.ok()) {
        if (IsLegallyFull(status) ||
            (status.code() == StatusCode::kIoError && faults_armed_)) {
          break;  // legitimate inability to persist; skip the reboot
        }
        return fail_(i, "clean shutdown failed (forward progress): " + status.ToString());
      }
      // Forward-progress property: after a clean shutdown, every dependency persists.
      if (auto err = CheckForwardProgress(i); err.has_value()) {
        return err;
      }
      store_.reset();
      disk_->fault_injector().Clear();
      faults_armed_ = false;
      auto reopened = ShardStore::Open(disk_.get(), options_.store);
      if (!reopened.ok()) {
        return fail_(i, "recovery failed: " + reopened.status().ToString());
      }
      store_ = std::move(reopened).value();
      if (auto err = Sweep(i, "after clean reboot"); err.has_value()) {
        return err;
      }
      break;
    }
    case KvOpKind::kDirtyReboot: {
      Rng crash_rng(op.arg);
      // Coarse RebootType choice: sometimes flush the in-memory index section first,
      // so crash states interleave component flushes (section 5).
      if (crash_rng.Chance(0.35)) {
        (void)store_->FlushIndex();
      }
      store_->scheduler().Crash(crash_rng, /*persist_bias=*/0.6);
      if (auto err = RecoverFromCrash(i); err.has_value()) {
        return err;
      }
      break;
    }
    case KvOpKind::kFailReadOnce:
      // Burst sized to outlast the retry budget: one logical IO's worth of attempts
      // all fail, so the error surfaces (a smaller burst would be absorbed).
      disk_->fault_injector().FailReadTimes(op.arg % options_.geometry.extent_count,
                                            options_.store.retry.max_attempts);
      faults_armed_ = true;
      break;
    case KvOpKind::kFailWriteOnce:
      disk_->fault_injector().FailWriteTimes(op.arg % options_.geometry.extent_count,
                                             options_.store.retry.max_attempts);
      faults_armed_ = true;
      break;
  }

  // Invariant check after every op (Figure 3 line 24): the mapping agrees.
  if (!faults_armed_) {
    auto listed = store_->List();
    if (!listed.ok()) {
      return fail_(i, "post-op listing failed: " + listed.status().ToString());
    }
    std::vector<ShardId> impl = listed.value();
    std::vector<ShardId> expected = model_.List();
    std::sort(impl.begin(), impl.end());
    std::sort(expected.begin(), expected.end());
    if (impl != expected) {
      return fail_(i, "post-op key set disagrees with the model");
    }
  }
  return std::nullopt;
}

std::optional<std::string> KvRun::Finish() {
  Status status = store_->FlushAll();
  if (!status.ok()) {
    if (!IsLegallyFull(status) &&
        !(status.code() == StatusCode::kIoError && faults_armed_)) {
      return fail_(ops_.size(), "final shutdown failed: " + status.ToString());
    }
    return std::nullopt;
  }
  if (auto err = CheckForwardProgress(ops_.size()); err.has_value()) {
    return err;
  }
  return Sweep(ops_.size(), "final");
}

}  // namespace ss
