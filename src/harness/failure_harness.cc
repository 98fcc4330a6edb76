#include "src/harness/failure_harness.h"

#include <algorithm>
#include <sstream>

#include "src/harness/checks.h"

namespace ss {

namespace {

// The fault-aware error oracle for one request-plane result: kUnavailable needs a
// service/health cause on the routed disk, kIoError/kDiskFailed an armed injector.
std::optional<std::string> JudgeFaultError(const Status& status, bool gated, bool armed) {
  if (status.code() == StatusCode::kUnavailable) {
    if (gated) {
      return std::nullopt;
    }
    return std::string("Unavailable without a service/health cause");
  }
  if (status.code() == StatusCode::kIoError || status.code() == StatusCode::kDiskFailed) {
    if (armed) {
      return std::nullopt;
    }
    return "IO error with no fault armed: " + status.ToString();
  }
  return "unexpected error: " + status.ToString();
}

}  // namespace

std::string FailureOp::ToString() const {
  static const char* kNames[] = {"Get",          "Put",          "Delete",
                                 "PumpIo",       "FlushAll",     "ClearFaults",
                                 "ResetHealth",  "ArmTransRead", "ArmTransWrite",
                                 "ArmPermanent", "DegradeDisk",  "EvacuateDisk",
                                 "CrashReboot",  "PutBatch"};
  std::ostringstream out;
  out << kNames[static_cast<int>(kind)];
  switch (kind) {
    case FailureOpKind::kGet:
    case FailureOpKind::kDelete:
      out << "(" << id << ")";
      break;
    case FailureOpKind::kPut:
      out << "(" << id << ", " << value.size() << "B)";
      break;
    case FailureOpKind::kPumpIo:
      out << "(disk " << disk << ", " << count << ")";
      break;
    case FailureOpKind::kClearFaults:
    case FailureOpKind::kResetHealth:
    case FailureOpKind::kDegradeDisk:
    case FailureOpKind::kEvacuateDisk:
      out << "(disk " << disk << ")";
      break;
    case FailureOpKind::kArmTransientRead:
    case FailureOpKind::kArmTransientWrite:
      out << "(disk " << disk << ", extent " << extent << ", x" << count << ")";
      break;
    case FailureOpKind::kArmPermanent:
      out << "(disk " << disk << ", extent " << extent << ")";
      break;
    case FailureOpKind::kCrashReboot:
      out << "(disk " << disk << ", seed " << seed << ")";
      break;
    case FailureOpKind::kPutBatch: {
      out << "(";
      for (size_t i = 0; i < batch.size(); ++i) {
        out << (i > 0 ? ", " : "") << batch[i].first << ":" << batch[i].second.size() << "B";
      }
      out << ")";
      break;
    }
    default:
      break;
  }
  return out.str();
}

FailureOp FailureConformanceHarness::Gen(Rng& rng, const std::vector<FailureOp>& prefix,
                                         const FailureHarnessOptions& options) {
  std::vector<uint32_t> weights = {/*Get*/ 20,      /*Put*/ 25,      /*Delete*/ 8,
                                   /*PumpIo*/ 5,    /*FlushAll*/ 5,  /*Clear*/ 6,
                                   /*ResetH*/ 4,    /*ArmRead*/ 9,   /*ArmWrite*/ 9,
                                   /*ArmPerm*/ 3,   /*Degrade*/ 4,   /*Evacuate*/ 4,
                                   /*Crash*/ 5,     /*PutBatch*/ 10};
  FailureOp op;
  op.kind = static_cast<FailureOpKind>(rng.WeightedIndex(weights));
  std::vector<uint64_t> used;
  for (const FailureOp& prev : prefix) {
    if (prev.kind == FailureOpKind::kPut) {
      used.push_back(prev.id);
    }
    for (const auto& [batch_id, batch_value] : prev.batch) {
      used.push_back(batch_id);
    }
  }
  const uint32_t disk_count = static_cast<uint32_t>(options.node.disk_count);
  switch (op.kind) {
    case FailureOpKind::kGet:
      op.id = BiasedKey(rng, used, 0.75, options.key_bound);
      break;
    case FailureOpKind::kPut: {
      op.id = BiasedKey(rng, used, 0.5, options.key_bound);
      op.value.resize(rng.Below(options.max_value_bytes + 1));
      for (auto& b : op.value) {
        b = static_cast<uint8_t>(rng.Below(256));
      }
      break;
    }
    case FailureOpKind::kDelete:
      op.id = BiasedKey(rng, used, 0.8, options.key_bound);
      break;
    case FailureOpKind::kPumpIo:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      op.count = 1 + static_cast<uint32_t>(rng.Below(4));
      break;
    case FailureOpKind::kArmTransientRead:
    case FailureOpKind::kArmTransientWrite:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      // Extent 0 is the superblock; data lives above it.
      op.extent = 1 + static_cast<uint32_t>(rng.Below(options.node.geometry.extent_count - 1));
      // Burst lengths straddle the retry budget: about half are absorbed
      // transparently, the rest surface as kIoError.
      op.count = 1 + static_cast<uint32_t>(
                         rng.Below(2ull * options.node.store.retry.max_attempts));
      break;
    case FailureOpKind::kArmPermanent:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      op.extent = 1 + static_cast<uint32_t>(rng.Below(options.node.geometry.extent_count - 1));
      break;
    case FailureOpKind::kClearFaults:
    case FailureOpKind::kResetHealth:
    case FailureOpKind::kDegradeDisk:
    case FailureOpKind::kEvacuateDisk:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      break;
    case FailureOpKind::kCrashReboot:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      op.seed = rng.Next();
      break;
    case FailureOpKind::kPutBatch: {
      const size_t items = 2 + rng.Below(5);  // 2..6 items, spread across disks
      for (size_t k = 0; k < items; ++k) {
        Bytes value(rng.Below(options.max_value_bytes + 1));
        for (auto& b : value) {
          b = static_cast<uint8_t>(rng.Below(256));
        }
        op.batch.emplace_back(BiasedKey(rng, used, 0.5, options.key_bound), std::move(value));
      }
      break;
    }
    default:
      break;
  }
  return op;
}

std::vector<FailureOp> FailureConformanceHarness::Shrink(const FailureOp& op) {
  std::vector<FailureOp> out;
  if (op.id > 0) {
    FailureOp smaller = op;
    smaller.id /= 2;
    out.push_back(smaller);
  }
  if (!op.value.empty()) {
    FailureOp shorter = op;
    shorter.value.resize(op.value.size() / 2);
    out.push_back(shorter);
  }
  if (op.count > 1) {
    FailureOp fewer = op;
    fewer.count /= 2;
    out.push_back(fewer);
  }
  if (op.batch.size() > 1) {
    // Halve the batch, and try the single-Put equivalent of its first item.
    FailureOp fewer = op;
    fewer.batch.resize(op.batch.size() / 2);
    out.push_back(fewer);
    FailureOp single;
    single.kind = FailureOpKind::kPut;
    single.id = op.batch.front().first;
    single.value = op.batch.front().second;
    out.push_back(single);
  }
  if (op.kind != FailureOpKind::kGet) {
    FailureOp get;
    get.kind = FailureOpKind::kGet;
    get.id = op.id;
    out.push_back(get);
  }
  return out;
}

std::optional<std::string> FailureConformanceHarness::Run(const std::vector<FailureOp>& ops) {
  Violations<FailureOp> fail("failure_conformance", ops, options_.recorder);
  auto node_or = NodeServer::Create(options_.node);
  if (!node_or.ok()) {
    return "node create failed: " + node_or.status().ToString();
  }
  std::unique_ptr<NodeServer> node = std::move(node_or).value();
  fail.set_capture([&node](FlightRecord& record) { CaptureNode(*node, record); });
  // Metric oracle: every request-plane call this harness issues must show up as
  // exactly one rpc.<op>.{ok,err} increment and exactly one span.rpc.<op>.ticks
  // sample. Counted locally, checked against snapshot deltas at the end.
  const MetricsSnapshot metrics_before = node->MetricsSnapshot();
  uint64_t puts_issued = 0;
  uint64_t gets_issued = 0;
  uint64_t deletes_issued = 0;
  uint64_t batches_issued = 0;
  uint64_t batch_items_issued = 0;
  KvStoreModel model;
  // Forward-progress log: (owning disk at op time, dependency). Entries for a disk are
  // dropped when that disk crash-reboots — their writebacks died with the scheduler.
  std::vector<std::pair<int, Dependency>> dep_log;

  for (size_t i = 0; i < ops.size(); ++i) {
    const FailureOp& op = ops[i];
    // The fault-aware oracle for request-plane ops: what failures does the pre-op
    // state license for the disk this shard routes to?
    const int routed = node->DiskFor(op.id);
    const DiskHealth pre_health = node->Health(routed);
    const bool armed = node->disk(routed).fault_injector().AnyArmed();
    const bool read_gated = !node->InService(routed) || pre_health == DiskHealth::kFailed;
    const bool write_gated = read_gated || pre_health == DiskHealth::kDegraded;

    switch (op.kind) {
      case FailureOpKind::kGet: {
        auto got = node->Get(op.id);
        ++gets_issued;
        auto err = CheckRead(op.id, model.Get(op.id), got, [&](const Status& status) {
          return JudgeFaultError(status, read_gated, armed);
        });
        if (err.has_value()) {
          return fail(i, *err);
        }
        break;
      }
      case FailureOpKind::kPut: {
        auto dep_or = node->Put(op.id, op.value);
        ++puts_issued;
        if (dep_or.ok()) {
          model.Put(op.id, op.value, dep_or.value().dep);
          dep_log.emplace_back(routed, dep_or.value().dep);
        } else if (dep_or.code() != StatusCode::kResourceExhausted) {
          // A failed mutation must be an atomic no-op; the model keeps the old value
          // and the final sweep (plus any later Get) checks that is what is served.
          if (auto err = JudgeFaultError(dep_or.status(), write_gated, armed)) {
            return fail(i, *err);
          }
        }
        break;
      }
      case FailureOpKind::kDelete: {
        auto dep_or = node->Delete(op.id);
        ++deletes_issued;
        if (dep_or.ok()) {
          model.Delete(op.id, dep_or.value().dep);
          dep_log.emplace_back(routed, dep_or.value().dep);
        } else if (auto err = JudgeFaultError(dep_or.status(), write_gated, armed)) {
          return fail(i, *err);
        }
        break;
      }
      case FailureOpKind::kPumpIo: {
        std::shared_ptr<ShardStore> target = node->store(static_cast<int>(op.disk));
        if (target != nullptr) {
          target->PumpIo(op.count);
        }
        break;
      }
      case FailureOpKind::kFlushAll: {
        // Flushing an index writes LSM metadata through the extent layer, so armed
        // faults on any disk can surface here too.
        bool any_armed = false;
        for (int d = 0; d < node->disk_count(); ++d) {
          any_armed = any_armed || node->disk(d).fault_injector().AnyArmed();
        }
        Status status = node->FlushAllDisks();
        if (!status.ok() && status.code() != StatusCode::kResourceExhausted &&
            !(any_armed && (status.code() == StatusCode::kIoError ||
                            status.code() == StatusCode::kDiskFailed))) {
          return fail(i, "flush failed: " + status.ToString());
        }
        break;
      }
      case FailureOpKind::kClearFaults:
        node->disk(static_cast<int>(op.disk)).fault_injector().Clear();
        break;
      case FailureOpKind::kResetHealth: {
        Status status = node->ResetDiskHealth(static_cast<int>(op.disk));
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          return fail(i, "reset health failed: " + status.ToString());
        }
        break;
      }
      case FailureOpKind::kArmTransientRead:
        node->disk(static_cast<int>(op.disk))
            .fault_injector()
            .FailReadTimes(op.extent, op.count);
        break;
      case FailureOpKind::kArmTransientWrite:
        node->disk(static_cast<int>(op.disk))
            .fault_injector()
            .FailWriteTimes(op.extent, op.count);
        break;
      case FailureOpKind::kArmPermanent:
        node->disk(static_cast<int>(op.disk)).fault_injector().FailAlways(op.extent, true);
        break;
      case FailureOpKind::kDegradeDisk: {
        Status status = node->MarkDiskDegraded(static_cast<int>(op.disk));
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          return fail(i, "degrade failed: " + status.ToString());
        }
        break;
      }
      case FailureOpKind::kEvacuateDisk: {
        // Evacuation is best-effort under fire: it may abort on injected faults
        // (kIoError/kDiskFailed), a gated source, or full peers — each migrated shard
        // has already committed, so any abort leaves the node consistent. The model is
        // untouched either way; later Gets check the data survived the moves.
        Status status = node->EvacuateDisk(static_cast<int>(op.disk));
        if (!status.ok() && status.code() != StatusCode::kUnavailable &&
            status.code() != StatusCode::kIoError &&
            status.code() != StatusCode::kDiskFailed &&
            status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "evacuate failed: " + status.ToString());
        }
        break;
      }
      case FailureOpKind::kCrashReboot: {
        // Snapshot which touched keys the disk owns before the crash rewrites routing.
        std::vector<ShardId> owned;
        for (ShardId id : model.TouchedKeys()) {
          if (node->DiskFor(id) == static_cast<int>(op.disk)) {
            owned.push_back(id);
          }
        }
        Status status = node->CrashAndRecoverDisk(static_cast<int>(op.disk), op.seed);
        if (!status.ok()) {
          return fail(i, "crash-reboot failed: " + status.ToString());
        }
        // The crashed scheduler dropped its pending writebacks: dependencies recorded
        // against this disk can never become persistent.
        dep_log.erase(std::remove_if(dep_log.begin(), dep_log.end(),
                                     [&](const auto& entry) {
                                       return entry.first == static_cast<int>(op.disk);
                                     }),
                      dep_log.end());
        // Collapse the model per owned key by the persistence property (injector was
        // cleared by the reboot, health is back to healthy: the observation is clean).
        for (ShardId id : owned) {
          auto got = node->Get(id);
          ++gets_issued;
          std::optional<Bytes> observed;
          if (got.ok()) {
            observed = got.value().value;
          } else if (got.code() != StatusCode::kNotFound) {
            return fail(i, "post-crash key " + std::to_string(id) +
                               " unobservable: " + got.status().ToString());
          }
          if (!model.AdoptPostCrash(id, observed)) {
            return fail(i, "crash consistency violation on key " + std::to_string(id));
          }
        }
        break;
      }
      case FailureOpKind::kPutBatch: {
        // Capture each item's routing and gating state before the call: the fault
        // oracle is per item, exactly as for a single Put.
        struct ItemState {
          int routed = -1;
          bool write_gated = false;
          bool armed = false;
        };
        std::vector<ItemState> pre(op.batch.size());
        for (size_t k = 0; k < op.batch.size(); ++k) {
          ItemState& st = pre[k];
          st.routed = node->DiskFor(op.batch[k].first);
          const DiskHealth h = node->Health(st.routed);
          st.write_gated = !node->InService(st.routed) || h == DiskHealth::kFailed ||
                           h == DiskHealth::kDegraded;
          st.armed = node->disk(st.routed).fault_injector().AnyArmed();
        }
        BatchResult batch = node->PutBatch(op.batch);
        ++batches_issued;
        batch_items_issued += op.batch.size();
        if (batch.items.size() != op.batch.size()) {
          return fail(i, "batch returned " + std::to_string(batch.items.size()) +
                             " results for " + std::to_string(op.batch.size()) + " items");
        }
        for (size_t k = 0; k < batch.items.size(); ++k) {
          const BatchItemResult& item = batch.items[k];
          if (item.status.ok()) {
            model.Put(op.batch[k].first, op.batch[k].second, item.dep);
            dep_log.emplace_back(item.disk, item.dep);
          } else if (item.status.code() != StatusCode::kResourceExhausted) {
            if (auto err = JudgeFaultError(item.status, pre[k].write_gated, pre[k].armed)) {
              return fail(i, "batch item " + std::to_string(k) + " " + *err);
            }
          }
        }
        break;
      }
    }
  }

  // --- Forward progress: all faults clear, everything must work again. ---------------
  for (int d = 0; d < node->disk_count(); ++d) {
    node->disk(d).fault_injector().Clear();
  }
  for (int d = 0; d < node->disk_count(); ++d) {
    if (!node->InService(d)) {
      if (Status status = node->RestoreDisk(d); !status.ok()) {
        return fail(ops.size(), "final restore of disk " + std::to_string(d) +
                                    " failed: " + status.ToString());
      }
    }
    // Reset unconditionally: even when the node-level health still reads healthy, the
    // store's tracker may hold a stale degraded/failed verdict (e.g. a flush hit a
    // permanent fault with no request-plane op afterwards to absorb it), and the first
    // sweep read would absorb it and gate the disk.
    if (Status status = node->ResetDiskHealth(d); !status.ok()) {
      return fail(ops.size(), "final health reset of disk " + std::to_string(d) +
                                  " failed: " + status.ToString());
    }
  }
  if (Status status = node->FlushAllDisks(); !status.ok()) {
    return fail(ops.size(), "final flush failed: " + status.ToString());
  }
  for (const auto& [disk, dep] : dep_log) {
    if (!dep.IsPersistent()) {
      return fail(ops.size(), "forward progress: dependency on disk " + std::to_string(disk) +
                                  " not persistent after faults cleared and all disks flushed");
    }
  }
  // With every fault cleared and health reset, read errors are forward-progress
  // violations outright.
  for (ShardId id : model.TouchedKeys()) {
    auto got = node->Get(id);
    ++gets_issued;
    if (auto err = CheckRead(id, model.Get(id), got); err.has_value()) {
      return fail(ops.size(), "final sweep: " + *err);
    }
  }

  // --- Metric oracle: snapshot deltas must agree with the op count. ------------------
  const MetricsSnapshot metrics_after = node->MetricsSnapshot();
  const uint64_t put_delta = CounterDelta(metrics_before, metrics_after, "rpc.put.ok") +
                             CounterDelta(metrics_before, metrics_after, "rpc.put.err");
  const uint64_t get_delta = CounterDelta(metrics_before, metrics_after, "rpc.get.ok") +
                             CounterDelta(metrics_before, metrics_after, "rpc.get.err");
  const uint64_t delete_delta =
      CounterDelta(metrics_before, metrics_after, "rpc.delete.ok") +
      CounterDelta(metrics_before, metrics_after, "rpc.delete.err");
  if (put_delta != puts_issued || get_delta != gets_issued || delete_delta != deletes_issued) {
    return fail(
        ops.size(),
        "metric oracle: rpc counter deltas put=" + std::to_string(put_delta) + "/" +
        std::to_string(puts_issued) + " get=" + std::to_string(get_delta) + "/" +
        std::to_string(gets_issued) + " delete=" + std::to_string(delete_delta) + "/" +
        std::to_string(deletes_issued) + " disagree with ops issued");
  }
  // Batched puts count in their own counters (never in rpc.put.*): one rpc.batch.puts
  // per call and exactly one item_ok/item_err per item.
  const uint64_t batch_delta = CounterDelta(metrics_before, metrics_after, "rpc.batch.puts");
  const uint64_t batch_item_delta =
      CounterDelta(metrics_before, metrics_after, "rpc.batch.item_ok") +
      CounterDelta(metrics_before, metrics_after, "rpc.batch.item_err");
  if (batch_delta != batches_issued || batch_item_delta != batch_items_issued) {
    return fail(
        ops.size(),
        "metric oracle: batch counter deltas batches=" + std::to_string(batch_delta) + "/" +
        std::to_string(batches_issued) + " items=" + std::to_string(batch_item_delta) + "/" +
        std::to_string(batch_items_issued) + " disagree with ops issued");
  }
  // Every request-plane op opens exactly one root span, and every ended span feeds its
  // span.<name>.ticks histogram even after the ring has wrapped past its record.
  const std::pair<std::string_view, uint64_t> root_spans[] = {
      {"span.rpc.put.ticks", puts_issued},
      {"span.rpc.get.ticks", gets_issued},
      {"span.rpc.delete.ticks", deletes_issued},
      {"span.rpc.put_batch.ticks", batches_issued}};
  for (const auto& [name, issued] : root_spans) {
    const uint64_t recorded =
        metrics_after.histogram_count(name) - metrics_before.histogram_count(name);
    if (recorded != issued) {
      return fail(ops.size(), "metric oracle: " + std::string(name) + " recorded " +
                                  std::to_string(recorded) + " spans for " +
                                  std::to_string(issued) + " ops issued");
    }
  }
  return std::nullopt;
}

}  // namespace ss
