#include "src/harness/node_harness.h"

#include <algorithm>
#include <sstream>

#include "src/common/cover.h"
#include "src/harness/checks.h"

namespace ss {

namespace {

// The fault-aware error oracle: kUnavailable needs a service/health cause, and
// kIoError/kDiskFailed an armed injector, on a disk the operation touched.
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

// A control-plane result: success, the full rule, or a fault error with its cause.
std::optional<std::string> JudgeControl(const Status& status, bool gated, bool armed) {
  if (status.ok() || IsLegallyFull(status)) {
    return std::nullopt;
  }
  return JudgeFaultError(status, gated, armed);
}

bool Armed(NodeServer& node, int disk) { return node.disk(disk).fault_injector().AnyArmed(); }

RouteState RouteOf(NodeServer& node, ShardId id, bool mutating) {
  const int disk = node.DiskFor(id);
  const DiskHealth health = node.Health(disk);
  return {.in_service = node.InService(disk),
          .gated = health == DiskHealth::kFailed ||
                   (mutating && health == DiskHealth::kDegraded),
          .armed = Armed(node, disk)};
}

}  // namespace

std::optional<std::string> JudgeRequest(const Status& status, const RouteState& route,
                                        bool may_fill) {
  if (!route.in_service) {
    if (status.code() == StatusCode::kUnavailable) {
      return std::nullopt;
    }
    return "expected Unavailable for out-of-service disk, got " + status.ToString();
  }
  if (status.ok() || (may_fill && IsLegallyFull(status))) {
    return std::nullopt;
  }
  return JudgeFaultError(status, route.gated, route.armed);
}

std::string NodeOp::ToString() const {
  static const char* kNames[] = {"Get",          "Put",          "Delete",
                                 "List",         "PumpIo",       "FlushAll",
                                 "ClearFaults",  "ResetHealth",  "ArmTransRead",
                                 "ArmTransWrite", "ArmPermanent", "RemoveDisk",
                                 "RestoreDisk",  "Migrate",      "DegradeDisk",
                                 "EvacuateDisk", "CrashReboot",  "PutBatch"};
  std::ostringstream out;
  out << kNames[static_cast<int>(kind)];
  switch (kind) {
    case NodeOpKind::kGet:
    case NodeOpKind::kDelete:
      out << "(" << id << ")";
      break;
    case NodeOpKind::kPut:
      out << "(" << id << ", " << value.size() << "B)";
      break;
    case NodeOpKind::kPumpIo:
      out << "(disk " << disk << ", " << count << ")";
      break;
    case NodeOpKind::kClearFaults:
    case NodeOpKind::kResetHealth:
    case NodeOpKind::kRemoveDisk:
    case NodeOpKind::kRestoreDisk:
    case NodeOpKind::kDegradeDisk:
    case NodeOpKind::kEvacuateDisk:
      out << "(disk " << disk << ")";
      break;
    case NodeOpKind::kArmTransientRead:
    case NodeOpKind::kArmTransientWrite:
      out << "(disk " << disk << ", extent " << extent << ", x" << count << ")";
      break;
    case NodeOpKind::kArmPermanent:
      out << "(disk " << disk << ", extent " << extent << ")";
      break;
    case NodeOpKind::kMigrate:
      out << "(" << id << " -> disk " << disk << ")";
      break;
    case NodeOpKind::kCrashReboot:
      out << "(disk " << disk << ", seed " << seed << ")";
      break;
    case NodeOpKind::kPutBatch: {
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

NodeOp NodeConformanceHarness::Gen(Rng& rng, const std::vector<NodeOp>& prefix,
                                   const NodeHarnessOptions& options) {
  std::vector<uint32_t> weights = {/*Get*/ 20,     /*Put*/ 25,      /*Delete*/ 8,
                                   /*List*/ 6,     /*PumpIo*/ 5,    /*FlushAll*/ 5,
                                   /*Clear*/ 6,    /*ResetH*/ 4,    /*ArmRead*/ 9,
                                   /*ArmWrite*/ 9, /*ArmPerm*/ 3,   /*Remove*/ 8,
                                   /*Restore*/ 10, /*Migrate*/ 8,   /*Degrade*/ 4,
                                   /*Evacuate*/ 4, /*Crash*/ 5,     /*PutBatch*/ 10};
  NodeOp op;
  op.kind = static_cast<NodeOpKind>(rng.WeightedIndex(weights));
  std::vector<uint64_t> used;
  for (const NodeOp& prev : prefix) {
    if (prev.kind == NodeOpKind::kPut) {
      used.push_back(prev.id);
    }
    for (const auto& [batch_id, batch_value] : prev.batch) {
      used.push_back(batch_id);
    }
  }
  const uint32_t disk_count = static_cast<uint32_t>(options.node.disk_count);
  auto fill = [&](Bytes& value) {
    value.resize(rng.Below(options.max_value_bytes + 1));
    for (auto& b : value) {
      b = static_cast<uint8_t>(rng.Below(256));
    }
  };
  switch (op.kind) {
    case NodeOpKind::kGet:
      op.id = BiasedKey(rng, used, 0.75, options.key_bound);
      break;
    case NodeOpKind::kPut:
      op.id = BiasedKey(rng, used, 0.5, options.key_bound);
      fill(op.value);
      break;
    case NodeOpKind::kDelete:
      op.id = BiasedKey(rng, used, 0.8, options.key_bound);
      break;
    case NodeOpKind::kPumpIo:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      op.count = 1 + static_cast<uint32_t>(rng.Below(4));
      break;
    case NodeOpKind::kArmTransientRead:
    case NodeOpKind::kArmTransientWrite:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      // Extent 0 is the superblock; data lives above it.
      op.extent = 1 + static_cast<uint32_t>(rng.Below(options.node.geometry.extent_count - 1));
      // Burst lengths straddle the retry budget: about half are absorbed
      // transparently, the rest surface as kIoError.
      op.count = 1 + static_cast<uint32_t>(
                         rng.Below(2ull * options.node.store.retry.max_attempts));
      break;
    case NodeOpKind::kArmPermanent:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      op.extent = 1 + static_cast<uint32_t>(rng.Below(options.node.geometry.extent_count - 1));
      break;
    case NodeOpKind::kClearFaults:
    case NodeOpKind::kResetHealth:
    case NodeOpKind::kRemoveDisk:
    case NodeOpKind::kRestoreDisk:
    case NodeOpKind::kDegradeDisk:
    case NodeOpKind::kEvacuateDisk:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      break;
    case NodeOpKind::kMigrate:
      op.id = BiasedKey(rng, used, 0.85, options.key_bound);
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      break;
    case NodeOpKind::kCrashReboot:
      op.disk = static_cast<uint32_t>(rng.Below(disk_count));
      op.seed = rng.Next();
      break;
    case NodeOpKind::kPutBatch: {
      const size_t items = 2 + rng.Below(5);  // 2..6 items, spread across disks
      for (size_t k = 0; k < items; ++k) {
        Bytes value;
        fill(value);
        op.batch.emplace_back(BiasedKey(rng, used, 0.5, options.key_bound), std::move(value));
      }
      break;
    }
    default:
      break;
  }
  return op;
}

std::vector<NodeOp> NodeConformanceHarness::Shrink(const NodeOp& op) {
  std::vector<NodeOp> out;
  if (op.id > 0) {
    NodeOp smaller = op;
    smaller.id /= 2;
    out.push_back(smaller);
  }
  if (!op.value.empty()) {
    NodeOp shorter = op;
    shorter.value.resize(op.value.size() / 2);
    out.push_back(shorter);
  }
  if (op.count > 1) {
    NodeOp fewer = op;
    fewer.count /= 2;
    out.push_back(fewer);
  }
  if (op.batch.size() > 1) {
    // Halve the batch, and try the single-Put equivalent of its first item.
    NodeOp fewer = op;
    fewer.batch.resize(op.batch.size() / 2);
    out.push_back(fewer);
    NodeOp single;
    single.kind = NodeOpKind::kPut;
    single.id = op.batch.front().first;
    single.value = op.batch.front().second;
    out.push_back(single);
  }
  if (op.kind != NodeOpKind::kGet) {
    NodeOp get;
    get.kind = NodeOpKind::kGet;
    get.id = op.id;
    out.push_back(get);
  }
  return out;
}

std::optional<std::string> NodeConformanceHarness::Run(const std::vector<NodeOp>& ops) {
  Violations<NodeOp> fail("node_conformance", ops, options_.recorder);
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
  // A Get the harness issues: counted for the metric oracle, judged by CheckRead
  // against the model while the shard routes to an in-service disk.
  auto checked_get = [&](ShardId id) -> std::optional<std::string> {
    const RouteState route = RouteOf(*node, id, /*mutating=*/false);
    auto got = node->Get(id);
    ++gets_issued;
    if (!route.in_service) {
      return JudgeRequest(got.status(), route, /*may_fill=*/false);
    }
    return CheckRead(id, model.Get(id), got, [&](const Status& status) {
      return JudgeRequest(status, route, /*may_fill=*/false);
    });
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const NodeOp& op = ops[i];
    const int disk = static_cast<int>(op.disk);

    switch (op.kind) {
      case NodeOpKind::kGet:
        if (auto err = checked_get(op.id)) {
          return fail(i, *err);
        }
        break;
      case NodeOpKind::kPut: {
        const RouteState route = RouteOf(*node, op.id, /*mutating=*/true);
        auto dep_or = node->Put(op.id, op.value);
        ++puts_issued;
        // A failed mutation must be an atomic no-op; the model keeps the old value and
        // the final sweep (plus any later Get) checks that is what is served.
        if (auto err = JudgeRequest(dep_or.status(), route, /*may_fill=*/true)) {
          return fail(i, *err);
        }
        if (dep_or.ok()) {
          model.Put(op.id, op.value, dep_or.value().dep);
          dep_log.emplace_back(dep_or.value().disk, dep_or.value().dep);
        }
        break;
      }
      case NodeOpKind::kDelete: {
        const RouteState route = RouteOf(*node, op.id, /*mutating=*/true);
        auto dep_or = node->Delete(op.id);
        ++deletes_issued;
        if (auto err = JudgeRequest(dep_or.status(), route, /*may_fill=*/false)) {
          return fail(i, *err);
        }
        if (dep_or.ok()) {
          model.Delete(op.id, dep_or.value().dep);
          dep_log.emplace_back(dep_or.value().disk, dep_or.value().dep);
        }
        break;
      }
      case NodeOpKind::kList: {
        auto listed = node->ListShards();
        if (!listed.ok()) {
          return fail(i, "list failed: " + listed.status().ToString());
        }
        // Only shards on in-service disks are expected to appear.
        std::vector<ShardId> expected;
        for (ShardId id : model.List()) {
          if (node->InService(node->DiskFor(id))) {
            expected.push_back(id);
          }
        }
        std::vector<ShardId> impl = listed.value();
        std::sort(impl.begin(), impl.end());
        if (impl != expected) {
          return fail(i, "listing disagrees with model");
        }
        for (int d = 0; d < node->disk_count(); ++d) {
          if (!node->InService(d)) {
            SS_COVER("node_harness.list_with_disk_out");
            break;
          }
        }
        break;
      }
      case NodeOpKind::kPumpIo: {
        std::shared_ptr<ShardStore> target = node->store(disk);
        if (target != nullptr) {
          target->PumpIo(op.count);
        }
        break;
      }
      case NodeOpKind::kFlushAll: {
        // Flushing an index writes LSM metadata through the extent layer, so armed
        // faults on any disk can surface here too.
        bool any_armed = false;
        for (int d = 0; d < node->disk_count(); ++d) {
          any_armed = any_armed || Armed(*node, d);
        }
        if (auto err = JudgeControl(node->FlushAllDisks(), /*gated=*/false, any_armed)) {
          return fail(i, "flush: " + *err);
        }
        break;
      }
      case NodeOpKind::kClearFaults:
        node->disk(disk).fault_injector().Clear();
        break;
      case NodeOpKind::kResetHealth: {
        const bool gated = !node->InService(disk);
        if (auto err = JudgeControl(node->ResetDiskHealth(disk), gated, /*armed=*/false)) {
          return fail(i, "reset health: " + *err);
        }
        break;
      }
      case NodeOpKind::kArmTransientRead:
        node->disk(disk).fault_injector().FailReadTimes(op.extent, op.count);
        break;
      case NodeOpKind::kArmTransientWrite:
        node->disk(disk).fault_injector().FailWriteTimes(op.extent, op.count);
        break;
      case NodeOpKind::kArmPermanent:
        node->disk(disk).fault_injector().FailAlways(op.extent, true);
        break;
      case NodeOpKind::kRemoveDisk: {
        // Removal is a clean shutdown of the disk's store: it is refused only when the
        // disk is already out, and its flush may hit the disk's armed faults.
        const bool gated = !node->InService(disk);
        const bool armed = Armed(*node, disk);
        if (!gated && armed) {
          SS_COVER("node_harness.remove_with_fault_armed");
        }
        if (auto err = JudgeControl(node->RemoveDiskFromService(disk), gated, armed)) {
          return fail(i, "remove: " + *err);
        }
        break;
      }
      case NodeOpKind::kRestoreDisk: {
        const bool gated = node->InService(disk);
        const bool armed = Armed(*node, disk);
        if (!gated && armed) {
          SS_COVER("node_harness.restore_with_fault_armed");
        }
        if (auto err = JudgeControl(node->RestoreDisk(disk), gated, armed)) {
          return fail(i, "restore: " + *err);
        }
        break;
      }
      case NodeOpKind::kMigrate: {
        // A migration never changes the observable mapping: the shard must read back
        // with the model's value afterwards (the model is untouched). It is refused
        // when either disk is out of service, the source has failed, or the target is
        // not healthy; it reads the source and writes both disks.
        const int from = node->DiskFor(op.id);
        const bool gated = !node->InService(from) || !node->InService(disk) ||
                           node->Health(from) == DiskHealth::kFailed ||
                           (from != disk && node->Health(disk) != DiskHealth::kHealthy);
        const bool armed = Armed(*node, from) || Armed(*node, disk);
        const bool absent = !model.Get(op.id).has_value();
        Status status = node->MigrateShard(op.id, disk);
        if (status.code() == StatusCode::kNotFound && absent) {
          break;  // nothing to migrate
        }
        if (auto err = JudgeControl(status, gated, armed)) {
          return fail(i, "migrate: " + *err);
        }
        if (status.ok()) {
          if (auto err = checked_get(op.id)) {
            return fail(i, "after migration: " + *err);
          }
        }
        break;
      }
      case NodeOpKind::kDegradeDisk: {
        const bool gated = !node->InService(disk) || node->Health(disk) == DiskHealth::kFailed;
        if (auto err = JudgeControl(node->MarkDiskDegraded(disk), gated, /*armed=*/false)) {
          return fail(i, "degrade: " + *err);
        }
        break;
      }
      case NodeOpKind::kEvacuateDisk: {
        // Evacuation is best-effort under fire: it needs a readable source and a
        // healthy in-service peer, and may stop on a fault armed on the source or a
        // peer, or on full peers. Each migrated shard has already committed, so any
        // stop leaves the node consistent. The model is untouched either way; later
        // Gets check the data survived the moves.
        bool any_peer = false;
        bool armed = Armed(*node, disk);
        for (int d = 0; d < node->disk_count(); ++d) {
          if (d != disk && node->InService(d) && node->Health(d) == DiskHealth::kHealthy) {
            any_peer = true;
            armed = armed || Armed(*node, d);
          }
          if (d != disk && !node->InService(d)) {
            SS_COVER("node_harness.evacuate_with_peer_out");
          }
        }
        const bool gated = !node->InService(disk) ||
                           node->Health(disk) == DiskHealth::kFailed || !any_peer;
        if (auto err = JudgeControl(node->EvacuateDisk(disk), gated, armed)) {
          return fail(i, "evacuate: " + *err);
        }
        break;
      }
      case NodeOpKind::kCrashReboot: {
        // A disk that is out of service has no running controller to crash.
        if (!node->InService(disk)) {
          SS_COVER("node_harness.crash_out_of_service");
          if (auto err = JudgeControl(node->CrashAndRecoverDisk(disk, op.seed),
                                      /*gated=*/true, /*armed=*/false)) {
            return fail(i, "crash-reboot: " + *err);
          }
          break;
        }
        // Snapshot which touched keys the disk owns before the crash rewrites routing.
        std::vector<ShardId> owned;
        for (ShardId id : model.TouchedKeys()) {
          if (node->DiskFor(id) == disk) {
            owned.push_back(id);
          }
        }
        Status status = node->CrashAndRecoverDisk(disk, op.seed);
        if (!status.ok()) {
          return fail(i, "crash-reboot failed: " + status.ToString());
        }
        // The crashed scheduler dropped its pending writebacks: dependencies recorded
        // against this disk can never become persistent.
        dep_log.erase(std::remove_if(dep_log.begin(), dep_log.end(),
                                     [&](const auto& entry) { return entry.first == disk; }),
                      dep_log.end());
        // Collapse the model per owned key by what the recovered store holds (the
        // reboot cleared the injector and reset its health: the observation is clean).
        // The store, not the node: a key the crash lost has its entry dropped, and its
        // fallback placement may route to a disk whose health gates the read. Later Gets
        // check the node serves the adopted state.
        std::shared_ptr<ShardStore> recovered = node->store(disk);
        if (auto err = AdoptPostCrashSweep(model, owned,
                                           [&](ShardId id) { return recovered->Get(id); })) {
          return fail(i, *err);
        }
        break;
      }
      case NodeOpKind::kPutBatch: {
        // Capture each item's routing and gating state before the call: the oracle is
        // per item, exactly as for a single Put.
        std::vector<RouteState> pre;
        pre.reserve(op.batch.size());
        for (const auto& [id, value] : op.batch) {
          pre.push_back(RouteOf(*node, id, /*mutating=*/true));
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
          if (auto err = JudgeRequest(item.status, pre[k], /*may_fill=*/true)) {
            return fail(i, "batch item " + std::to_string(k) + " " + *err);
          }
          if (item.status.ok()) {
            model.Put(op.batch[k].first, op.batch[k].second, item.dep);
            dep_log.emplace_back(item.disk, item.dep);
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
  // With every fault cleared, every disk in service and health reset, read errors are
  // forward-progress violations outright.
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
