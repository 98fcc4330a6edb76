#include "src/harness/cluster_harness.h"

#include <algorithm>
#include <sstream>

#include "src/harness/checks.h"
#include "src/mc/linearizability.h"
#include "src/mc/mc.h"

namespace ss {

std::string ClusterOp::ToString() const {
  static const char* kNames[] = {"Get",      "Put",       "Delete",        "Tick",
                                 "HealAll",  "HealLink",  "RestartNode",   "PartitionLink",
                                 "CrashNode", "NodeJoin", "NodeLeave"};
  std::ostringstream out;
  out << kNames[static_cast<int>(kind)];
  auto endpoint = [](int slot) {
    return slot < 0 ? std::string("client") : "n" + std::to_string(slot);
  };
  switch (kind) {
    case ClusterOpKind::kGet:
    case ClusterOpKind::kDelete:
      out << "(" << key << ")";
      break;
    case ClusterOpKind::kPut:
      out << "(" << key << ", " << value.size() << "B)";
      break;
    case ClusterOpKind::kTick:
      out << "(x" << count << ")";
      break;
    case ClusterOpKind::kHealLink:
    case ClusterOpKind::kPartitionLink:
      out << "(" << endpoint(a) << ", " << endpoint(b) << ")";
      break;
    case ClusterOpKind::kRestartNode:
    case ClusterOpKind::kCrashNode:
    case ClusterOpKind::kNodeLeave:
      out << "(" << endpoint(a) << ")";
      break;
    default:
      break;
  }
  return out.str();
}

// --- ClusterModel ---------------------------------------------------------------------

void ClusterModel::Adopt(ShardId key, const Record& record) {
  Record& slot = committed_[key];
  if (slot.version <= record.version) {
    slot = record;
  }
  auto it = uncertain_.find(key);
  if (it != uncertain_.end()) {
    auto& writes = it->second;
    for (auto u = writes.begin(); u != writes.end() && u->first <= slot.version;) {
      u = writes.erase(u);
    }
    if (writes.empty()) {
      uncertain_.erase(it);
    }
  }
}

void ClusterModel::OnWriteAck(ShardId key, uint64_t version, bool tombstone,
                              const Bytes& value) {
  Adopt(key, Record{version, tombstone, value});
}

void ClusterModel::OnWriteFail(ShardId key, uint64_t version, bool tombstone,
                               const Bytes& value) {
  auto it = committed_.find(key);
  const uint64_t floor = it != committed_.end() ? it->second.version : 0;
  if (version > floor) {
    uncertain_[key][version] = Record{version, tombstone, value};
  }
}

std::optional<std::string> ClusterModel::OnRead(ShardId key, bool found, uint64_t version,
                                                const Bytes& value) {
  const Record* committed = Committed(key);
  if (version == 0) {
    if (found) {
      return "read claims a record at version 0";
    }
    if (committed != nullptr) {
      return "committed version " + std::to_string(committed->version) +
             " lost: read saw no record at all";
    }
    return std::nullopt;  // nothing ever committed; absence is the legal floor
  }
  if (committed != nullptr && version < committed->version) {
    return "stale read: served version " + std::to_string(version) +
           " below committed version " + std::to_string(committed->version);
  }
  if (committed != nullptr && version == committed->version) {
    if (found == committed->tombstone) {
      return "read at committed version " + std::to_string(version) +
             " disagrees on key presence";
    }
    if (found && value != committed->value) {
      return "wrong bytes served for committed version " + std::to_string(version);
    }
    return std::nullopt;
  }
  const Record* u = Uncertain(key, version);
  if (u == nullptr) {
    return "phantom version " + std::to_string(version) + ": no write produced it";
  }
  if (found == u->tombstone) {
    return "read at uncertain version " + std::to_string(version) +
           " disagrees on key presence";
  }
  if (found && value != u->value) {
    return "wrong bytes served for uncertain version " + std::to_string(version);
  }
  // The partial write surfaced; from here on it is the floor (the coordinator
  // re-established quorum overlap before serving it).
  const Record adopted = *u;
  Adopt(key, adopted);
  return std::nullopt;
}

const ClusterModel::Record* ClusterModel::Committed(ShardId key) const {
  auto it = committed_.find(key);
  return it == committed_.end() ? nullptr : &it->second;
}

const ClusterModel::Record* ClusterModel::Uncertain(ShardId key, uint64_t version) const {
  auto it = uncertain_.find(key);
  if (it == uncertain_.end()) {
    return nullptr;
  }
  auto u = it->second.find(version);
  return u == it->second.end() ? nullptr : &u->second;
}

std::vector<ShardId> ClusterModel::TouchedKeys() const {
  std::vector<ShardId> out;
  for (const auto& [key, record] : committed_) {
    out.push_back(key);
  }
  for (const auto& [key, writes] : uncertain_) {
    if (committed_.count(key) == 0) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Generation / shrinking -----------------------------------------------------------

ClusterOp ClusterConformanceHarness::Gen(Rng& rng, const std::vector<ClusterOp>& prefix,
                                         const ClusterHarnessOptions& options) {
  std::vector<uint32_t> weights = {/*Get*/ 22,     /*Put*/ 26,      /*Delete*/ 8,
                                   /*Tick*/ 10,    /*HealAll*/ 4,   /*HealLink*/ 4,
                                   /*Restart*/ 5,  /*Partition*/ 8, /*Crash*/ 5,
                                   /*Join*/ 4,     /*Leave*/ 4};
  ClusterOp op;
  op.kind = static_cast<ClusterOpKind>(rng.WeightedIndex(weights));
  std::vector<uint64_t> used;
  for (const ClusterOp& prev : prefix) {
    if (prev.kind == ClusterOpKind::kPut) {
      used.push_back(prev.key);
    }
  }
  switch (op.kind) {
    case ClusterOpKind::kGet:
      op.key = BiasedKey(rng, used, 0.75, options.key_bound);
      break;
    case ClusterOpKind::kPut: {
      op.key = BiasedKey(rng, used, 0.5, options.key_bound);
      op.value.resize(rng.Below(options.max_value_bytes + 1));
      for (auto& b : op.value) {
        b = static_cast<uint8_t>(rng.Below(256));
      }
      break;
    }
    case ClusterOpKind::kDelete:
      op.key = BiasedKey(rng, used, 0.8, options.key_bound);
      break;
    case ClusterOpKind::kTick:
      op.count = 1 + static_cast<uint32_t>(rng.Below(3));
      break;
    case ClusterOpKind::kHealLink:
    case ClusterOpKind::kPartitionLink:
      // Slot -1 targets the coordinator's own links: client-side partitions are the
      // split-brain-routing corner and deserve their share of the alphabet.
      op.a = rng.Chance(0.4) ? -1 : static_cast<int>(rng.Below(8));
      op.b = static_cast<int>(rng.Below(8));
      break;
    case ClusterOpKind::kRestartNode:
    case ClusterOpKind::kCrashNode:
    case ClusterOpKind::kNodeLeave:
      op.a = static_cast<int>(rng.Below(8));
      break;
    default:
      break;
  }
  return op;
}

std::vector<ClusterOp> ClusterConformanceHarness::Shrink(const ClusterOp& op) {
  std::vector<ClusterOp> out;
  if (op.key > 0) {
    ClusterOp smaller = op;
    smaller.key /= 2;
    out.push_back(smaller);
  }
  if (!op.value.empty()) {
    ClusterOp shorter = op;
    shorter.value.resize(op.value.size() / 2);
    out.push_back(shorter);
  }
  if (op.count > 1) {
    ClusterOp fewer = op;
    fewer.count /= 2;
    out.push_back(fewer);
  }
  if (op.a > 0 || op.b > 0) {
    ClusterOp lower = op;
    lower.a = op.a > 0 ? op.a / 2 : op.a;
    lower.b = op.b / 2;
    out.push_back(lower);
  }
  if (op.kind != ClusterOpKind::kGet) {
    ClusterOp get;
    get.kind = ClusterOpKind::kGet;
    get.key = op.key;
    out.push_back(get);
  }
  return out;
}

// --- Conformance run ------------------------------------------------------------------

namespace {

// Bound on post-sequence maintenance rounds for the hint/pending drain.
constexpr uint64_t kMaxDrainRounds = 16;

int ResolveSlot(const std::vector<int>& members, int slot) {
  if (slot < 0 || members.empty()) {
    return cluster::ClusterNet::kClientId;
  }
  return members[static_cast<size_t>(slot) % members.size()];
}

// Is any fault channel active that can legally fail a client op right now?
bool FaultsPossible(cluster::ClusterCoordinator& cluster,
                    const ClusterHarnessOptions& options) {
  const cluster::ClusterNetOptions& net = options.cluster.net;
  if (net.drop_rate > 0.0) {
    return true;  // the loss channel never sleeps
  }
  if (options.cluster.op_timeout_ticks > 0 &&
      net.base_delay_ticks + net.delay_jitter_ticks > options.cluster.op_timeout_ticks) {
    return true;  // deliveries can time out on delay alone
  }
  if (cluster.net().partitioned_link_count() > 0 || cluster.PendingKeyCount() > 0) {
    return true;
  }
  for (const int id : cluster.Nodes()) {
    if (cluster.net().Crashed(id) ||
        cluster.HealthOf(id) != cluster::NodeHealth::kHealthy) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<std::string> ClusterConformanceHarness::Run(const std::vector<ClusterOp>& ops) {
  Violations<ClusterOp> fail("cluster_quorum", ops, options_.recorder);
  auto cluster_or = cluster::ClusterCoordinator::Create(options_.cluster);
  if (!cluster_or.ok()) {
    return "cluster create failed: " + cluster_or.status().ToString();
  }
  std::unique_ptr<cluster::ClusterCoordinator> cluster = std::move(cluster_or).value();
  const MetricsSnapshot metrics_before = cluster->MetricsSnapshot();
  uint64_t puts_issued = 0;
  uint64_t gets_issued = 0;
  uint64_t deletes_issued = 0;
  uint64_t last_trace_id = 0;  // root span id of the most recent client op
  ClusterModel model;

  fail.set_capture([&](FlightRecord& record) {
    record.metrics_json = cluster->MetricsSnapshot().ToJson();
    record.spans_json = cluster->spans().ToJson();
    record.cluster_json = cluster->ClusterSnapshotJson();
    if (last_trace_id != 0) {
      record.cluster_trace_json = cluster->AssembleTrace(last_trace_id).ToJson();
    }
  });

  for (size_t i = 0; i < ops.size(); ++i) {
    const ClusterOp& op = ops[i];
    // Pre-op snapshot: the legality oracle judges a failure by the fault state the op
    // started under, not by whatever the op itself changed.
    const bool faults = FaultsPossible(*cluster, options_);
    const std::vector<int> members = cluster->Nodes();
    switch (op.kind) {
      case ClusterOpKind::kGet: {
        const cluster::QuorumResult r = cluster->Get(op.key);
        ++gets_issued;
        last_trace_id = r.trace_id;
        if (r.status.ok() || r.status.code() == StatusCode::kNotFound) {
          if (auto err = model.OnRead(op.key, r.found, r.version, r.value)) {
            return fail(i, *err);
          }
        } else if (r.status.code() == StatusCode::kUnavailable ||
                   r.status.code() == StatusCode::kIoError) {
          if (!faults) {
            return fail(i, "read failed with no fault active: " + r.status.ToString());
          }
        } else {
          return fail(i, "unexpected read error: " + r.status.ToString());
        }
        break;
      }
      case ClusterOpKind::kPut: {
        const cluster::QuorumResult r = cluster->Put(op.key, ByteSpan(op.value));
        ++puts_issued;
        last_trace_id = r.trace_id;
        if (r.ok()) {
          model.OnWriteAck(op.key, r.version, false, op.value);
        } else if (r.status.code() == StatusCode::kUnavailable ||
                   r.status.code() == StatusCode::kIoError) {
          if (!faults) {
            return fail(i, "write failed with no fault active: " + r.status.ToString());
          }
          model.OnWriteFail(op.key, r.version, false, op.value);
        } else {
          return fail(i, "unexpected write error: " + r.status.ToString());
        }
        break;
      }
      case ClusterOpKind::kDelete: {
        const cluster::QuorumResult r = cluster->Delete(op.key);
        ++deletes_issued;
        last_trace_id = r.trace_id;
        if (r.ok()) {
          model.OnWriteAck(op.key, r.version, true, Bytes{});
        } else if (r.status.code() == StatusCode::kUnavailable ||
                   r.status.code() == StatusCode::kIoError) {
          if (!faults) {
            return fail(i, "delete failed with no fault active: " + r.status.ToString());
          }
          model.OnWriteFail(op.key, r.version, true, Bytes{});
        } else {
          return fail(i, "unexpected delete error: " + r.status.ToString());
        }
        break;
      }
      case ClusterOpKind::kTick:
        cluster->Tick(op.count);
        break;
      case ClusterOpKind::kHealAll:
        cluster->net().HealAllLinks();
        break;
      case ClusterOpKind::kHealLink:
      case ClusterOpKind::kPartitionLink: {
        const int a = op.a < 0 ? cluster::ClusterNet::kClientId : ResolveSlot(members, op.a);
        const int b = ResolveSlot(members, op.b);
        if (a == b) {
          break;
        }
        if (op.kind == ClusterOpKind::kPartitionLink) {
          cluster->net().PartitionLink(a, b);
        } else {
          cluster->net().HealLink(a, b);
        }
        break;
      }
      case ClusterOpKind::kRestartNode: {
        const Status s = cluster->RestartNode(ResolveSlot(members, op.a));
        if (!s.ok()) {
          return fail(i, "restart failed: " + s.ToString());
        }
        break;
      }
      case ClusterOpKind::kCrashNode: {
        const Status s = cluster->CrashNode(ResolveSlot(members, op.a));
        if (!s.ok()) {
          return fail(i, "crash failed: " + s.ToString());
        }
        break;
      }
      case ClusterOpKind::kNodeJoin: {
        const int id = members.empty() ? 0 : members.back() + 1;
        const Status s = cluster->NodeJoin(id);
        if (!s.ok()) {
          return fail(i, "join failed: " + s.ToString());
        }
        break;
      }
      case ClusterOpKind::kNodeLeave: {
        const int id = ResolveSlot(members, op.a);
        const size_t pending = cluster->PendingKeyCount();
        const Status s = cluster->NodeLeave(id);
        if (s.ok()) {
          break;
        }
        if (s.code() == StatusCode::kInvalidArgument) {
          if (members.size() > options_.cluster.replication) {
            return fail(i, "leave refused without a membership cause: " + s.ToString());
          }
        } else if (s.code() == StatusCode::kUnavailable) {
          if (pending == 0 && !faults) {
            return fail(i, "leave aborted with no fault active: " + s.ToString());
          }
        } else {
          return fail(i, "unexpected leave error: " + s.ToString());
        }
        break;
      }
    }
  }

  // --- Forward progress: heal everything, drain, and everything must converge. --------
  cluster->net().HealAllLinks();
  cluster->net().SetLossRates(0.0, 0.0);
  for (const int id : cluster->Nodes()) {
    if (cluster->net().Crashed(id)) {
      if (const Status s = cluster->RestartNode(id); !s.ok()) {
        return fail(ops.size(), "final restart of node " + std::to_string(id) +
                                " failed: " + s.ToString());
      }
    }
  }
  uint64_t rounds = 0;
  while ((cluster->HintCount() > 0 || cluster->PendingKeyCount() > 0) &&
         rounds < kMaxDrainRounds) {
    cluster->Tick();
    ++rounds;
  }
  if (cluster->HintCount() > 0 || cluster->PendingKeyCount() > 0) {
    return fail(ops.size(),
        "forward progress: " + std::to_string(cluster->HintCount()) + " hints and " +
        std::to_string(cluster->PendingKeyCount()) +
        " pending rebalance moves failed to drain with all faults cleared");
  }
  for (const ShardId key : model.TouchedKeys()) {
    const cluster::QuorumResult r = cluster->Get(key);
    ++gets_issued;
    if (!r.status.ok() && r.status.code() != StatusCode::kNotFound) {
      return fail(ops.size(), "final sweep: read of key " + std::to_string(key) +
                              " failed after faults cleared: " + r.status.ToString());
    }
    if (auto err = model.OnRead(key, r.found, r.version, r.value)) {
      return fail(ops.size(), "final sweep: " + *err);
    }
  }
  // Replica convergence: every owner must hold a record the model can name. This is
  // the oracle that catches read repair writing the wrong payload (seeded bug #17) —
  // a replica carrying version v with bytes that neither the committed record nor
  // any uncertain write at v produced has been corrupted by the replication layer.
  for (const ShardId key : model.TouchedKeys()) {
    const ClusterModel::Record* committed = model.Committed(key);
    for (const int owner : cluster->OwnersOf(key)) {
      auto rec_or = cluster->DebugReplicaRead(owner, key);
      if (!rec_or.ok()) {
        return fail(ops.size(), "convergence: replica read of key " + std::to_string(key) +
                                " on node " + std::to_string(owner) +
                                " failed: " + rec_or.status().ToString());
      }
      const std::optional<cluster::ReplicaRecord>& rec = rec_or.value();
      if (!rec.has_value()) {
        if (committed != nullptr) {
          return fail(ops.size(), "convergence: node " + std::to_string(owner) +
                                  " holds nothing for key " + std::to_string(key) +
                                  " though version " + std::to_string(committed->version) +
                                  " committed");
        }
        continue;
      }
      if (committed != nullptr && rec->version < committed->version) {
        return fail(ops.size(),
            "convergence: node " + std::to_string(owner) + " stale at version " +
            std::to_string(rec->version) + " for key " + std::to_string(key) +
            " (committed " + std::to_string(committed->version) + ")");
      }
      if (committed != nullptr && rec->version == committed->version) {
        if (rec->tombstone != committed->tombstone || rec->value != committed->value) {
          return fail(ops.size(), "convergence: node " + std::to_string(owner) +
                                  " diverges from the committed record of key " +
                                  std::to_string(key) + " at version " +
                                  std::to_string(rec->version));
        }
        continue;
      }
      const ClusterModel::Record* u = model.Uncertain(key, rec->version);
      if (u == nullptr) {
        return fail(ops.size(), "convergence: node " + std::to_string(owner) +
                                " holds phantom version " + std::to_string(rec->version) +
                                " for key " + std::to_string(key));
      }
      if (rec->tombstone != u->tombstone || rec->value != u->value) {
        return fail(ops.size(), "convergence: node " + std::to_string(owner) +
                                " corrupted uncertain version " +
                                std::to_string(rec->version) + " of key " +
                                std::to_string(key));
      }
    }
  }

  // --- Metric oracle ------------------------------------------------------------------
  const MetricsSnapshot metrics_after = cluster->MetricsSnapshot();
  const uint64_t put_delta =
      CounterDelta(metrics_before, metrics_after, "cluster.put.ok") +
      CounterDelta(metrics_before, metrics_after, "cluster.put.err");
  const uint64_t get_delta =
      CounterDelta(metrics_before, metrics_after, "cluster.get.ok") +
      CounterDelta(metrics_before, metrics_after, "cluster.get.err");
  const uint64_t delete_delta =
      CounterDelta(metrics_before, metrics_after, "cluster.delete.ok") +
      CounterDelta(metrics_before, metrics_after, "cluster.delete.err");
  if (put_delta != puts_issued || get_delta != gets_issued ||
      delete_delta != deletes_issued) {
    return fail(ops.size(),
        "metric oracle: cluster counter deltas put=" + std::to_string(put_delta) + "/" +
        std::to_string(puts_issued) + " get=" + std::to_string(get_delta) + "/" +
        std::to_string(gets_issued) + " delete=" + std::to_string(delete_delta) + "/" +
        std::to_string(deletes_issued) + " disagree with ops issued");
  }
  if (cluster->spans().total_started() < puts_issued + gets_issued + deletes_issued) {
    return fail(ops.size(), "metric oracle: span tree recorded " +
                            std::to_string(cluster->spans().total_started()) +
                            " root spans, fewer than the client ops issued");
  }
  return std::nullopt;
}

// --- Model-checked bodies -------------------------------------------------------------

namespace {

struct PendingLinOps {
  // Unranked like the history lock: appended from model-checked workload threads.
  Mutex mu{MutexAttr{"mc.cluster.pending", 0}};
  std::vector<LinOp> ops;

  void Add(LinOp op) {
    LockGuard lock(mu);
    ops.push_back(std::move(op));
  }
};

cluster::ClusterOptions SmallClusterOptions() {
  cluster::ClusterOptions co;
  co.initial_nodes = 3;
  co.replication = 3;
  co.read_quorum = 2;
  co.write_quorum = 2;
  co.vnodes = 4;
  co.node.disk_count = 1;
  co.node.geometry = {.extent_count = 8, .pages_per_extent = 8, .page_size = 128};
  co.rpc_retry.max_attempts = 2;
  co.heartbeat_period_ticks = 1;
  return co;
}

// A write whose quorum failed may still have landed on some replicas: it enters the
// history as a still-open invocation, free to linearize anywhere after its invoke
// (or effectively never, by linearizing last).
LinOp OpenPut(uint64_t invoke, ShardId key, Bytes value) {
  LinOp op;
  op.kind = LinOp::Kind::kPut;
  op.key = key;
  op.value = std::move(value);
  op.invoke = invoke;
  op.response = UINT64_MAX;
  return op;
}

}  // namespace

std::function<void()> MakeClusterLinearizableBody(int adversary) {
  return [adversary] {
    auto cluster_or = cluster::ClusterCoordinator::Create(SmallClusterOptions());
    MC_CHECK(cluster_or.ok(), "cluster create failed: " + cluster_or.status().ToString());
    std::shared_ptr<cluster::ClusterCoordinator> cluster(std::move(cluster_or).value());
    auto history = std::make_shared<LinHistory>();
    auto pending = std::make_shared<PendingLinOps>();
    const ShardId key = 7;
    const Bytes v1(24, 0x11);
    const Bytes v2(24, 0x22);

    {
      const uint64_t t = history->Invoke();
      MC_CHECK(cluster->Put(key, ByteSpan(v1)).ok(), "setup put failed");
      history->RecordPut(t, key, v1);
    }
    const int victim = cluster->OwnersOf(key).front();

    Thread writer = Thread::Spawn([cluster, history, pending, key, v2] {
      const uint64_t t = history->Invoke();
      const cluster::QuorumResult r = cluster->Put(key, ByteSpan(v2));
      if (r.ok()) {
        history->RecordPut(t, key, v2);
      } else {
        pending->Add(OpenPut(t, key, v2));
      }
    });
    Thread saboteur = Thread::Spawn([cluster, adversary, victim] {
      if (adversary == 1) {
        cluster->net().PartitionLink(cluster::ClusterNet::kClientId, victim);
        cluster->Tick();
        cluster->net().HealLink(cluster::ClusterNet::kClientId, victim);
      } else if (adversary == 2) {
        MC_CHECK(cluster->CrashNode(victim).ok(), "crash failed");
        cluster->Tick();
        MC_CHECK(cluster->RestartNode(victim).ok(), "restart failed");
      }
    });
    for (int i = 0; i < 2; ++i) {
      const uint64_t t = history->Invoke();
      const cluster::QuorumResult r = cluster->Get(key);
      if (r.status.ok()) {
        history->RecordGetFound(t, key, r.value);
      } else if (r.status.code() == StatusCode::kNotFound) {
        history->RecordGetMissing(t, key);
      }
      // A failed read observed nothing and leaves no trace in the history.
    }
    writer.Join();
    saboteur.Join();

    std::vector<LinOp> ops = history->Ops();
    {
      LockGuard lock(pending->mu);
      ops.insert(ops.end(), pending->ops.begin(), pending->ops.end());
    }
    std::string explanation;
    MC_CHECK(CheckLinearizable(ops, &explanation), explanation);
  };
}

std::function<void()> MakeClusterStaleReadBody() {
  return [] {
    cluster::ClusterOptions co = SmallClusterOptions();
    co.initial_nodes = 2;
    co.replication = 2;
    co.read_quorum = 1;   // R + W <= N: read quorums need not meet write quorums
    co.write_quorum = 1;
    co.allow_unsafe_quorums = true;
    co.rpc_retry.max_attempts = 1;
    auto cluster_or = cluster::ClusterCoordinator::Create(co);
    MC_CHECK(cluster_or.ok(), "cluster create failed: " + cluster_or.status().ToString());
    std::shared_ptr<cluster::ClusterCoordinator> cluster(std::move(cluster_or).value());
    auto history = std::make_shared<LinHistory>();
    auto pending = std::make_shared<PendingLinOps>();
    const ShardId key = 3;
    const Bytes v1(16, 0x11);
    const Bytes v2(16, 0x22);

    {
      const uint64_t t = history->Invoke();
      MC_CHECK(cluster->Put(key, ByteSpan(v1)).ok(), "setup put failed");
      history->RecordPut(t, key, v1);
    }
    // Cut the coordinator off from the second replica, so the racing write acks at
    // W=1 off the first replica alone and the second stays at v1.
    const int lagger = cluster->OwnersOf(key).back();
    cluster->net().PartitionLink(cluster::ClusterNet::kClientId, lagger);

    Thread writer = Thread::Spawn([cluster, history, pending, key, v2] {
      const uint64_t t = history->Invoke();
      const cluster::QuorumResult r = cluster->Put(key, ByteSpan(v2));
      if (r.ok()) {
        history->RecordPut(t, key, v2);
      } else {
        pending->Add(OpenPut(t, key, v2));
      }
    });
    Thread healer = Thread::Spawn([cluster, lagger] {
      cluster->net().HealLink(cluster::ClusterNet::kClientId, lagger);
    });
    for (int i = 0; i < 2; ++i) {
      const uint64_t t = history->Invoke();
      const cluster::QuorumResult r = cluster->Get(key);
      if (r.status.ok()) {
        history->RecordGetFound(t, key, r.value);
      } else if (r.status.code() == StatusCode::kNotFound) {
        history->RecordGetMissing(t, key);
      }
    }
    writer.Join();
    healer.Join();

    std::vector<LinOp> ops = history->Ops();
    {
      LockGuard lock(pending->mu);
      ops.insert(ops.end(), pending->ops.begin(), pending->ops.end());
    }
    std::string explanation;
    MC_CHECK(CheckLinearizable(ops, &explanation), explanation);
  };
}

}  // namespace ss
