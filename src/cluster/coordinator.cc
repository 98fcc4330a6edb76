#include "src/cluster/coordinator.h"

#include <algorithm>
#include <utility>

#include "src/faults/faults.h"
#include "src/obs/json.h"

namespace ss {
namespace cluster {

const char* QuorumOutcomeName(QuorumOutcome outcome) {
  switch (outcome) {
    case QuorumOutcome::kOk:
      return "ok";
    case QuorumOutcome::kDegraded:
      return "degraded";
    case QuorumOutcome::kNoQuorum:
      return "no-quorum";
  }
  return "unknown";
}

ClusterCoordinator::ClusterCoordinator(ClusterOptions options)
    : options_(options),
      net_(options.net, &metrics_),
      spans_(options.span_capacity, &metrics_),
      ring_(options.vnodes),
      rpc_policy_(options.rpc_retry),
      fd_(&metrics_) {
  put_ok_ = &metrics_.counter("cluster.put.ok");
  write_degraded_ = &metrics_.counter("cluster.write.degraded");
  put_err_ = &metrics_.counter("cluster.put.err");
  get_ok_ = &metrics_.counter("cluster.get.ok");
  get_err_ = &metrics_.counter("cluster.get.err");
  delete_ok_ = &metrics_.counter("cluster.delete.ok");
  delete_err_ = &metrics_.counter("cluster.delete.err");
  no_quorum_ = &metrics_.counter("cluster.quorum.failed");
  read_repairs_ = &metrics_.counter("cluster.read_repairs");
  hints_stored_ = &metrics_.counter("cluster.hints.stored");
  hints_replayed_ = &metrics_.counter("cluster.hints.replayed");
  hints_dropped_ = &metrics_.counter("cluster.hints.dropped");
  rpc_retries_ = &metrics_.counter("cluster.rpc.retries");
  rpc_timeouts_ = &metrics_.counter("cluster.rpc.timeouts");
  heartbeats_ = &metrics_.counter("cluster.fd.heartbeats");
  heartbeat_misses_ = &metrics_.counter("cluster.fd.misses");
  fd_suspects_ = &metrics_.counter("cluster.fd.suspects");
  fd_downs_ = &metrics_.counter("cluster.fd.downs");
  fd_recoveries_ = &metrics_.counter("cluster.fd.recoveries");
  joins_ = &metrics_.counter("cluster.membership.joins");
  leaves_ = &metrics_.counter("cluster.membership.leaves");
  leave_refused_ = &metrics_.counter("cluster.membership.leave_refused");
  rebalance_moved_ = &metrics_.counter("cluster.rebalance.keys_moved");
  rebalance_pending_ = &metrics_.counter("cluster.rebalance.pending_recorded");
  crashes_ = &metrics_.counter("cluster.node.crashes");
  restarts_ = &metrics_.counter("cluster.node.restarts");
}

Result<std::unique_ptr<ClusterCoordinator>> ClusterCoordinator::Create(
    ClusterOptions options) {
  if (options.replication == 0) {
    return Status::InvalidArgument("cluster: replication must be >= 1");
  }
  if (options.read_quorum == 0 || options.read_quorum > options.replication ||
      options.write_quorum == 0 || options.write_quorum > options.replication) {
    return Status::InvalidArgument("cluster: quorums must be in [1, replication]");
  }
  if (!options.allow_unsafe_quorums &&
      options.read_quorum + options.write_quorum <= options.replication) {
    return Status::InvalidArgument(
        "cluster: R + W <= N permits stale reads (set allow_unsafe_quorums to demo)");
  }
  if (options.initial_nodes < static_cast<int>(options.replication)) {
    return Status::InvalidArgument("cluster: fewer initial nodes than replicas");
  }
  std::unique_ptr<ClusterCoordinator> cluster(new ClusterCoordinator(options));
  for (int id = 0; id < options.initial_nodes; ++id) {
    Result<std::unique_ptr<ClusterNode>> node = ClusterNode::Create(id, options.node);
    if (!node.ok()) {
      return node.status();
    }
    {
      LockGuard lock(cluster->mu_);
      cluster->nodes_[id] = std::shared_ptr<ClusterNode>(std::move(node.value()));
      cluster->fd_.AddNode(id);
    }
    cluster->net_.AddEndpoint(id);
    cluster->ring_.AddNode(id);
  }
  return cluster;
}

std::shared_ptr<ClusterNode> ClusterCoordinator::NodeFor(int id) const {
  LockGuard lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

Status ClusterCoordinator::ContactWrite(int node, ShardId key, const ReplicaRecord& record,
                                        const SpanScope& scope, const char* phase) {
  std::shared_ptr<ClusterNode> target = NodeFor(node);
  if (target == nullptr) {
    return Status::Unavailable("cluster: no such member");
  }
  Span span = scope.Child(phase);
  // The per-replica RPC span is the remote parent: the node's rpc.* spans land
  // directly under it in the assembled cluster trace.
  const TraceContext ctx{span.root(), span.id()};
  const common::RetryPolicy::RunResult run = rpc_policy_.Run(
      [&](uint32_t) -> Status {
        Status write_status = Status::Ok();
        uint64_t delay = 0;
        const Status net_status = net_.Deliver(
            ClusterNet::kClientId, node, ctx,
            [&](const TraceContext& trace) {
              const Status s = target->HandleWrite(key, record, trace);
              if (!s.ok()) {
                write_status = s;
              }
            },
            &delay);
        if (!net_status.ok()) {
          return net_status;
        }
        if (options_.op_timeout_ticks > 0 && delay > options_.op_timeout_ticks) {
          rpc_timeouts_->Increment();
          return Status::IoError("cluster: rpc timed out");
        }
        return write_status;
      },
      [&](uint64_t ticks) { net_.AdvanceTicks(ticks); });
  if (run.attempts > 1) {
    rpc_retries_->Increment(run.attempts - 1);
  }
  span.set_status(run.status.code());
  return run.status;
}

Status ClusterCoordinator::ContactRead(int node, ShardId key,
                                       std::optional<ReplicaRecord>* out,
                                       const SpanScope& scope) {
  std::shared_ptr<ClusterNode> target = NodeFor(node);
  if (target == nullptr) {
    return Status::Unavailable("cluster: no such member");
  }
  Span span = scope.Child("cluster.replica.read");
  const TraceContext ctx{span.root(), span.id()};
  const common::RetryPolicy::RunResult run = rpc_policy_.Run(
      [&](uint32_t) -> Status {
        Status read_status = Status::Ok();
        uint64_t delay = 0;
        const Status net_status = net_.Deliver(
            ClusterNet::kClientId, node, ctx,
            [&](const TraceContext& trace) {
              Result<std::optional<ReplicaRecord>> record = target->HandleRead(key, trace);
              if (record.ok()) {
                *out = std::move(record.value());
              } else {
                read_status = record.status();
              }
            },
            &delay);
        if (!net_status.ok()) {
          return net_status;
        }
        if (options_.op_timeout_ticks > 0 && delay > options_.op_timeout_ticks) {
          rpc_timeouts_->Increment();
          // The reply is late; discard it so a timed-out read never leaks data.
          *out = std::nullopt;
          return Status::IoError("cluster: rpc timed out");
        }
        return read_status;
      },
      [&](uint64_t ticks) { net_.AdvanceTicks(ticks); });
  if (run.attempts > 1) {
    rpc_retries_->Increment(run.attempts - 1);
  }
  span.set_status(run.status.code());
  return run.status;
}

void ClusterCoordinator::StoreHint(int node, ShardId key, const ReplicaRecord& record) {
  LockGuard lock(mu_);
  if (nodes_.count(node) == 0) {
    hints_dropped_->Increment();
    return;
  }
  ReplicaRecord& slot = hints_[node][key];
  if (slot.version < record.version) {
    slot = record;
  }
  hints_stored_->Increment();
}

QuorumResult ClusterCoordinator::WriteInternal(ShardId key, const ReplicaRecord& record,
                                               const char* op, Counter* ok_counter,
                                               Counter* err_counter) {
  Span root(&spans_, &net_, op);
  const SpanScope scope = root.scope();
  QuorumResult result;
  result.required = static_cast<int>(options_.write_quorum);
  result.version = record.version;
  result.trace_id = root.id();
  {
    LockGuard lock(mu_);
    keys_.insert(key);
  }
  const std::vector<int> owners = ring_.Owners(key, options_.replication);
  if (owners.empty()) {
    result.status = Status::Unavailable("cluster: no members");
    no_quorum_->Increment();
    err_counter->Increment();
    root.set_status(result.status.code());
    return result;
  }
  // Phase spans: "cluster.fanout" covers the whole owner sweep; "cluster.quorum.wait"
  // measures the virtual ticks from fan-out start until the W-th ack lands (it stays
  // open past the sweep only on the no-quorum path, where it closes with the fanout
  // span carrying kUnavailable).
  Span fanout = scope.Child("cluster.fanout");
  Span quorum_wait = scope.Child("cluster.quorum.wait");
  const SpanScope fanout_scope = fanout.scope();
  for (const int owner : owners) {
    NodeHealth health;
    {
      LockGuard lock(mu_);
      health = fd_.Health(owner);
    }
    if (health == NodeHealth::kDown) {
      // Sloppy handoff: don't burn the retry budget on a node the detector already
      // declared down — hint it and move on.
      StoreHint(owner, key, record);
      ++result.hints_stored;
      continue;
    }
    ++result.contacted;
    const Status s = ContactWrite(owner, key, record, fanout_scope, "cluster.replica.write");
    if (s.ok()) {
      ++result.acks;
      if (result.acks == result.required) {
        quorum_wait.End();
      }
    } else {
      StoreHint(owner, key, record);
      ++result.hints_stored;
    }
  }
  if (result.acks < result.required) {
    quorum_wait.set_status(StatusCode::kUnavailable);
  }
  quorum_wait.End();
  fanout.End();
  if (result.acks >= result.required) {
    result.status = Status::Ok();
    result.outcome = result.acks == static_cast<int>(owners.size()) ? QuorumOutcome::kOk
                                                                    : QuorumOutcome::kDegraded;
    if (result.outcome == QuorumOutcome::kDegraded) {
      write_degraded_->Increment();
    }
    ok_counter->Increment();
    // An acked write supersedes any pending rebalance move for the key: the new
    // version is on a write quorum, which every read quorum intersects.
    LockGuard lock(mu_);
    pending_moves_.erase(key);
    uint64_t& slot = acked_[key];
    if (slot < record.version) {
      slot = record.version;
    }
  } else {
    result.status = Status::Unavailable("cluster: write quorum not met");
    result.outcome = QuorumOutcome::kNoQuorum;
    no_quorum_->Increment();
    err_counter->Increment();
  }
  root.set_status(result.status.code());
  return result;
}

QuorumResult ClusterCoordinator::Put(ShardId key, ByteSpan value) {
  ReplicaRecord record;
  record.version = version_counter_.FetchAdd(1) + 1;
  record.value.assign(value.begin(), value.end());
  return WriteInternal(key, record, "cluster.put", put_ok_, put_err_);
}

QuorumResult ClusterCoordinator::Delete(ShardId key) {
  ReplicaRecord record;
  record.version = version_counter_.FetchAdd(1) + 1;
  record.tombstone = true;
  return WriteInternal(key, record, "cluster.delete", delete_ok_, delete_err_);
}

QuorumResult ClusterCoordinator::Get(ShardId key) {
  Span root(&spans_, &net_, "cluster.get");
  const SpanScope scope = root.scope();
  QuorumResult result;
  result.required = static_cast<int>(options_.read_quorum);
  result.trace_id = root.id();
  auto fail = [&](Status status) {
    result.status = std::move(status);
    result.outcome = QuorumOutcome::kNoQuorum;
    no_quorum_->Increment();
    get_err_->Increment();
    root.set_status(result.status.code());
    return result;
  };
  const std::vector<int> owners = ring_.Owners(key, options_.replication);
  if (owners.empty()) {
    return fail(Status::Unavailable("cluster: no members"));
  }
  std::vector<int> pending;
  {
    LockGuard lock(mu_);
    auto it = pending_moves_.find(key);
    if (it != pending_moves_.end()) {
      pending = it->second;
    }
  }

  struct Reply {
    int node = 0;
    std::optional<ReplicaRecord> record;
  };
  std::vector<Reply> replies;  // successful owner reads, contact order
  // Same phase pair as the write path: fan-out covers the replica sweep (pending
  // rebalance sources included), quorum wait ends at the R-th reply.
  Span fanout = scope.Child("cluster.fanout");
  Span quorum_wait = scope.Child("cluster.quorum.wait");
  const SpanScope fanout_scope = fanout.scope();
  // Rotating start: consecutive reads begin at different replicas, so divergence is
  // actually observable (and the model checker can steer a reader at a stale node).
  const size_t start = static_cast<size_t>(read_rotation_.FetchAdd(1)) % owners.size();
  for (size_t i = 0; i < owners.size() && replies.size() < options_.read_quorum; ++i) {
    const int node = owners[(start + i) % owners.size()];
    ++result.contacted;
    Reply reply{node, std::nullopt};
    const Status s = ContactRead(node, key, &reply.record, fanout_scope);
    if (s.ok()) {
      replies.push_back(std::move(reply));
    }
  }
  result.acks = static_cast<int>(replies.size());
  if (replies.size() < options_.read_quorum) {
    quorum_wait.set_status(StatusCode::kUnavailable);
    fanout.set_status(StatusCode::kUnavailable);
    return fail(Status::Unavailable("cluster: read quorum not met"));
  }
  quorum_wait.End();

  // While the key's rebalance move is pending, the old owners listed in the table
  // may hold a version the new owners never received: every one of them must answer
  // before the read can be served.
  std::vector<Reply> extras;
  for (const int src : pending) {
    bool already = false;
    for (const Reply& r : replies) {
      if (r.node == src) {
        already = true;
        break;
      }
    }
    if (already) {
      continue;
    }
    Reply reply{src, std::nullopt};
    const Status s = ContactRead(src, key, &reply.record, fanout_scope);
    if (!s.ok()) {
      fanout.set_status(StatusCode::kUnavailable);
      return fail(Status::Unavailable("cluster: pending rebalance source unreachable"));
    }
    extras.push_back(std::move(reply));
  }
  fanout.End();

  const ReplicaRecord* newest = nullptr;
  for (const Reply& r : replies) {
    if (r.record.has_value() && (newest == nullptr || r.record->version > newest->version)) {
      newest = &*r.record;
    }
  }
  for (const Reply& r : extras) {
    if (r.record.has_value() && (newest == nullptr || r.record->version > newest->version)) {
      newest = &*r.record;
    }
  }

  uint64_t floor = 0;
  {
    LockGuard lock(mu_);
    auto it = acked_.find(key);
    if (it != acked_.end()) {
      floor = it->second;
    }
  }

  if (newest != nullptr) {
    Span repair_span = scope.Child("cluster.read_repair");
    const SpanScope repair_scope = repair_span.scope();
    ReplicaRecord repair = *newest;
    if (BugEnabled(SeededBug::kReadRepairWrongValue)) {
      // Seeded bug #17: the repair keeps the newest *version* but pairs it with the
      // first reply's payload — if a stale replica answered first, its old value is
      // pushed cluster-wide under the new version number.
      for (const Reply& r : replies) {
        if (r.record.has_value()) {
          repair.value = r.record->value;
          repair.tombstone = r.record->tombstone;
          break;
        }
      }
    }
    if (newest->version > floor) {
      // The newest version was never acked at W: it reached us off a failed write's
      // partial footprint (or a hint/rebalance copy of one). Serving it makes it
      // observable, so it must first reach enough owners that every future read
      // quorum intersects a holder — otherwise fail the read instead of serving a
      // value the next read could un-see.
      size_t holders = 0;
      for (const int owner : owners) {
        bool has = false;
        for (const Reply& r : replies) {
          if (r.node == owner && r.record.has_value() &&
              r.record->version >= newest->version) {
            has = true;
            break;
          }
        }
        if (has) {
          ++holders;
          continue;
        }
        const Status s = ContactWrite(owner, key, repair, repair_scope, "cluster.replica.repair");
        if (s.ok()) {
          ++holders;
          ++result.read_repairs;
          read_repairs_->Increment();
        }
      }
      const size_t need = owners.size() >= options_.read_quorum
                              ? owners.size() - options_.read_quorum + 1
                              : 1;
      if (holders < need) {
        repair_span.set_status(StatusCode::kUnavailable);
        return fail(Status::Unavailable(
            "cluster: divergent read could not re-establish quorum overlap"));
      }
      LockGuard lock(mu_);
      uint64_t& slot = acked_[key];
      if (slot < newest->version) {
        slot = newest->version;
      }
    } else {
      // Plain read repair: top up the contacted replicas that answered stale.
      for (const Reply& r : replies) {
        const uint64_t have = r.record.has_value() ? r.record->version : 0;
        if (have >= newest->version) {
          continue;
        }
        const Status s = ContactWrite(r.node, key, repair, repair_scope, "cluster.replica.repair");
        if (s.ok()) {
          ++result.read_repairs;
          read_repairs_->Increment();
        }
      }
    }
  }

  result.outcome = result.acks == result.contacted ? QuorumOutcome::kOk
                                                   : QuorumOutcome::kDegraded;
  if (newest != nullptr && !newest->tombstone) {
    result.found = true;
    result.value = newest->value;
    result.version = newest->version;
    result.status = Status::Ok();
  } else {
    result.version = newest != nullptr ? newest->version : 0;
    result.status = Status::NotFound("cluster: key absent");
  }
  get_ok_->Increment();  // quorum served, found or not
  root.set_status(result.status.code());
  return result;
}

void ClusterCoordinator::HeartbeatRound() {
  net_.AdvanceTicks(options_.heartbeat_period_ticks);
  std::vector<int> members;
  {
    LockGuard lock(mu_);
    for (const auto& [id, node] : nodes_) {
      members.push_back(id);
    }
  }
  for (const int id : members) {
    bool delivered = false;
    const Status s = net_.Deliver(ClusterNet::kClientId, id, [&] { delivered = true; });
    const bool alive = s.ok() && delivered;
    heartbeats_->Increment();
    if (!alive) {
      heartbeat_misses_->Increment();
    }
    LockGuard lock(mu_);
    for (const FailureDetector::Transition& t : fd_.Observe(id, alive)) {
      switch (t.to) {
        case NodeHealth::kSuspect:
          fd_suspects_->Increment();
          break;
        case NodeHealth::kDown:
          fd_downs_->Increment();
          break;
        case NodeHealth::kHealthy:
          fd_recoveries_->Increment();
          break;
      }
    }
  }
}

void ClusterCoordinator::ReplayHints(const SpanScope& scope) {
  std::map<int, std::map<ShardId, ReplicaRecord>> snapshot;
  {
    LockGuard lock(mu_);
    snapshot.swap(hints_);
  }
  for (auto& [target, records] : snapshot) {
    for (auto& [key, record] : records) {
      const Status s = ContactWrite(target, key, record, scope, "cluster.hint.replay");
      if (s.ok()) {
        hints_replayed_->Increment();
        continue;
      }
      // Still unreachable: keep the hint, merging newest-wins with any hint stored
      // while the snapshot was out.
      LockGuard lock(mu_);
      if (nodes_.count(target) == 0) {
        hints_dropped_->Increment();
        continue;
      }
      ReplicaRecord& slot = hints_[target][key];
      if (slot.version < record.version) {
        slot = std::move(record);
      }
    }
  }
}

void ClusterCoordinator::RetryPendingMoves(const SpanScope& scope) {
  std::map<ShardId, std::vector<int>> snapshot;
  {
    LockGuard lock(mu_);
    snapshot = pending_moves_;
  }
  for (const auto& [key, sources] : snapshot) {
    bool all_read = true;
    std::optional<ReplicaRecord> best;
    for (const int src : sources) {
      std::optional<ReplicaRecord> record;
      if (!ContactRead(src, key, &record, scope).ok()) {
        all_read = false;
        continue;
      }
      if (record.has_value() && (!best.has_value() || record->version > best->version)) {
        best = std::move(record);
      }
    }
    if (!all_read) {
      continue;
    }
    bool drained = true;
    if (best.has_value()) {
      const std::vector<int> owners = ring_.Owners(key, options_.replication);
      size_t ok_writes = 0;
      for (const int owner : owners) {
        if (ContactWrite(owner, key, *best, scope, "cluster.replica.rebalance").ok()) {
          ++ok_writes;
        }
      }
      // Overlap bound: every R-subset of the N owners intersects a set of
      // N - R + 1 owners, so once the newest record reached that many the pending
      // entry is no longer load-bearing.
      const size_t need = owners.size() >= options_.read_quorum
                              ? owners.size() - options_.read_quorum + 1
                              : 1;
      drained = ok_writes >= need;
    }
    if (!drained) {
      continue;
    }
    LockGuard lock(mu_);
    auto it = pending_moves_.find(key);
    if (it != pending_moves_.end() && it->second == sources) {
      pending_moves_.erase(it);
    }
  }
}

void ClusterCoordinator::Tick(uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    Span root(&spans_, &net_, "cluster.tick");
    const SpanScope scope = root.scope();
    HeartbeatRound();
    {
      // Hint replay gets its own phase span so drain latency is a first-class
      // histogram (span.cluster.hint.drain.ticks) the benches can export.
      Span drain = scope.Child("cluster.hint.drain");
      ReplayHints(drain.scope());
    }
    RetryPendingMoves(scope);
  }
}

bool ClusterCoordinator::RebalanceKey(ShardId key, const std::vector<int>& old_owners,
                                      const std::vector<int>& new_owners,
                                      bool record_pending, const SpanScope& scope) {
  std::optional<ReplicaRecord> best;
  int best_holder = -1;
  std::vector<int> unread;
  for (const int src : old_owners) {
    std::optional<ReplicaRecord> record;
    if (!ContactRead(src, key, &record, scope).ok()) {
      unread.push_back(src);
      continue;
    }
    if (record.has_value() && (!best.has_value() || record->version > best->version)) {
      best = std::move(record);
      best_holder = src;
    }
  }
  bool clean = unread.empty();
  size_t ok_writes = 0;
  if (best.has_value()) {
    for (const int target : new_owners) {
      const Status s =
          ContactWrite(target, key, *best, scope, "cluster.replica.rebalance");
      if (s.ok()) {
        ++ok_writes;
      } else {
        clean = false;
        StoreHint(target, key, *best);
      }
    }
  }
  if (record_pending) {
    // A pending entry lists nodes whose data future Gets must still consult: old
    // owners we could not read, plus — when the newest record did not reach enough
    // new owners to guarantee read-quorum overlap — a node known to hold it.
    std::vector<int> must_consult = unread;
    if (best.has_value() && best_holder >= 0) {
      const size_t need = new_owners.size() >= options_.read_quorum
                              ? new_owners.size() - options_.read_quorum + 1
                              : 1;
      if (ok_writes < need) {
        must_consult.push_back(best_holder);
      }
    }
    if (!must_consult.empty()) {
      LockGuard lock(mu_);
      std::vector<int>& entry = pending_moves_[key];
      for (const int src : must_consult) {
        if (std::find(entry.begin(), entry.end(), src) == entry.end()) {
          entry.push_back(src);
        }
      }
      rebalance_pending_->Increment();
    }
  }
  return clean;
}

Status ClusterCoordinator::NodeJoin(int id) {
  {
    LockGuard lock(mu_);
    if (nodes_.count(id) != 0) {
      return Status::InvalidArgument("cluster: member id already in use");
    }
  }
  Result<std::unique_ptr<ClusterNode>> node = ClusterNode::Create(id, options_.node);
  if (!node.ok()) {
    return node.status();
  }
  Span root(&spans_, &net_, "cluster.join");
  const SpanScope scope = root.scope();

  std::vector<ShardId> keys;
  {
    LockGuard lock(mu_);
    keys.assign(keys_.begin(), keys_.end());
  }
  std::map<ShardId, std::vector<int>> old_owners;
  for (const ShardId key : keys) {
    old_owners[key] = ring_.Owners(key, options_.replication);
  }
  {
    LockGuard lock(mu_);
    nodes_[id] = std::shared_ptr<ClusterNode>(std::move(node.value()));
    fd_.AddNode(id);
  }
  net_.AddEndpoint(id);
  ring_.AddNode(id);
  for (const ShardId key : keys) {
    const std::vector<int> now = ring_.Owners(key, options_.replication);
    if (now == old_owners[key]) {
      continue;
    }
    RebalanceKey(key, old_owners[key], now, /*record_pending=*/true, scope);
    rebalance_moved_->Increment();
  }
  joins_->Increment();
  return Status::Ok();
}

Status ClusterCoordinator::NodeLeave(int id) {
  {
    LockGuard lock(mu_);
    if (nodes_.count(id) == 0) {
      return Status::InvalidArgument("cluster: no such member");
    }
    if (nodes_.size() - 1 < options_.replication) {
      leave_refused_->Increment();
      return Status::InvalidArgument("cluster: leave would drop below replication");
    }
    if (!pending_moves_.empty()) {
      // A pending source may be the sole reachable holder of an acked write; never
      // let it walk away before the move drains.
      leave_refused_->Increment();
      return Status::Unavailable("cluster: rebalance moves still pending");
    }
  }
  Span root(&spans_, &net_, "cluster.leave");
  const SpanScope scope = root.scope();

  std::vector<ShardId> keys;
  {
    LockGuard lock(mu_);
    keys.assign(keys_.begin(), keys_.end());
  }
  std::map<ShardId, std::vector<int>> old_owners;
  for (const ShardId key : keys) {
    old_owners[key] = ring_.Owners(key, options_.replication);
  }
  ring_.RemoveNode(id);
  bool clean = true;
  for (const ShardId key : keys) {
    const std::vector<int> now = ring_.Owners(key, options_.replication);
    if (now == old_owners[key]) {
      continue;
    }
    clean &= RebalanceKey(key, old_owners[key], now, /*record_pending=*/false, scope);
    rebalance_moved_->Increment();
  }
  if (!clean) {
    // Same points, same positions: re-adding restores the exact ring, so the abort
    // is a true rollback.
    ring_.AddNode(id);
    leave_refused_->Increment();
    root.set_status(StatusCode::kUnavailable);
    return Status::Unavailable("cluster: leave aborted, re-replication incomplete");
  }
  size_t dropped = 0;
  {
    LockGuard lock(mu_);
    auto it = hints_.find(id);
    if (it != hints_.end()) {
      dropped = it->second.size();
      hints_.erase(it);
    }
    nodes_.erase(id);
    fd_.RemoveNode(id);
  }
  if (dropped > 0) {
    // Safe to drop: the clean rebalance above re-replicated everything the hints
    // were still owed (hint records are never newer than what the old owners hold).
    hints_dropped_->Increment(dropped);
  }
  net_.RemoveEndpoint(id);
  leaves_->Increment();
  return Status::Ok();
}

Status ClusterCoordinator::CrashNode(int id) {
  {
    LockGuard lock(mu_);
    if (nodes_.count(id) == 0) {
      return Status::InvalidArgument("cluster: no such member");
    }
  }
  net_.SetCrashed(id, true);
  crashes_->Increment();
  return Status::Ok();
}

Status ClusterCoordinator::RestartNode(int id) {
  {
    LockGuard lock(mu_);
    if (nodes_.count(id) == 0) {
      return Status::InvalidArgument("cluster: no such member");
    }
  }
  net_.SetCrashed(id, false);
  restarts_->Increment();
  return Status::Ok();
}

std::vector<int> ClusterCoordinator::Nodes() const {
  LockGuard lock(mu_);
  std::vector<int> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    out.push_back(id);
  }
  return out;
}

NodeHealth ClusterCoordinator::HealthOf(int node) const {
  LockGuard lock(mu_);
  return fd_.Health(node);
}

std::vector<int> ClusterCoordinator::OwnersOf(ShardId key) const {
  return ring_.Owners(key, options_.replication);
}

std::vector<int> ClusterCoordinator::PendingSourcesOf(ShardId key) const {
  LockGuard lock(mu_);
  auto it = pending_moves_.find(key);
  return it == pending_moves_.end() ? std::vector<int>{} : it->second;
}

size_t ClusterCoordinator::PendingKeyCount() const {
  LockGuard lock(mu_);
  return pending_moves_.size();
}

size_t ClusterCoordinator::HintCount() const {
  LockGuard lock(mu_);
  size_t total = 0;
  for (const auto& [target, records] : hints_) {
    total += records.size();
  }
  return total;
}

Result<std::optional<ReplicaRecord>> ClusterCoordinator::DebugReplicaRead(int node,
                                                                          ShardId key) {
  std::shared_ptr<ClusterNode> target = NodeFor(node);
  if (target == nullptr) {
    return Status::Unavailable("cluster: no such member");
  }
  return target->HandleRead(key);
}

ClusterTrace ClusterCoordinator::AssembleTrace(uint64_t root_id) const {
  // Hold the node refs so the span trees outlive the lock release; the trees are
  // read under their own leaf locks, never under mu_.
  std::vector<std::shared_ptr<ClusterNode>> hold;
  std::vector<std::pair<std::string, const SpanTree*>> trees;
  {
    LockGuard lock(mu_);
    hold.reserve(nodes_.size());
    trees.reserve(nodes_.size());
    for (const auto& [id, node] : nodes_) {
      hold.push_back(node);
      trees.emplace_back("node-" + std::to_string(id), &node->server().spans());
    }
  }
  return AssembleClusterTrace(root_id, spans_, trees);
}

std::string ClusterCoordinator::ClusterSnapshotJson() const {
  struct NodeInfo {
    int id = 0;
    std::shared_ptr<ClusterNode> node;
    const char* health = "";
    uint32_t misses = 0;
    size_t hint_depth = 0;
  };
  std::vector<NodeInfo> infos;
  std::map<ShardId, std::vector<int>> pending;
  std::map<ShardId, uint64_t> acked;
  std::vector<ShardId> keys;
  {
    LockGuard lock(mu_);
    for (const auto& [id, node] : nodes_) {
      NodeInfo info;
      info.id = id;
      info.node = node;
      info.health = NodeHealthName(fd_.Health(id));
      info.misses = fd_.Misses(id);
      auto it = hints_.find(id);
      if (it != hints_.end()) {
        info.hint_depth = it->second.size();
      }
      infos.push_back(std::move(info));
    }
    pending = pending_moves_;
    acked = acked_;
    keys.assign(keys_.begin(), keys_.end());
  }
  // Per-node metric snapshots are taken after mu_ is released — the coordinator
  // never calls into a member while holding its own lock (same discipline as the
  // fan-out paths).
  ss::MetricsSnapshot aggregated;
  JsonWriter w;
  w.BeginObject();
  w.Key("nodes").BeginObject();
  for (const NodeInfo& info : infos) {
    w.Key(std::to_string(info.id)).BeginObject();
    w.Key("health").String(info.health);
    w.Key("misses").UInt(info.misses);
    w.Key("crashed").Bool(net_.Crashed(info.id));
    w.Key("hint_queue_depth").UInt(info.hint_depth);
    w.EndObject();
    aggregated.MergeFrom(info.node->server().MetricsSnapshot());
  }
  w.EndObject();
  w.Key("ring").BeginObject();
  w.Key("members").BeginArray();
  for (const int id : ring_.Nodes()) {
    w.Int(id);
  }
  w.EndArray();
  w.Key("vnodes").UInt(options_.vnodes);
  w.Key("points").UInt(ring_.point_count());
  w.Key("ownership").BeginObject();
  for (const ShardId key : keys) {
    w.Key(std::to_string(key)).BeginArray();
    for (const int owner : ring_.Owners(key, options_.replication)) {
      w.Int(owner);
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();
  w.Key("pending_moves").BeginObject();
  for (const auto& [key, sources] : pending) {
    w.Key(std::to_string(key)).BeginArray();
    for (const int src : sources) {
      w.Int(src);
    }
    w.EndArray();
  }
  w.EndObject();
  w.Key("acked_floor").BeginObject();
  for (const auto& [key, version] : acked) {
    w.Key(std::to_string(key)).UInt(version);
  }
  w.EndObject();
  w.Key("metrics").BeginObject();
  w.Key("coordinator").Raw(metrics_.Snapshot().ToJson());
  w.Key("nodes_aggregated").Raw(aggregated.ToJson());
  w.EndObject();
  w.EndObject();
  return w.str();
}

ss::MetricsSnapshot ClusterCoordinator::MetricsSnapshot() const {
  return metrics_.Snapshot();
}

std::string ClusterCoordinator::DumpMetrics() const { return metrics_.Snapshot().ToString(); }

}  // namespace cluster
}  // namespace ss
