// Cluster tier: quorum replication across NodeServers (Dynamo-style, paper scope
// "beyond the single node" — ROADMAP item 1).
//
// A ClusterCoordinator owns a set of ClusterNodes (each a full NodeServer), a
// consistent-hash ring placing every key on N distinct members, a simulated network
// carrying all cross-node traffic, and a heartbeat failure detector. Client ops fan
// out to the key's N owners and succeed on configurable quorums:
//
//   * Put/Delete — coordinator assigns a monotonically increasing version, writes the
//     versioned record (tombstone for deletes) to all owners, acks at W. Unreachable
//     owners get a *hint* (sloppy handoff): the newest missed record per (node, key)
//     is kept and replayed by Tick() once the node is reachable again.
//   * Get — reads owners in rotating order until R replies, returns the newest
//     version among them, and *read-repairs* any contacted replica that returned an
//     older version (guarded by the replica version check, so repair races are
//     harmless). Divergence is possible exactly because Put acks at W < N.
//
// Per-replica RPCs run under the shared ss::common::RetryPolicy (same backoff
// semantics as ExtentManager's disk retries) with a per-op virtual-tick timeout:
// deliveries whose network delay exceeds it count as retryable timeouts. Degraded
// results are typed, not stringly: QuorumResult says how many acks out of how many
// required, and whether the op was clean (kOk), short of full replication but at
// quorum (kDegraded), or failed (kNoQuorum).
//
// Membership is dynamic. NodeJoin/NodeLeave rebalance the moved keys through the net
// (reads from old owners, version-guarded writes to new owners). A join that cannot
// read every old owner records the unread nodes in a *pending-moves* table; until a
// Tick drains the entry, reads of that key must also consult those pending sources —
// that is what keeps acked writes linearizable across a rebalance that raced a
// partition. A leave commits only when every moved key was cleanly re-replicated
// (otherwise the ring change is rolled back and the leave refused), so a departing
// node can never strand the sole copy of an acked write.
//
// Safety story (model-checked in tests/cluster_test.cc):
//   * R + W > N  =>  every read quorum intersects every write quorum, so reads see
//     the newest acked version — CheckLinearizable passes across every explored
//     interleaving of concurrent ops, partitions, crashes, and heals.
//   * R + W <= N (allow_unsafe_quorums) => ss::mc finds the stale read and the
//     failure surfaces as a replayable flight-recorder counterexample.
// Seeded bug #17 (SeededBug::kReadRepairWrongValue) makes read repair write the
// newest *version* with the first reply's *value*; the harness model catches the
// value/version mismatch and the PBT shrinker minimizes the trace.

#ifndef SS_CLUSTER_COORDINATOR_H_
#define SS_CLUSTER_COORDINATOR_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster_net.h"
#include "src/cluster/failure_detector.h"
#include "src/cluster/hash_ring.h"
#include "src/cluster/replica.h"
#include "src/common/retry_policy.h"
#include "src/obs/cluster_trace.h"

namespace ss {
namespace cluster {

struct ClusterOptions {
  // Members created at startup, ids 0..initial_nodes-1. Must be >= replication.
  int initial_nodes = 3;
  uint32_t replication = 3;   // N: owners per key
  uint32_t read_quorum = 2;   // R: replies required to serve a Get
  uint32_t write_quorum = 2;  // W: acks required to ack a Put/Delete
  uint32_t vnodes = 16;       // ring points per member

  NodeServerOptions node;  // storage configuration of each member
  ClusterNetOptions net;   // fault surface of the simulated network

  // Retry policy for each per-replica RPC (drops and timeouts are retryable;
  // partitions and crashes are not). Backoff ticks are charged to the net's clock.
  common::RetryOptions rpc_retry{.max_attempts = 3, .backoff_base_ticks = 1};
  // A delivery whose network delay exceeds this counts as a (retryable) timeout.
  // 0 disables the timeout check.
  uint64_t op_timeout_ticks = 64;

  // Virtual ticks charged per Tick() heartbeat round.
  uint64_t heartbeat_period_ticks = 4;

  size_t span_capacity = SpanTree::kDefaultCapacity;

  // Permit R + W <= N. Only the model-checker misconfiguration demo sets this; the
  // constructor otherwise rejects unsafe quorums with kInvalidArgument.
  bool allow_unsafe_quorums = false;
};

enum class QuorumOutcome : uint8_t {
  kOk = 0,        // every contacted owner acked
  kDegraded = 1,  // quorum met, but some owners missed (hinted / repair pending)
  kNoQuorum = 2,  // quorum not met; the op failed
};

const char* QuorumOutcomeName(QuorumOutcome outcome);

// Typed envelope for every client-facing cluster op (the cluster-tier analogue of
// rpc::PutResult): status plus the quorum arithmetic a caller or oracle needs to
// interpret it, never a bare error string.
struct QuorumResult {
  Status status;
  QuorumOutcome outcome = QuorumOutcome::kNoQuorum;
  int acks = 0;       // owner replies that succeeded
  int required = 0;   // quorum size (R or W)
  int contacted = 0;  // owners actually sent an RPC
  // Read payload (Get only): found == false for absent keys / tombstones.
  bool found = false;
  Bytes value;
  uint64_t version = 0;
  int read_repairs = 0;   // stale replicas repaired by this Get
  int hints_stored = 0;   // owners this write could not reach (hinted instead)
  uint64_t trace_id = 0;  // root span id in spans() for this op's causal tree

  bool ok() const { return status.ok(); }
};

class ClusterCoordinator {
 public:
  static Result<std::unique_ptr<ClusterCoordinator>> Create(ClusterOptions options = {});

  // --- Client request plane ------------------------------------------------------------
  QuorumResult Put(ShardId key, ByteSpan value);
  QuorumResult Get(ShardId key);
  QuorumResult Delete(ShardId key);

  // --- Background plane ----------------------------------------------------------------
  // One maintenance round: advances the cluster clock by heartbeat_period_ticks,
  // heartbeats every member (feeding the failure detector; partitions, crashes, and
  // drops all count as misses), replays stored hints toward reachable targets, and
  // retries pending rebalance moves.
  void Tick(uint64_t rounds = 1);

  // --- Membership ----------------------------------------------------------------------
  // Adds a new member and rebalances the keys it now owns. `id` must be fresh.
  Status NodeJoin(int id);
  // Gracefully removes a member. Commits only when every moved key was re-replicated
  // cleanly (all old owners read, all new owners written, no pending moves
  // outstanding); otherwise rolls the ring back and returns kUnavailable. Refuses
  // (kInvalidArgument) when the remaining membership could not hold N replicas.
  Status NodeLeave(int id);

  // --- Fault plane (network-level; the node's disks and data survive) ------------------
  Status CrashNode(int id);
  Status RestartNode(int id);

  // --- Introspection (tests / harness oracles) -----------------------------------------
  std::vector<int> Nodes() const;
  NodeHealth HealthOf(int node) const;
  std::vector<int> OwnersOf(ShardId key) const;
  // Nodes a Get of `key` must additionally read while its rebalance move is pending
  // (empty when none). PendingKeyCount is the number of keys with pending moves.
  std::vector<int> PendingSourcesOf(ShardId key) const;
  size_t PendingKeyCount() const;
  size_t HintCount() const;
  // Reads the replica's stored record directly, bypassing the network (divergence /
  // repair-convergence oracles).
  Result<std::optional<ReplicaRecord>> DebugReplicaRead(int node, ShardId key);

  ClusterNet& net() { return net_; }
  const HashRing& ring() const { return ring_; }
  MetricRegistry& metrics() { return metrics_; }
  SpanTree& spans() { return spans_; }
  ss::MetricsSnapshot MetricsSnapshot() const;
  std::string DumpMetrics() const;

  // Assembles the cross-node trace keyed by a coordinator root span id (a
  // QuorumResult::trace_id): the coordinator's tree plus every member subtree that
  // adopted the op's TraceContext, stitched under the per-replica RPC spans. A
  // replica a fault kept the message from shows up as a *missing* source — the
  // degraded path is visible as absence, not as an error entry.
  ClusterTrace AssembleTrace(uint64_t root_id) const;

  // Point-in-time cluster state as one JSON object: per-node failure-detector
  // health/misses/crash flag/hint-queue depth, ring membership + per-key ownership,
  // pending rebalance moves, the acked-version floor table, and a metrics block
  // holding the coordinator registry plus the per-node registries aggregated with
  // MetricsSnapshot::MergeFrom. Attached to every cluster-harness flight artifact.
  std::string ClusterSnapshotJson() const;

  const ClusterOptions& options() const { return options_; }

 private:
  explicit ClusterCoordinator(ClusterOptions options);

  // Moves one key's data from its pre-change owners to its post-change owners.
  // Returns true when the move was fully clean (every source read, every target
  // written); on a dirty move, records hints for unwritten targets and (when
  // `record_pending`) pending sources for unread old owners.
  bool RebalanceKey(ShardId key, const std::vector<int>& old_owners,
                    const std::vector<int>& new_owners, bool record_pending,
                    const SpanScope& scope);

  // One per-replica RPC with retry + timeout. Write: pushes `record`; read: fills
  // `out` (nullopt when the replica has no record). `phase` names the child span.
  Status ContactWrite(int node, ShardId key, const ReplicaRecord& record,
                      const SpanScope& scope, const char* phase);
  Status ContactRead(int node, ShardId key, std::optional<ReplicaRecord>* out,
                     const SpanScope& scope);
  // Shared fan-out body of Put/Delete (a delete is a tombstone write).
  QuorumResult WriteInternal(ShardId key, const ReplicaRecord& record, const char* op,
                             Counter* ok_counter, Counter* err_counter);

  std::shared_ptr<ClusterNode> NodeFor(int id) const;
  // Stores (newest-wins per target/key) a hint for an unreachable owner.
  void StoreHint(int node, ShardId key, const ReplicaRecord& record);
  // Replays every stored hint whose target is reachable; failed replays are kept.
  void ReplayHints(const SpanScope& scope);
  // Retries pending rebalance moves; entries drain once every source was read and
  // the newest record reached enough new owners to guarantee read-quorum overlap.
  void RetryPendingMoves(const SpanScope& scope);
  // One heartbeat round through the net, feeding the failure detector.
  void HeartbeatRound();

  ClusterOptions options_;

  // Construction order matters: metrics before the net and span tree (both record
  // into it), and all of them before the nodes.
  MetricRegistry metrics_;
  ClusterNet net_;
  SpanTree spans_;
  HashRing ring_;
  common::RetryPolicy rpc_policy_;

  // Coordinator-assigned record versions and the rotating Get start offset. Both are
  // ss::Atomic so every draw is a model-checker scheduling point: the checker can
  // order concurrent versions either way and can steer readers at different replicas
  // (which is how it reaches the stale-read interleavings under unsafe quorums).
  Atomic<uint64_t> version_counter_{0};
  Atomic<uint64_t> read_rotation_{0};

  // Membership, hints, pending moves, and the failure detector. Never held across a
  // net_.Deliver call: ops snapshot what they need, release, then fan out.
  mutable Mutex mu_{MutexAttr{"cluster.coord", lockrank::kClusterCoord}};
  std::map<int, std::shared_ptr<ClusterNode>> nodes_;
  FailureDetector fd_;
  // target node -> key -> newest missed record
  std::map<int, std::map<ShardId, ReplicaRecord>> hints_;
  // key -> old owners a Get must still read (rebalance raced a fault)
  std::map<ShardId, std::vector<int>> pending_moves_;
  // key -> highest version known committed (acked at W, or served by a read after
  // re-establishing quorum overlap). A Get that surfaces a version above this floor
  // must push it onto enough owners to guarantee future read quorums see it *before*
  // serving it — otherwise a failed write observed once could vanish from the next
  // read, which is exactly the non-linearizable anomaly the checker would flag.
  std::map<ShardId, uint64_t> acked_;
  // Every key a client ever wrote: the rebalance scan set. Bounded by the harness /
  // test keyspace; a production ring would walk the stores instead.
  std::set<ShardId> keys_;

  Counter* put_ok_;
  Counter* write_degraded_;
  Counter* put_err_;
  Counter* get_ok_;
  Counter* get_err_;
  Counter* delete_ok_;
  Counter* delete_err_;
  Counter* no_quorum_;
  Counter* read_repairs_;
  Counter* hints_stored_;
  Counter* hints_replayed_;
  Counter* hints_dropped_;
  Counter* rpc_retries_;
  Counter* rpc_timeouts_;
  Counter* heartbeats_;
  Counter* heartbeat_misses_;
  Counter* fd_suspects_;
  Counter* fd_downs_;
  Counter* fd_recoveries_;
  Counter* joins_;
  Counter* leaves_;
  Counter* leave_refused_;
  Counter* rebalance_moved_;
  Counter* rebalance_pending_;
  Counter* crashes_;
  Counter* restarts_;
};

}  // namespace cluster
}  // namespace ss

#endif  // SS_CLUSTER_COORDINATOR_H_
