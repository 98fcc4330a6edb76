// Quorum-replication conformance harness for the cluster tier (the failure-injection
// methodology of section 4.4 lifted to the multi-node level), plus the model-checked
// cross-node linearizability bodies.
//
// The PBT alphabet interleaves client KV ops with cluster-level fault and membership
// actions: link partitions (node-node and client-node), whole-node crash/restart,
// heartbeat/maintenance ticks, and NodeJoin/NodeLeave rebalances. Three properties:
//
//   * Quorum conformance against ClusterModel: a reference model that tracks, per
//     key, the highest *committed* version (acked at W, or served by a read) plus the
//     set of *uncertain* writes (failed quorums whose partial footprints may still
//     surface). A served read must match the committed record or adopt exactly one
//     uncertain write; anything else — stale version, phantom version, wrong bytes —
//     is a violation.
//   * Fault-aware errors: a failed client op is legal only while the harness can
//     point at an active fault channel (lossy net configuration, a standing
//     partition, a crashed or suspect/down member, or a pending rebalance move).
//   * Forward progress: after the sequence every link heals, every node restarts,
//     the loss channels zero out, and maintenance ticks run until hinted handoff and
//     pending rebalance moves drain. Then every touched key must read back to the
//     model's committed record, and every owner replica must hold a record the model
//     can name (committed or uncertain) — which is exactly the check that catches
//     seeded bug #17's corrupt read-repair payloads.
//
// The MC bodies drive a small cluster from concurrent workload + adversary threads
// under ss::mc and check the recorded history with CheckLinearizable: with R+W>N the
// property holds across every explored interleaving of partitions, crashes, and
// heals; with the R+W<=N misconfiguration the checker finds the stale read, and the
// failing schedule replays via McReplay / a flight-recorder artifact.

#ifndef SS_HARNESS_CLUSTER_HARNESS_H_
#define SS_HARNESS_CLUSTER_HARNESS_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/pbt/pbt.h"

namespace ss {

class FlightRecorder;

// Ordered by increasing complexity so the minimizer prefers simpler operations.
enum class ClusterOpKind : uint8_t {
  kGet = 0,
  kPut,
  kDelete,
  kTick,         // maintenance rounds: heartbeats, hint replay, pending-move retries
  kHealAll,      // heal every link partition
  kHealLink,     // heal one link
  kRestartNode,  // clear a node's crash flag
  kPartitionLink,  // blackhole one link (node-node or client-node)
  kCrashNode,      // network-level crash; the node's disks and data survive
  kNodeJoin,       // add a fresh member and rebalance
  kNodeLeave,      // graceful decommission (may legally refuse)
};

struct ClusterOp {
  ClusterOpKind kind = ClusterOpKind::kGet;
  ShardId key = 0;
  Bytes value;       // kPut payload
  // Node *slots*, resolved against the live member list at execution time (so a
  // shrunk prefix with fewer joins still addresses valid nodes). -1 = the
  // coordinator/client endpoint (only meaningful for link ops).
  int a = 0;
  int b = 0;
  uint32_t count = 1;  // kTick rounds
  std::string ToString() const;
};

struct ClusterHarnessOptions {
  cluster::ClusterOptions cluster;
  uint64_t key_bound = 12;
  size_t max_value_bytes = 200;
  // Armed only for the one-shot re-run of a minimized counterexample.
  FlightRecorder* recorder = nullptr;

  ClusterHarnessOptions() {
    cluster.initial_nodes = 4;
    cluster.replication = 3;
    cluster.read_quorum = 2;
    cluster.write_quorum = 2;
    cluster.vnodes = 8;
    cluster.node.disk_count = 2;
    cluster.node.geometry = {.extent_count = 16, .pages_per_extent = 16, .page_size = 256};
    cluster.net.drop_rate = 0.05;
    cluster.net.duplicate_rate = 0.05;
    cluster.net.base_delay_ticks = 1;
    cluster.net.delay_jitter_ticks = 2;
    cluster.rpc_retry.max_attempts = 3;
    cluster.op_timeout_ticks = 64;
    cluster.heartbeat_period_ticks = 4;
  }
};

// Sequential reference model for quorum-replicated KV with write uncertainty.
// `committed` is the floor every read must reach; `uncertain` holds failed writes
// whose partial footprints may legally surface once — at which point the model
// adopts them (mirroring the coordinator's establish-overlap-then-serve rule).
class ClusterModel {
 public:
  struct Record {
    uint64_t version = 0;
    bool tombstone = false;
    Bytes value;
  };

  void OnWriteAck(ShardId key, uint64_t version, bool tombstone, const Bytes& value);
  void OnWriteFail(ShardId key, uint64_t version, bool tombstone, const Bytes& value);
  // Validates a *served* read (found/version/value as the coordinator returned them)
  // and adopts any uncertain write it surfaced. Returns a violation description, or
  // nullopt when the observation is legal.
  std::optional<std::string> OnRead(ShardId key, bool found, uint64_t version,
                                    const Bytes& value);

  const Record* Committed(ShardId key) const;
  const Record* Uncertain(ShardId key, uint64_t version) const;
  std::vector<ShardId> TouchedKeys() const;

 private:
  void Adopt(ShardId key, const Record& record);

  std::map<ShardId, Record> committed_;
  std::map<ShardId, std::map<uint64_t, Record>> uncertain_;
};

class ClusterConformanceHarness
    : public PbtHarness<ClusterConformanceHarness, ClusterOp, ClusterHarnessOptions> {
 public:
  using PbtHarness::PbtHarness;
  static ClusterOp Gen(Rng& rng, const std::vector<ClusterOp>& prefix,
                       const ClusterHarnessOptions& options);
  static std::vector<ClusterOp> Shrink(const ClusterOp& op);
  std::optional<std::string> Run(const std::vector<ClusterOp>& ops);
};

// Model-checked cross-node linearizability: a 3-node R=2/W=2 cluster, one concurrent
// writer, a reader, and an adversary injecting the chosen fault (0 = none,
// 1 = client-link partition + heal, 2 = node crash + restart). The recorded history
// must be linearizable on every explored schedule; failed writes enter the history
// as open invocations (they may or may not have taken effect).
std::function<void()> MakeClusterLinearizableBody(int adversary);

// The misconfiguration demo: 2 nodes, R=1/W=1 (R+W<=N, allow_unsafe_quorums), a
// partition racing a write. Some schedules serve a stale read after an acked newer
// write; McExplore finds them and the failing schedule replays deterministically.
std::function<void()> MakeClusterStaleReadBody();

}  // namespace ss

#endif  // SS_HARNESS_CLUSTER_HARNESS_H_
