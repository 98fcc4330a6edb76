// Heartbeat-driven per-node failure detector for the cluster tier.
//
// Mirrors PR 1's per-disk health ladder one level up: each member node walks
// healthy -> suspect -> down as consecutive heartbeat misses accumulate, and snaps
// back to healthy on the first successful heartbeat (triggering hinted-handoff
// replay in the coordinator). The detector itself is deliberately passive state — it
// neither sends heartbeats nor locks anything. ClusterCoordinator::Tick() drives one
// heartbeat round through ClusterNet (so partitions, crashes, and delays all count
// as misses) and feeds the observations in under its own lock; that keeps the
// detector trivially deterministic and lets the harness read a consistent ladder.

#ifndef SS_CLUSTER_FAILURE_DETECTOR_H_
#define SS_CLUSTER_FAILURE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/obs/metrics.h"

namespace ss {
namespace cluster {

enum class NodeHealth : uint8_t { kHealthy = 0, kSuspect = 1, kDown = 2 };

const char* NodeHealthName(NodeHealth health);

class FailureDetector {
 public:
  // Consecutive misses before healthy -> suspect, and before suspect -> down.
  static constexpr uint32_t kSuspectAfterMisses = 2;
  static constexpr uint32_t kDownAfterMisses = 4;

  // When `metrics` is provided, every ladder transition increments the counter named
  // for the state *entered*: cluster.fd.healthy (recovery), cluster.fd.suspect,
  // cluster.fd.down. Counter pointers are resolved once here (registration is rare,
  // transitions are hot-path under the coordinator lock).
  explicit FailureDetector(MetricRegistry* metrics = nullptr);

  void AddNode(int node);     // starts healthy
  void RemoveNode(int node);

  struct Transition {
    int node = 0;
    NodeHealth from = NodeHealth::kHealthy;
    NodeHealth to = NodeHealth::kHealthy;
  };

  // Feeds one heartbeat observation; returns the ladder transition it caused, if
  // any. A success resets the miss count and recovers the node to healthy from any
  // state; a miss climbs the ladder at the thresholds above.
  std::vector<Transition> Observe(int node, bool heartbeat_ok);

  NodeHealth Health(int node) const;  // kDown for unknown nodes
  uint32_t Misses(int node) const;
  std::vector<int> Nodes() const;

 private:
  struct NodeState {
    NodeHealth health = NodeHealth::kHealthy;
    uint32_t misses = 0;
  };
  std::map<int, NodeState> nodes_;
  Counter* entered_healthy_ = nullptr;  // null when metrics were not supplied
  Counter* entered_suspect_ = nullptr;
  Counter* entered_down_ = nullptr;
};

}  // namespace cluster
}  // namespace ss

#endif  // SS_CLUSTER_FAILURE_DETECTOR_H_
