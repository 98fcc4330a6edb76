// Simulated message-passing network for the cluster tier.
//
// All cross-node traffic (quorum RPCs, heartbeats, hint replay, rebalance copies)
// flows through one ClusterNet, which owns the *cluster virtual clock* and the full
// fault surface:
//   * message drop        — per-delivery probability, deterministic ss::Rng,
//   * message delay       — base + jittered ticks charged to the virtual clock; the
//                           coordinator turns delays past its per-op timeout into
//                           retryable timeout failures,
//   * message duplication — the handler runs twice (receivers must be idempotent;
//                           replica writes are, by version guard),
//   * link partition      — symmetric per-pair blackhole until healed,
//   * node crash/restart  — the endpoint accepts nothing until restarted.
// Every decision is drawn from explicitly seeded state, so harness failures replay
// from their seeds and model-checked executions see identical network behaviour on
// every explored schedule. No wall clock anywhere: delays advance a tick counter
// (the same virtual-clock discipline as ExtentManager's retry clock), which also
// makes the net the cluster's span TickSource.
//
// Delivery is synchronous: the handler closure runs inline in the caller's thread,
// *outside* the net's lock, so the model checker can interleave concurrent quorum
// ops at every ss::sync point inside the receiving node.

#ifndef SS_CLUSTER_CLUSTER_NET_H_
#define SS_CLUSTER_CLUSTER_NET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sync/sync.h"

namespace ss {
namespace cluster {

struct ClusterNetOptions {
  // Per-delivery drop probability (0 disables). Dropped messages never reach the
  // handler and surface as retryable kIoError.
  double drop_rate = 0.0;
  // Per-delivery duplication probability (0 disables): the handler runs twice.
  double duplicate_rate = 0.0;
  // Ticks charged to the virtual clock per delivery, plus a uniform extra in
  // [0, delay_jitter_ticks].
  uint64_t base_delay_ticks = 0;
  uint64_t delay_jitter_ticks = 0;
};

class ClusterNet : public TickSource {
 public:
  // The coordinator's endpoint id on the star topology (it is not a ring member but
  // its links can partition too — that is the split-brain-routing surface).
  static constexpr int kClientId = -1;

  // cluster.net.* counters land in `metrics` when provided.
  explicit ClusterNet(ClusterNetOptions options = {}, MetricRegistry* metrics = nullptr);

  // --- Membership ----------------------------------------------------------------------
  void AddEndpoint(int id);
  void RemoveEndpoint(int id);
  bool HasEndpoint(int id) const;

  // --- Fault injection -----------------------------------------------------------------
  void SetCrashed(int id, bool crashed);
  bool Crashed(int id) const;
  // Re-tunes the probabilistic loss channels (drop/duplicate) on a live net. The
  // harness's forward-progress sweep zeroes them: faults may deny service while
  // present, never after they clear.
  void SetLossRates(double drop_rate, double duplicate_rate);
  // Symmetric link partition between `a` and `b` (either may be kClientId).
  void PartitionLink(int a, int b);
  void HealLink(int a, int b);
  void HealAllLinks();
  bool LinkPartitioned(int a, int b) const;
  size_t partitioned_link_count() const;

  // --- Delivery ------------------------------------------------------------------------
  // Delivers one message from -> to: consults crash state, the partition set, and the
  // drop/duplicate/delay draws; charges the delay to the virtual clock; then invokes
  // `handler` inline (twice under duplication) outside the net lock. Failures:
  //   * kUnavailable — endpoint missing/crashed or the link is partitioned (retrying
  //     without an external state change cannot help),
  //   * kIoError     — the message was dropped (transient; retry may succeed).
  // `delay_ticks`, when set, receives the delivery's charged delay even on failure —
  // the coordinator's per-op timeout check reads it.
  Status Deliver(int from, int to, const std::function<void()>& handler,
                 uint64_t* delay_ticks = nullptr);
  // Trace-carrying variant: `trace` (the sender's span identity) rides the message
  // and is handed to the handler on delivery, so receivers can open spans that adopt
  // the sender's causal tree (SpanTree::StartRemoteSpan). Fault semantics identical;
  // a dropped/partitioned message carries its context nowhere — exactly how a missing
  // replica subtree becomes visible in the assembled cluster trace.
  Status Deliver(int from, int to, const TraceContext& trace,
                 const std::function<void(const TraceContext&)>& handler,
                 uint64_t* delay_ticks = nullptr);

  // --- Virtual clock -------------------------------------------------------------------
  uint64_t Now() const;
  void AdvanceTicks(uint64_t ticks);
  // TickSource: lock-free mirror of the clock (span timestamping never locks).
  uint64_t SpanTicksNow() const override {
    return clock_ticks_.load(std::memory_order_relaxed);
  }

 private:
  static std::pair<int, int> LinkKey(int a, int b) {
    return a < b ? std::pair<int, int>{a, b} : std::pair<int, int>{b, a};
  }
  void AdvanceLocked(uint64_t ticks);  // caller holds mu_

  mutable Mutex mu_{MutexAttr{"cluster.net", lockrank::kClusterNet}};
  ClusterNetOptions options_;
  Rng rng_;                                // guarded by mu_
  std::set<int> endpoints_;                // guarded by mu_
  std::set<int> crashed_;                  // guarded by mu_
  std::set<std::pair<int, int>> partitions_;  // guarded by mu_, normalized pairs
  uint64_t clock_ = 0;                     // guarded by mu_
  std::atomic<uint64_t> clock_ticks_{0};   // relaxed mirror of clock_

  std::unique_ptr<MetricRegistry> owned_metrics_;
  Counter* delivered_;
  Counter* dropped_;
  Counter* duplicated_;
  Counter* partitioned_;
  Counter* to_crashed_;
  Histogram* delay_ticks_hist_;
};

}  // namespace cluster
}  // namespace ss

#endif  // SS_CLUSTER_CLUSTER_NET_H_
