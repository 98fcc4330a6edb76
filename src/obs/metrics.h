// Process-wide observability: a registry of named counters, gauges, and fixed-bucket
// histograms, designed so every per-component `Stats` struct in the tree can become a
// thin view over shared metric objects.
//
// Two properties drive the design:
//
//  * Metrics are observability, not behaviour. Like the `Coverage` singleton in
//    common/cover.cc, the registry's shard locks are *leaf-mode* ss::Mutex instances:
//    never a model-checker scheduling point, so incrementing a counter never perturbs
//    the interleavings the mc harness explores, yet still named and ranked for the
//    lock-order witness. Relaxed atomics keep the hot path to a single uncontended
//    RMW and keep the whole layer clean under TSan.
//  * Registration is rare, increments are hot. The registry shards its name map by
//    hash across a small fixed set of mutexes; callers look a metric up once at
//    construction time, hold the returned pointer (addresses are stable for the
//    registry's lifetime), and bump it lock-free thereafter.
//
// Histograms are virtual-clock-friendly: buckets are caller-supplied inclusive upper
// bounds over whatever unit the caller measures (we use virtual ticks, not wall time,
// so recorded distributions are deterministic under the simulated clock).

#ifndef SS_OBS_METRICS_H_
#define SS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sync/sync.h"

namespace ss {

// Monotonic event count. Relaxed ordering: totals are exact once the writing threads
// are quiesced (joined / completed), which is when harness oracles read them.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value (queue depths, health states).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

struct HistogramSnapshot {
  // Inclusive upper bounds; an implicit +inf bucket follows the last bound.
  std::vector<uint64_t> bounds;
  // bounds.size() + 1 entries; counts[i] is the number of samples <= bounds[i],
  // counts.back() the overflow.
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  uint64_t sum = 0;

  // Upper bound of the bucket containing the q-quantile sample (q clamped to [0,1]).
  // Edge cases: an empty histogram returns 0; samples in the overflow bucket report
  // one past the largest bound (the histogram cannot resolve beyond it); a histogram
  // with no bounds at all falls back to the mean (sum/count).
  uint64_t ValueAtQuantile(double q) const;

  std::string ToString() const;
  // {"count":..,"sum":..,"bounds":[..],"counts":[..]}
  std::string ToJson() const;
};

// Fixed-bucket histogram. Bounds are frozen at registration; recording is a bucket
// search plus three relaxed RMWs.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Power-of-two tick buckets (1, 2, 4, ..., 1024) — the default latency shape for
// virtual-clock durations, which are small integers by construction.
std::vector<uint64_t> DefaultTickBuckets();

// A flattened, point-in-time copy of one or more registries. Snapshots from several
// registries (e.g. one per ShardStore plus the node-level one) accumulate: counters
// and gauges with the same name sum, histograms with identical bounds merge
// bucket-wise (mismatched bounds fold into count/sum only).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Value of a counter, or 0 if it was never registered. Harness oracles diff two
  // snapshots with this, so "absent" and "never incremented" must read the same.
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  // Sample count of a histogram, or 0 if it was never registered (same reason).
  uint64_t histogram_count(std::string_view name) const;

  // Accumulates `other` into this snapshot: counters and gauges sum (uint64 wrap on
  // counter overflow is defined behaviour), histograms with identical bounds merge
  // bucket-wise, mismatched bounds fold into count/sum only (counts/bounds keep this
  // snapshot's shape). The cluster tier uses this to aggregate per-node snapshots.
  void MergeFrom(const MetricsSnapshot& other);

  std::string ToString() const;
  // Machine-readable form: {"counters":{..},"gauges":{..},"histograms":{..}}, the
  // exit the benches and the flight recorder consume.
  std::string ToJson() const;
};

// Delta of one counter between two snapshots taken from the same registry set.
uint64_t CounterDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                      std::string_view name);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Find-or-create. Returned references are stable for the registry's lifetime; a
  // second call with the same name returns the same object.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Bounds apply only on first registration; later calls with the same name return
  // the existing histogram regardless of the bounds argument.
  Histogram& histogram(std::string_view name, std::vector<uint64_t> bounds = DefaultTickBuckets());

  MetricsSnapshot Snapshot() const;
  // Accumulates this registry into `out` (see MetricsSnapshot merge semantics above).
  void SnapshotInto(MetricsSnapshot& out) const;

 private:
  struct Shard {
    mutable Mutex mu{MutexAttr{"obs.metrics.shard", lockrank::kObs + 5, /*leaf=*/true}};
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  };
  static constexpr size_t kShardCount = 8;

  Shard& ShardFor(std::string_view name) const;

  mutable std::array<Shard, kShardCount> shards_;
};

}  // namespace ss

#endif  // SS_OBS_METRICS_H_
