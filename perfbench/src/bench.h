// Shared pieces of the repository benchmark: wall-clock time, latency samples with the
// tail-percentile rule, the metric report, and the benchmark's own span log.
//
// The benchmark times every layer from the outside, at the calls it makes into that
// layer's public functions. Nothing here reaches into src/: the program under test
// keeps its virtual clocks, and the spans below live only in this process.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Nanos = int64_t;

inline Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Latency (or any duration) samples. Quantiles use the nearest-rank rule on the
// sorted samples, so "samples beyond" a quantile is an exact count.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Nearest-rank quantile, q in (0, 1]. Requires a nonempty sample set.
  double Quantile(double q) const;
  // Samples strictly after the nearest-rank position of q.
  size_t Beyond(double q) const;

  struct Tail {
    double q = 0;
    double value = 0;
    size_t beyond = 0;
  };
  // The highest percentile of {99.99, 99.9, 99, 95, 90, 75, 50} with at least 10
  // samples beyond it; nullopt when even the median has fewer.
  std::optional<Tail> HighestTail() const;

 private:
  void Sort() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// One named metric with its unit, as printed in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run produces: the metrics of the requested kind (end-to-end or per-layer),
// the correctness verdict, and the request accounting.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable violations; any entry makes the run incorrect.
  std::vector<std::string> violations;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Violation(std::string what) {
    correct = false;
    if (violations.size() < 20) {
      violations.push_back(std::move(what));
    }
  }
};

// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for FileDisk roots, removed by the caller after the run.
  std::string work_dir = ".bench_build/work";
  // Where the traced run writes its span log.
  std::string trace_dir = ".bench_build/traces";
};

// The benchmark's span log: one record per call the benchmark makes into a layer.
// Records stay in memory (up to a cap; aggregates are always complete) and are
// written out as CSV at the end of the run. Single-threaded by design: the benchmark
// drives the node from one closed-loop client thread.
class SpanLog {
 public:
  explicit SpanLog(size_t max_records = 200000) : max_records_(max_records) {}

  // Opens a span under the innermost open span (or as a new root). Returns its id.
  uint64_t Begin(const char* name);
  // Closes the innermost open span, which must be `id`.
  void End(uint64_t id);

  // Mean duration of the spans with this name (0 if none was recorded).
  double MeanNs(std::string_view name) const;
  // One report line per span name: count, mean duration and mean self time (duration
  // minus the time covered by child spans).
  void PrintSummary() const;

  // Writes every retained record as CSV: name,id,parent,root,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;
  size_t dropped() const { return dropped_; }

 private:
  struct Record {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t root;
    Nanos start;
    Nanos end;
  };
  struct Open {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t root;
    Nanos start;
    Nanos child_ns;
  };

  struct Aggregate {
    uint64_t count = 0;
    Nanos total_ns = 0;
    Nanos self_ns = 0;
  };

  size_t max_records_;
  uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  size_t dropped_ = 0;
  std::map<std::string, Aggregate, std::less<>> aggregates_;
};

// RAII span over one call into a layer. A null log makes it a no-op, so the untraced
// path pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) {
      id_ = log_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_ = 0;
};

// Workload entry points (requests.cc, toolkit.cc). Each returns the run's result; a
// setup failure is reported through RunResult::Violation.
bool IsRequestWorkload(std::string_view name);
RunResult RunRequestWorkload(const RunConfig& config);
RunResult RunToolkitWorkload(const RunConfig& config);

// Benchmark self-tests (selftest.cc): 0 when every check passes.
int RunSelfTest(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
