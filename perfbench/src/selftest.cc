// The benchmark's own tests:
//   * the quantile helper reports the highest percentile with >= 10 samples beyond it;
//   * the same (workload, seed) gives an identical op stream;
//   * the same (workload, seed) gives identical per-layer counts in the traced run
//     (every metric whose unit is "count" or "ratio"; times are excluded).

#include <cstdio>
#include <string>

#include "bench.h"
#include "requests.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

Samples OneTo(size_t n) {
  Samples samples;
  for (size_t i = n; i >= 1; --i) {  // unsorted on purpose
    samples.Add(static_cast<double>(i));
  }
  return samples;
}

void TestQuantiles() {
  const Samples four = OneTo(4);
  Expect(four.Quantile(0.5) == 2 && four.Quantile(1.0) == 4, "nearest-rank quantiles of 1..4");

  auto tail = OneTo(1000).HighestTail();
  Expect(tail && tail->q == 0.99 && tail->value == 990 && tail->beyond == 10,
         "1000 samples: p99 has exactly 10 beyond, p99.9 has 0");
  tail = OneTo(999).HighestTail();
  Expect(tail && tail->q == 0.95 && tail->beyond == 49,
         "999 samples: p99 has 9 beyond, so the tail is p95");
  tail = OneTo(10000).HighestTail();
  Expect(tail && tail->q == 0.999 && tail->beyond == 10, "10000 samples: the tail is p99.9");
  tail = OneTo(20).HighestTail();
  Expect(tail && tail->q == 0.5 && tail->beyond == 10, "20 samples: only the median qualifies");
  Expect(!OneTo(19).HighestTail().has_value(), "19 samples: no percentile qualifies");
}

void TestOpStreams() {
  for (const char* name : {"read_zipf", "overwrite_churn", "durable_small_file"}) {
    const RequestSpec& spec = *FindRequestSpec(name);
    OpStream a(spec, 7);
    OpStream b(spec, 7);
    OpStream c(spec, 8);
    bool same = true;
    bool differs = false;
    for (int i = 0; i < 20000; ++i) {
      const Op op = a.Next();
      same = same && op == b.Next();
      differs = differs || !(op == c.Next());
    }
    Expect(same, std::string(name) + ": the same seed gives the same op stream");
    Expect(differs, std::string(name) + ": another seed gives another op stream");
  }
}

bool Deterministic(const std::string& unit) { return unit == "count" || unit == "ratio"; }

void ExpectSameCounts(const std::string& label, const RunResult& a, const RunResult& b) {
  bool same = a.correct && b.correct && a.metrics.size() == b.metrics.size() &&
              a.attempted == b.attempted && a.failed == b.failed;
  size_t compared = 0;
  for (size_t i = 0; same && i < a.metrics.size(); ++i) {
    if (a.metrics[i].name != b.metrics[i].name) {
      same = false;
    } else if (Deterministic(a.metrics[i].unit)) {
      ++compared;
      if (a.metrics[i].value != b.metrics[i].value) {
        std::printf("  %s: %.17g vs %.17g\n", a.metrics[i].name.c_str(), a.metrics[i].value,
                    b.metrics[i].value);
        same = false;
      }
    }
  }
  Expect(same && compared > 0,
         label + ": identical per-layer counts across two traced runs (" +
             std::to_string(compared) + " compared)");
}

void TestTracedCounts(const RunConfig& base) {
  const std::pair<const char*, size_t> cases[] = {
      {"read_zipf", 2000}, {"overwrite_churn", 1500}, {"durable_small_file", 300}};
  for (const auto& [name, ops] : cases) {
    RunConfig config = base;
    config.workload = name;
    config.seed = 3;
    config.trace = true;
    const RequestSpec& spec = *FindRequestSpec(name);
    const RunResult a = RunRequestTraced(spec, config, ops);
    const RunResult b = RunRequestTraced(spec, config, ops);
    ExpectSameCounts(name, a, b);
  }
  RunConfig config = base;
  config.workload = "toolkit";
  config.seed = 3;
  config.trace = true;
  const RunResult a = RunToolkitWorkload(config);
  const RunResult b = RunToolkitWorkload(config);
  ExpectSameCounts("toolkit", a, b);
}

}  // namespace

int RunSelfTest(const RunConfig& config) {
  TestQuantiles();
  TestOpStreams();
  TestTracedCounts(config);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
