// The toolkit workload: fixed-seed work for the validation toolkit's own layers.
//
// One round is three parts, repeated for the measured seconds:
//   * kv PBT with crashes: KvConformanceHarness (crashes=true), 50 seeds x 20 cases,
//     max_ops=80, every case must pass;
//   * DFS to exhaustion of MakeListRemoveBody, which must report ok && exhausted;
//   * detection plus minimization of seeded bug #2 (kCacheNotDrainedOnReset) at the
//     fixed seed 42, which must be detected.
// The PBT inputs of every round are the same (derived from --seed) and are generated in
// set-up, so repeated rounds time identical work.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "src/faults/faults.h"
#include "src/harness/concurrency.h"
#include "src/harness/kv_harness.h"
#include "src/mc/mc.h"
#include "timed_disk.h"

namespace perfbench {

namespace {

constexpr size_t kSeedsPerRound = 50;
constexpr size_t kCasesPerSeed = 20;
constexpr size_t kMaxOps = 80;
constexpr uint64_t kBugSeed = 42;
constexpr size_t kBugCaseBudget = 5000;
constexpr size_t kDfsBound = 5000000;
constexpr size_t kRandomExecs = 200;
constexpr int kSetupRepeats = 5;

ss::KvHarnessOptions PbtOptions() {
  ss::KvHarnessOptions options;
  options.crashes = true;
  return options;
}

ss::PbtConfig PbtConfigFor(uint64_t seed, size_t cases) {
  ss::PbtConfig config;
  config.seed = seed;
  config.num_cases = cases;
  config.max_ops = kMaxOps;
  return config;
}

// The round's PBT cases, generated the way PbtRunner::Run derives them: per-case seeds
// drawn from the runner seed, then Generate(case_seed).
std::vector<std::vector<ss::KvOp>> GenerateCases(uint64_t seed) {
  std::vector<std::vector<ss::KvOp>> cases;
  const ss::KvConformanceHarness harness(PbtOptions());
  for (size_t s = 0; s < kSeedsPerRound; ++s) {
    const uint64_t runner_seed = seed * 1000 + s;
    ss::PbtRunner<ss::KvOp> runner = harness.MakeRunner(PbtConfigFor(runner_seed, kCasesPerSeed));
    ss::Rng seeder(runner_seed);
    for (size_t c = 0; c < kCasesPerSeed; ++c) {
      cases.push_back(runner.Generate(seeder.Next()));
    }
  }
  return cases;
}

struct PbtFigures {
  uint64_t ops = 0;
  Nanos ns = 0;
};

// Runs every case once; each must pass.
PbtFigures RunCases(const std::vector<std::vector<ss::KvOp>>& cases,
                    const ss::KvHarnessOptions& options, Samples* case_us, RunResult& result) {
  PbtFigures out;
  for (const std::vector<ss::KvOp>& ops : cases) {
    ss::KvConformanceHarness harness(options);
    const Nanos start = NowNs();
    std::optional<std::string> error = harness.Run(ops);
    const Nanos elapsed = NowNs() - start;
    out.ns += elapsed;
    out.ops += ops.size();
    ++result.attempted;
    if (error.has_value()) {
      ++result.failed;
      result.Violation("kv PBT case failed with no seeded bug: " + *error);
      continue;
    }
    if (case_us != nullptr) {
      case_us->Add(static_cast<double>(elapsed) / 1e3);
    }
  }
  return out;
}

struct DfsFigures {
  ss::McResult mc;
  Nanos ns = 0;
};

DfsFigures ExhaustListRemove(RunResult& result) {
  ss::McOptions options;
  options.strategy = ss::McOptions::Strategy::kDfs;
  options.iterations = kDfsBound;
  const Nanos start = NowNs();
  DfsFigures out{ss::McExplore(ss::MakeListRemoveBody(), options), 0};
  out.ns = NowNs() - start;
  ++result.attempted;
  if (!out.mc.ok || !out.mc.exhausted) {
    ++result.failed;
    result.Violation("DFS of MakeListRemoveBody: ok=" + std::to_string(out.mc.ok) +
                     " exhausted=" + std::to_string(out.mc.exhausted) + " " + out.mc.error);
  }
  return out;
}

struct BugFigures {
  std::optional<ss::PbtFailure<ss::KvOp>> failure;
  Nanos ns = 0;
};

BugFigures DetectAndMinimizeBug2(RunResult& result) {
  ss::ScopedBug bug(ss::SeededBug::kCacheNotDrainedOnReset);
  const ss::KvConformanceHarness harness(PbtOptions());
  ss::PbtRunner<ss::KvOp> runner = harness.MakeRunner(PbtConfigFor(kBugSeed, kBugCaseBudget));
  const Nanos start = NowNs();
  BugFigures out{runner.Run(), 0};
  out.ns = NowNs() - start;
  ++result.attempted;
  if (!out.failure.has_value()) {
    ++result.failed;
    result.Violation("seeded bug #2 (kCacheNotDrainedOnReset) not detected");
  }
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void PrintConfig(const RunConfig& config) {
  std::printf(
      "config: workload=toolkit seed=%llu build=%s pbt=KvConformanceHarness(crashes) "
      "seeds_per_round=%zu cases_per_seed=%zu max_ops=%zu dfs=MakeListRemoveBody "
      "bug=#2 kCacheNotDrainedOnReset bug_seed=%llu shrink_cap=4000\n",
      static_cast<unsigned long long>(config.seed), PERFBENCH_BUILD_TYPE, kSeedsPerRound,
      kCasesPerSeed, kMaxOps, static_cast<unsigned long long>(kBugSeed));
}

RunResult RunToolkitTraced(const RunConfig& config) {
  RunResult result;
  PrintConfig(config);
  const std::vector<std::vector<ss::KvOp>> cases = GenerateCases(config.seed);

  // PBT untraced, then over TimedDisk: the tracing-overhead figure and the disk layer.
  const PbtFigures plain = RunCases(cases, PbtOptions(), nullptr, result);
  DiskCallStats disk;
  SpanLog spans;
  ss::KvHarnessOptions timed = PbtOptions();
  timed.disk_factory = [&disk, &spans](const ss::DiskGeometry& geometry) {
    return std::make_unique<TimedDisk>(std::make_unique<ss::InMemoryDisk>(geometry), &disk,
                                       &spans);
  };
  PbtFigures traced;
  {
    ScopedSpan span(&spans, "pbt.cases");
    traced = RunCases(cases, timed, nullptr, result);
  }
  DfsFigures dfs;
  {
    ScopedSpan span(&spans, "mc.dfs.exhaust");
    dfs = ExhaustListRemove(result);
  }
  BugFigures bug;
  {
    ScopedSpan span(&spans, "pbt.detect_minimize");
    bug = DetectAndMinimizeBug2(result);
  }
  ss::McOptions random;
  random.strategy = ss::McOptions::Strategy::kRandom;
  random.iterations = kRandomExecs;
  random.seed = config.seed;
  Nanos random_start = NowNs();
  ss::McResult fig4;
  {
    ScopedSpan span(&spans, "mc.random.fig4");
    fig4 = ss::McExplore(ss::MakeFig4IndexBody(), random);
  }
  const double random_s = static_cast<double>(NowNs() - random_start) / 1e9;
  ++result.attempted;
  if (!fig4.ok) {
    ++result.failed;
    result.Violation("Fig-4 random exploration failed with no seeded bug: " + fig4.error);
  }

  const double n_cases = static_cast<double>(cases.size());
  result.Add("pbt.ops_per_case", Ratio(static_cast<double>(plain.ops), n_cases), "count");
  result.Add("pbt.ns_per_op",
             Ratio(static_cast<double>(plain.ns), static_cast<double>(plain.ops)), "ns");
  if (bug.failure.has_value()) {
    result.Add("pbt.cases_to_detect", static_cast<double>(bug.failure->case_index + 1), "count");
    result.Add("pbt.shrink_runs", static_cast<double>(bug.failure->shrink_runs), "count");
    result.Add("pbt.minimized_ops", static_cast<double>(bug.failure->minimized.size()), "count");
  }
  result.Add("pbt.bug_minimize_ms", static_cast<double>(bug.ns) / 1e6, "ms");
  const double dfs_execs = static_cast<double>(dfs.mc.executions);
  const double dfs_steps = static_cast<double>(dfs.mc.total_steps);
  result.Add("mc.dfs.schedules", dfs_execs, "count");
  result.Add("mc.dfs.steps_per_exec", Ratio(dfs_steps, dfs_execs), "count");
  result.Add("mc.dfs.ns_per_step", Ratio(static_cast<double>(dfs.ns), dfs_steps), "ns");
  result.Add("mc.random.execs_per_s", Ratio(static_cast<double>(fig4.executions), random_s),
             "1/s");
  result.Add("mc.random.steps_per_exec",
             Ratio(static_cast<double>(fig4.total_steps), static_cast<double>(fig4.executions)),
             "count");
  result.Add("disk.busy_share",
             Ratio(static_cast<double>(disk.busy_ns()), static_cast<double>(traced.ns)), "share");
  result.Add("trace.ops_ratio",
             Ratio(static_cast<double>(plain.ns), static_cast<double>(traced.ns)), "x");

  std::printf("traced run: %zu PBT cases untraced %.3f s, over TimedDisk %.3f s; DFS %zu "
              "schedules in %.3f s; bug #2 at case %zu, %zu ops minimized to %zu\n",
              cases.size(), static_cast<double>(plain.ns) / 1e9,
              static_cast<double>(traced.ns) / 1e9, dfs.mc.executions,
              static_cast<double>(dfs.ns) / 1e9,
              bug.failure ? bug.failure->case_index + 1 : 0,
              bug.failure ? bug.failure->original.size() : 0,
              bug.failure ? bug.failure->minimized.size() : 0);
  const std::string span_path =
      config.trace_dir + "/spans-toolkit-" + std::to_string(config.seed) + ".csv";
  spans.PrintSummary();
  if (spans.WriteCsv(span_path)) {
    std::printf("spans: %s (%zu not retained)\n", span_path.c_str(), spans.dropped());
  }
  return result;
}

}  // namespace

RunResult RunToolkitWorkload(const RunConfig& config) {
  if (config.trace) {
    return RunToolkitTraced(config);
  }
  RunResult result;
  PrintConfig(config);

  // Set-up: generate the round's PBT inputs, several times for a median.
  Samples setup;
  std::vector<std::vector<ss::KvOp>> cases;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Nanos start = NowNs();
    cases = GenerateCases(config.seed);
    setup.Add(static_cast<double>(NowNs() - start) / 1e9);
  }

  Samples case_us;
  Samples dfs_us;
  Samples bug_us;
  Nanos pbt_ns = 0;
  size_t rounds = 0;
  const Nanos budget = static_cast<Nanos>(config.seconds * 1e9);
  const Nanos start = NowNs();
  do {
    pbt_ns += RunCases(cases, PbtOptions(), &case_us, result).ns;
    dfs_us.Add(static_cast<double>(ExhaustListRemove(result).ns) / 1e3);
    bug_us.Add(static_cast<double>(DetectAndMinimizeBug2(result).ns) / 1e3);
    ++rounds;
  } while (NowNs() - start < budget && result.correct);
  if (case_us.empty()) {
    return result;
  }

  result.Add("ops_per_s", static_cast<double>(case_us.size()) / (static_cast<double>(pbt_ns) / 1e9),
             "1/s");
  result.Add("p50_us", case_us.Quantile(0.50), "us");
  result.Add("p99_us", case_us.Quantile(0.99), "us");
  result.Add("heavy_p50_us", dfs_us.Quantile(0.50), "us");
  result.Add("setup_s", setup.Quantile(0.50), "s");

  std::printf("rounds: %zu in %.3f s; %zu PBT cases\n", rounds,
              static_cast<double>(NowNs() - start) / 1e9, case_us.size());
  std::printf("pbt_cases_per_s %.3f 1/s\n",
              static_cast<double>(case_us.size()) / (static_cast<double>(pbt_ns) / 1e9));
  std::printf("pbt_case_p99_us %.3f us (samples beyond: %zu)\n", case_us.Quantile(0.99),
              case_us.Beyond(0.99));
  if (auto tail = case_us.HighestTail()) {
    std::printf("pbt_case_tail: p%g = %.3f us, n=%zu, %zu samples beyond\n", tail->q * 100,
                tail->value, case_us.size(), tail->beyond);
  }
  std::printf("mc_exhaust_s %.6f s (median of %zu)\n", dfs_us.Quantile(0.50) / 1e6,
              dfs_us.size());
  std::printf("bug_minimize_s %.6f s (median of %zu)\n", bug_us.Quantile(0.50) / 1e6,
              bug_us.size());
  return result;
}

}  // namespace perfbench
