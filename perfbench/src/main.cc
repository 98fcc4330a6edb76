// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-dir <dir>]
//   perfbench --self-test
//
// Workloads: read_zipf, overwrite_churn, durable_small_file (requests through
// NodeServer) and toolkit (PBT, DFS model checking, bug minimization). With --trace 0
// the run measures for --seconds and prints the end-to-end metrics; with --trace 1 it
// runs a fixed amount of work with the benchmark's spans and counters on and prints
// the per-layer metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Any output that disagrees with the reference checks makes "correct" false and the
// exit code 1.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every --trace 0 run. "Op" is the workload's
// unit of work: one request (read_zipf, overwrite_churn, durable_small_file) or one
// kv PBT case (toolkit). The heavy op is Scan (read_zipf), the durable Put
// (overwrite_churn, durable_small_file), or one DFS exhaustion (toolkit).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},   {"p50_us", "us"}, {"p99_us", "us"},
    {"heavy_p50_us", "us"}, {"setup_s", "s"},
};

// Every per-layer metric, printed by every --trace 1 run (0 where the workload does
// not exercise the layer).
constexpr MetricDef kPerLayer[] = {
    {"lsm.bloom_skips_per_get", "count"},
    {"lsm.run_probes_per_get", "count"},
    {"lsm.bloom_fp_per_get", "count"},
    {"lsm.runs_at_end", "count"},
    {"chunk.gets_per_get", "count"},
    {"chunk.gets_per_scan_item", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_op", "count"},
    {"cache.misses_per_get", "count"},
    {"disk.read_pages_per_get", "count"},
    {"kv.reclaim_any_ns", "ns"},
    {"kv.reclaim_any_calls", "count"},
    {"kv.maintenance_share", "share"},
    {"chunk.gets_per_reclaim", "count"},
    {"chunk.evacuated_per_reclaim", "count"},
    {"chunk.dropped_per_reclaim", "count"},
    {"chunk.reclaim_yield", "ratio"},
    {"disk.fsyncs_per_write", "count"},
    {"disk.sync_ns_per_write", "ns"},
    {"extent.soft_wp_updates_per_write", "count"},
    {"rpc.flush_all_ns", "ns"},
    {"lsm.flushes_per_write", "count"},
    {"lsm.level_compactions_per_write", "count"},
    {"io.enqueued_per_write", "count"},
    {"io.issued_per_write", "count"},
    {"io.coalesced_pages_per_write", "count"},
    {"chunk.puts_per_write", "count"},
    {"disk.bytes_written_per_user_byte", "ratio"},
    {"disk.busy_share", "share"},
    {"rpc.get_ns", "ns"},
    {"rpc.put_ns", "ns"},
    {"rpc.scan_ns", "ns"},
    {"rpc.err_per_op", "ratio"},
    {"kv.get_ns", "ns"},
    {"kv.put_ns", "ns"},
    {"kv.scan_ns", "ns"},
    {"kv.flush_all_ns", "ns"},
    {"extent.retry_attempts", "count"},
    {"space.amp", "ratio"},
    {"trace.ops_ratio", "x"},
    {"pbt.ops_per_case", "count"},
    {"pbt.ns_per_op", "ns"},
    {"pbt.cases_to_detect", "count"},
    {"pbt.shrink_runs", "count"},
    {"pbt.minimized_ops", "count"},
    {"pbt.bug_minimize_ms", "ms"},
    {"mc.dfs.schedules", "count"},
    {"mc.dfs.steps_per_exec", "count"},
    {"mc.dfs.ns_per_step", "ns"},
    {"mc.random.execs_per_s", "1/s"},
    {"mc.random.steps_per_exec", "count"},
};

// Pins the process (and every thread it starts later) to one CPU it may run on. The
// client is one thread, and the model checker's threads hand a baton to each other:
// on one CPU a handoff is a local context switch instead of a wake-up of another,
// possibly idle, virtual CPU, whose latency swings with the host's load.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <read_zipf|overwrite_churn|durable_small_file|"
               "toolkit> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-dir <dir>]\n"
               "       perfbench --self-test [--work-dir <dir>] [--trace-dir <dir>]\n");
}

// Orders the run's metrics as the table does, checks names and units, and fills the
// table's metrics a workload does not exercise with 0. Returns false on a mismatch
// (a bug in the benchmark, not in the program under test).
template <size_t N>
bool Canonicalize(const MetricDef (&defs)[N], bool zero_fill, RunResult& result) {
  std::map<std::string, Metric> by_name;
  for (Metric& metric : result.metrics) {
    by_name[metric.name] = std::move(metric);
  }
  std::vector<Metric> ordered;
  for (const MetricDef& def : defs) {
    auto it = by_name.find(def.name);
    if (it == by_name.end()) {
      if (!zero_fill) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
        return false;
      }
      ordered.push_back(Metric{def.name, 0.0, def.unit});
      continue;
    }
    if (it->second.unit != def.unit || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s (want %s) or a non-finite value\n",
                   def.name, it->second.unit.c_str(), def.unit);
      return false;
    }
    ordered.push_back(std::move(it->second));
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    std::fprintf(stderr, "perfbench: metric %s is not in the table\n",
                 by_name.begin()->first.c_str());
    return false;
  }
  result.metrics = std::move(ordered);
  return true;
}

std::string JsonLine(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += first ? "" : ", ";
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
           "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if ((value = next()) == nullptr) {
      Usage();
      return 2;
    }
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--trace-dir") {
      config.trace_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  std::filesystem::create_directories(config.trace_dir, ec);
  if (self_test) {
    return RunSelfTest(config);
  }
  const bool toolkit = config.workload == "toolkit";
  if (!have_workload || (!toolkit && !IsRequestWorkload(config.workload)) ||
      !(config.seconds > 0)) {
    Usage();
    return 2;
  }

  std::printf("pinned to cpu %d\n", PinToOneCpu());
  RunResult result = toolkit ? RunToolkitWorkload(config) : RunRequestWorkload(config);
  for (const std::string& violation : result.violations) {
    std::printf("VIOLATION: %s\n", violation.c_str());
  }
  if (!result.correct) {
    // A wrong output fails the run; it is never folded into a metric.
    std::printf("%s\n", JsonLine(result).c_str());
    return 1;
  }
  const bool ok = config.trace ? Canonicalize(kPerLayer, /*zero_fill=*/true, result)
                               : Canonicalize(kEndToEnd, /*zero_fill=*/false, result);
  if (!ok || result.attempted == 0) {
    return 3;
  }
  std::printf("%s\n", JsonLine(result).c_str());
  return 0;
}
