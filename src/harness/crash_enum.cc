#include "src/harness/crash_enum.h"

namespace ss {

namespace {

// One deterministic run: apply the ops through the kv harness's op step, crash with
// `plan`, recover, sweep. Returns the violation (if any) and reports the crash's
// decision count.
std::optional<std::string> RunOnce(const std::vector<KvOp>& ops,
                                   const KvHarnessOptions& options,
                                   const std::vector<bool>& plan, size_t* decisions_used) {
  KvRun run(options, ops);
  if (auto err = run.Open(); err.has_value()) {
    return err;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (auto err = run.Step(i); err.has_value()) {
      return err;
    }
  }
  run.store().scheduler().CrashScripted(plan, decisions_used);
  return run.RecoverFromCrash(ops.size());
}

}  // namespace

CrashEnumResult EnumerateCrashStates(const std::vector<KvOp>& ops,
                                     const CrashEnumOptions& options) {
  CrashEnumResult result;
  for (const KvOp& op : ops) {
    if (op.kind == KvOpKind::kReboot || op.kind == KvOpKind::kDirtyReboot ||
        op.kind == KvOpKind::kFailReadOnce || op.kind == KvOpKind::kFailWriteOnce) {
      result.violation = "op kind not supported by the crash enumerator: " + op.ToString();
      return result;
    }
  }
  KvHarnessOptions run_options;
  run_options.geometry = options.geometry;
  run_options.store = options.store;
  // DFS odometer over binary decision strings: false ("cut") is the first branch,
  // true ("persist") the second; depth adapts to the decisions each run consumes.
  std::vector<bool> plan;
  while (result.states_explored < options.max_states) {
    size_t used = 0;
    std::optional<std::string> violation = RunOnce(ops, run_options, plan, &used);
    ++result.states_explored;
    if (violation.has_value()) {
      result.violation = std::move(violation);
      result.violating_plan = plan;
      return result;
    }
    // Extend the path to the full decision depth of this run (unrecorded decisions
    // defaulted to false).
    while (plan.size() < used) {
      plan.push_back(false);
    }
    // Advance: deepest false -> true, truncating everything after it.
    while (!plan.empty() && plan.back()) {
      plan.pop_back();
    }
    if (plan.empty()) {
      result.exhausted = true;
      return result;
    }
    plan.back() = true;
  }
  return result;
}

}  // namespace ss
