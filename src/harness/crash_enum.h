// Exhaustive block-level crash-state enumeration (paper section 5, "Block-level crash
// states"): the BOB / CrashMonkey-style variant of DirtyReboot that enumerates *every*
// dependency-allowed crash state of a workload instead of sampling them. The paper
// implemented this, found no additional bugs over the coarse sampled approach, and
// measured it dramatically slower — bench/bench_crash_enumeration reproduces that
// comparison; this header provides the machinery.
//
// Enumeration works by re-running the (deterministic) workload once per crash decision
// script: the scheduler's crash procedure makes a sequence of binary persist/cut
// decisions, and a DFS odometer walks all decision strings (adaptive depth — persisting
// a record can unblock more candidates).

#ifndef SS_HARNESS_CRASH_ENUM_H_
#define SS_HARNESS_CRASH_ENUM_H_

#include <optional>
#include <string>
#include <vector>

#include "src/harness/kv_harness.h"

namespace ss {

struct CrashEnumResult {
  size_t states_explored = 0;
  bool exhausted = false;  // every crash state visited (vs. cap hit)
  // First violation found, if any.
  std::optional<std::string> violation;
  std::vector<bool> violating_plan;
};

struct CrashEnumOptions {
  DiskGeometry geometry{.extent_count = 24, .pages_per_extent = 16, .page_size = 256};
  ShardStoreOptions store;
  size_t max_states = 100000;
};

// Runs `ops` from a fresh store through the kv harness's op step (reboots, crashes and
// fault injection are rejected), then enumerates every crash state at the end of the
// sequence: for each, recovers and checks the section-5 persistence/consistency sweep
// against the crash-allowed sets of the reference model.
CrashEnumResult EnumerateCrashStates(const std::vector<KvOp>& ops,
                                     const CrashEnumOptions& options);

}  // namespace ss

#endif  // SS_HARNESS_CRASH_ENUM_H_
