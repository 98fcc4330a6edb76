// Section 4.3 reproduction: automatic test-case minimization statistics. The paper's
// example: issue #9's first failing sequence had 61 operations (9 crashes, 14 writes,
// 226 KiB); the minimized one had 6 operations (1 crash, 2 writes, 2 B). This bench
// runs the minimizer against a spread of seeded bugs and prints the same shape:
// original vs minimized operation counts, crashes, writes, and written bytes.
//
//   $ ./build/bench/bench_minimization [seed]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/harness/fig5.h"
#include "src/harness/kv_harness.h"

using namespace ss;

namespace {

struct SeqStats {
  size_t ops = 0;
  size_t crashes = 0;
  size_t writes = 0;
  size_t bytes = 0;
};

SeqStats Analyze(const std::vector<KvOp>& ops) {
  SeqStats stats;
  stats.ops = ops.size();
  for (const KvOp& op : ops) {
    if (op.kind == KvOpKind::kDirtyReboot || op.kind == KvOpKind::kReboot) {
      ++stats.crashes;
    }
    if (op.kind == KvOpKind::kPut) {
      ++stats.writes;
      stats.bytes += op.value.size();
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? static_cast<uint64_t>(atoll(argv[1])) : 42;

  printf("=== Section 4.3: automatic minimization of failing sequences ===\n");
  printf("(paper example: 61 ops / 9 crashes / 14 writes / 226 KiB\n");
  printf("           ->    6 ops / 1 crash  /  2 writes / 2 B)\n\n");
  printf("%-38s %26s %26s %7s\n", "Seeded bug", "original (ops/cr/wr/bytes)",
         "minimized (ops/cr/wr/bytes)", "shrinks");
  printf("%.*s\n", 102,
         "--------------------------------------------------------------------------------"
         "-----------------------");

  const SeededBug bugs[] = {
      SeededBug::kReclaimOffByOnePageSize,
      SeededBug::kCacheNotDrainedOnReset,
      SeededBug::kShutdownMetadataSkipAfterReset,
      SeededBug::kSuperblockWrongOwnershipDep,
      SeededBug::kSoftPointerNotResetPersisted,
      SeededBug::kWriteMissingSoftPointerDep,
      SeededBug::kRecoveryWritePointerPastCrash,
      SeededBug::kReclaimUuidCollision,
  };

  double total_ratio = 0;
  int rows = 0;
  for (SeededBug bug : bugs) {
    ScopedBug scope(bug);
    KvHarnessOptions options;
    options.crashes = true;
    KvConformanceHarness harness(options);
    auto runner = harness.MakeRunner({.seed = seed, .num_cases = 5000, .max_ops = 80});
    auto failure = runner.Run();
    if (!failure.has_value()) {
      printf("%-38s not detected within budget\n",
             std::string(SeededBugName(bug)).c_str());
      continue;
    }
    const SeqStats before = Analyze(failure->original);
    const SeqStats after = Analyze(failure->minimized);
    char orig[32];
    char mini[32];
    snprintf(orig, sizeof(orig), "%zu/%zu/%zu/%zuB", before.ops, before.crashes,
             before.writes, before.bytes);
    snprintf(mini, sizeof(mini), "%zu/%zu/%zu/%zuB", after.ops, after.crashes,
             after.writes, after.bytes);
    printf("%-38s %26s %26s %7zu\n", std::string(SeededBugName(bug)).c_str(), orig, mini,
           failure->shrink_runs);
    if (before.ops > 0) {
      total_ratio += static_cast<double>(after.ops) / static_cast<double>(before.ops);
      ++rows;
    }
  }

  if (rows > 0) {
    printf("\nmean length ratio after minimization: %.2f (paper's example: %.2f)\n",
           total_ratio / rows, 6.0 / 61.0);
  }
  printf("minimization uses the paper's heuristics: remove operations (delta debugging),\n");
  printf("shrink arguments toward zero, prefer earlier alphabet variants.\n");
  return 0;
}
