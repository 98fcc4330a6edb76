// Section 6 concurrency checking: the model-checked scenarios pass on the correct
// implementation (across strategies), and each seeded concurrency bug is caught.

#include <gtest/gtest.h>

#include "src/faults/faults.h"
#include "src/harness/concurrency.h"
#include "src/mc/mc.h"

namespace ss {
namespace {

McOptions Pct(size_t iterations, uint64_t seed = 1) {
  McOptions options;
  options.strategy = McOptions::Strategy::kPct;
  options.iterations = iterations;
  options.seed = seed;
  return options;
}

McOptions RandomWalk(size_t iterations, uint64_t seed = 1) {
  McOptions options;
  options.strategy = McOptions::Strategy::kRandom;
  options.iterations = iterations;
  options.seed = seed;
  return options;
}

class ConcurrencyBaseline : public testing::TestWithParam<uint64_t> {
 protected:
  ConcurrencyBaseline() { FaultRegistry::Global().DisableAll(); }
};

TEST_P(ConcurrencyBaseline, Fig4IndexHarnessPasses) {
  McResult result = McExplore(MakeFig4IndexBody(), Pct(150, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, FlushReclaimPasses) {
  McResult result = McExplore(MakeFlushReclaimBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, ScanFlushPasses) {
  McResult result = McExplore(MakeScanFlushBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, ScanCompactLevelPasses) {
  McResult result = McExplore(MakeScanCompactBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, CompactLevelReclaimPasses) {
  McResult result = McExplore(MakeCompactLevelReclaimBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, BufferPoolPasses) {
  McResult result = McExplore(MakeBufferPoolBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, ListRemovePasses) {
  McResult result = McExplore(MakeListRemoveBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, BulkAtomicityPasses) {
  McResult result = McExplore(MakeBulkAtomicityBody(), Pct(200, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, LinearizabilityHolds) {
  McResult result = McExplore(MakeLinearizabilityBody(), Pct(150, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, PutMigratePasses) {
  McResult result = McExplore(MakePutMigrateBody(), Pct(300, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, PutEvacuatePasses) {
  McResult result = McExplore(MakePutEvacuateBody(), Pct(300, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(ConcurrencyBaseline, PutBatchMigratePasses) {
  McResult result = McExplore(MakePutBatchMigrateBody(), Pct(300, GetParam()));
  EXPECT_TRUE(result.ok) << result.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrencyBaseline, testing::Values(1, 17, 4242));

// Regression for the routing-commit clobber: the pre-fix Put captured its route, then
// unconditionally wrote directory[id] = disk after the store call, overwriting a
// concurrent migration's commit and leaving the directory pointing at the tombstoned
// source copy. Seeded bug #19 resurrects that commit so the model checker can keep
// demonstrating the failure it used to cause.
TEST(RoutingCommitClobber, LegacyUnconditionalCommitLosesTheShard) {
  FaultRegistry::Global().DisableAll();
  ScopedBug bug(SeededBug::kUnconditionalRouteCommit);
  McResult result = McExplore(MakePutMigrateBody(), Pct(3000, 42));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.deadlock);
  EXPECT_NE(result.error.find("shard"), std::string::npos) << result.error;
}

TEST(RoutingCommitClobber, FixedCommitSurvivesTheSameBudget) {
  FaultRegistry::Global().DisableAll();
  McResult result = McExplore(MakePutMigrateBody(), Pct(3000, 42));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ConcurrencyBaseline, RandomWalkAlsoPasses) {
  FaultRegistry::Global().DisableAll();
  EXPECT_TRUE(McExplore(MakeFig4IndexBody(), RandomWalk(150)).ok);
  EXPECT_TRUE(McExplore(MakeLinearizabilityBody(), RandomWalk(150)).ok);
}

// The buffer-pool harness is small enough for exhaustive DFS — the Loom-style sound
// check on correctness-critical primitives.
TEST(ConcurrencyBaseline, BufferPoolExhaustiveDfs) {
  FaultRegistry::Global().DisableAll();
  McOptions options;
  options.strategy = McOptions::Strategy::kDfs;
  options.iterations = 2000000;
  McResult result = McExplore(MakeBufferPoolBody(), options);
  EXPECT_TRUE(result.ok) << result.error;
}

class SeededConcurrencyBugs : public testing::Test {
 protected:
  SeededConcurrencyBugs() { FaultRegistry::Global().DisableAll(); }
};

TEST_F(SeededConcurrencyBugs, Bug11LocatorRaceCaught) {
  ScopedBug bug(SeededBug::kLocatorInvalidOnWriteFlushRace);
  McResult result = McExplore(MakeFig4IndexBody(), Pct(2000, 42));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.deadlock);
}

TEST_F(SeededConcurrencyBugs, Bug12BufferPoolDeadlockCaught) {
  ScopedBug bug(SeededBug::kBufferPoolDeadlock);
  McResult result = McExplore(MakeBufferPoolBody(), Pct(2000, 42));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.deadlock);
  EXPECT_FALSE(result.failing_schedule.empty());
}

TEST_F(SeededConcurrencyBugs, Bug13ListRemoveRaceCaught) {
  ScopedBug bug(SeededBug::kListRemoveRace);
  McResult result = McExplore(MakeListRemoveBody(), Pct(3000, 42));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("missed"), std::string::npos);
}

TEST_F(SeededConcurrencyBugs, Bug14FlushReclaimRaceCaught) {
  ScopedBug bug(SeededBug::kCompactReclaimMetadataRace);
  McResult result = McExplore(MakeFlushReclaimBody(), Pct(4000, 1));
  EXPECT_FALSE(result.ok);
}

// The leveled-compaction tombstone-lifetime bug: dropping tombstones during a
// non-bottom merge resurrects the deleted key once the younger run is gone. The
// scan/compact harness catches it even single-threaded, so a modest budget suffices.
TEST_F(SeededConcurrencyBugs, TombstoneDropAboveBottomCaught) {
  ScopedBug bug(SeededBug::kDropTombstonesAboveBottom);
  McResult result = McExplore(MakeScanCompactBody(), Pct(500, 42));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.deadlock);
  EXPECT_NE(result.error.find("resurrected"), std::string::npos) << result.error;
}

TEST_F(SeededConcurrencyBugs, Bug16BulkRaceCaught) {
  ScopedBug bug(SeededBug::kBulkCreateRemoveRace);
  McResult result = McExplore(MakeBulkAtomicityBody(), Pct(2000, 42));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("atomic"), std::string::npos);
}

// Reproduces the paper's observation that randomized PCT finds depth-limited bugs that
// plain random walks miss at equal budgets (section 6's tooling trade-off).
TEST_F(SeededConcurrencyBugs, PctOutperformsRandomOnBug14) {
  ScopedBug bug(SeededBug::kCompactReclaimMetadataRace);
  McResult random = McExplore(MakeFlushReclaimBody(), RandomWalk(400, 7));
  McResult pct = McExplore(MakeFlushReclaimBody(), Pct(4000, 1));
  EXPECT_TRUE(random.ok);   // random misses at this budget
  EXPECT_FALSE(pct.ok);     // PCT finds it
}

}  // namespace
}  // namespace ss
