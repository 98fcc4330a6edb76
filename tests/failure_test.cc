// Disk-failure-domain tests: the fault-alphabet PBT harness (transient bursts,
// permanent faults, degrade/evacuate, crash-reboots) plus directed scenarios for the
// health state machine, read-only degradation, and evacuation.

#include <gtest/gtest.h>

#include "src/common/cover.h"
#include "src/faults/faults.h"
#include "src/harness/failure_harness.h"

namespace ss {
namespace {

// --- Directed scenarios -------------------------------------------------------------

class DiskFailureDomainTest : public testing::Test {
 protected:
  DiskFailureDomainTest() {
    FaultRegistry::Global().DisableAll();
    NodeServerOptions options;
    options.disk_count = 3;
    options.geometry = DiskGeometry{.extent_count = 16, .pages_per_extent = 16,
                                    .page_size = 256};
    node_ = std::move(NodeServer::Create(options).value());
  }

  // A shard id routed to `disk`.
  ShardId ShardOn(int disk) {
    ShardId id = 0;
    while (node_->DiskFor(id) != disk) {
      ++id;
    }
    return id;
  }

  std::unique_ptr<NodeServer> node_;
};

TEST_F(DiskFailureDomainTest, DegradedDiskIsReadOnly) {
  const ShardId id = ShardOn(0);
  ASSERT_TRUE(node_->Put(id, BytesOf("before")).ok());
  ASSERT_TRUE(node_->MarkDiskDegraded(0).ok());
  EXPECT_EQ(node_->Health(0), DiskHealth::kDegraded);
  // Reads still serve; mutations are refused.
  EXPECT_EQ(node_->Get(id).value().value, BytesOf("before"));
  EXPECT_EQ(node_->Put(id, BytesOf("after")).code(), StatusCode::kUnavailable);
  EXPECT_EQ(node_->Delete(id).code(), StatusCode::kUnavailable);
  // Back to healthy: mutations work again.
  ASSERT_TRUE(node_->ResetDiskHealth(0).ok());
  EXPECT_TRUE(node_->Put(id, BytesOf("after")).ok());
  EXPECT_EQ(node_->Get(id).value().value, BytesOf("after"));
}

TEST_F(DiskFailureDomainTest, EvacuateDegradedDiskKeepsServingEveryShard) {
  std::map<ShardId, Bytes> contents;
  for (ShardId id = 0; id < 24; ++id) {
    Bytes value = BytesOf("value-" + std::to_string(id));
    ASSERT_TRUE(node_->Put(id, value).ok());
    contents[id] = value;
  }
  ASSERT_TRUE(node_->MarkDiskDegraded(0).ok());
  ASSERT_TRUE(node_->EvacuateDisk(0).ok());
  // Nothing routes to the degraded disk any more and every shard still serves.
  for (const auto& [id, value] : contents) {
    EXPECT_NE(node_->DiskFor(id), 0) << "shard " << id << " left on the degraded disk";
    EXPECT_EQ(node_->Get(id).value().value, value);
  }
  // The drained disk's store is empty.
  EXPECT_EQ(node_->store(0)->List().value().size(), 0u);
}

TEST_F(DiskFailureDomainTest, PermanentFaultFailsHealthAndGatesTheDisk) {
  const ShardId id = ShardOn(1);
  ASSERT_TRUE(node_->Put(id, BytesOf("v")).ok());
  // Fail every extent: whichever chunk the shard landed in is dead.
  ScopedFault guard(node_->disk(1).fault_injector());
  for (ExtentId e = 1; e < 16; ++e) {
    node_->disk(1).fault_injector().FailAlways(e, true);
  }
  EXPECT_EQ(node_->Get(id).code(), StatusCode::kDiskFailed);
  // The error-budget tracker propagated into the node's health state.
  EXPECT_EQ(node_->Health(1), DiskHealth::kFailed);
  // A failed disk serves nothing, reads included.
  EXPECT_EQ(node_->Get(id).code(), StatusCode::kUnavailable);
  EXPECT_EQ(node_->Put(id, BytesOf("w")).code(), StatusCode::kUnavailable);
  // Repair: clear the faults, reset health — data was never lost.
  node_->disk(1).fault_injector().Clear();
  ASSERT_TRUE(node_->ResetDiskHealth(1).ok());
  EXPECT_EQ(node_->Get(id).value().value, BytesOf("v"));
}

TEST_F(DiskFailureDomainTest, CrashRebootKeepsFlushedDataAndClearsFaults) {
  const ShardId id = ShardOn(2);
  ASSERT_TRUE(node_->Put(id, BytesOf("durable")).ok());
  ASSERT_TRUE(node_->FlushAllDisks().ok());
  node_->disk(2).fault_injector().FailAlways(3, true);
  ASSERT_TRUE(node_->CrashAndRecoverDisk(2, /*crash_seed=*/7).ok());
  EXPECT_EQ(node_->Health(2), DiskHealth::kHealthy);
  EXPECT_FALSE(node_->disk(2).fault_injector().AnyArmed());
  EXPECT_EQ(node_->Get(id).value().value, BytesOf("durable"));
}

TEST_F(DiskFailureDomainTest, MigrationIsDurableAgainstTargetCrash) {
  const ShardId id = ShardOn(0);
  ASSERT_TRUE(node_->Put(id, BytesOf("moved")).ok());
  ASSERT_TRUE(node_->MigrateShard(id, 1).ok());
  ASSERT_EQ(node_->DiskFor(id), 1);
  // The migrated copy was flushed before the routing commit: an immediate crash of
  // the target cannot lose it.
  ASSERT_TRUE(node_->CrashAndRecoverDisk(1, /*crash_seed=*/11).ok());
  EXPECT_EQ(node_->DiskFor(id), 1);
  EXPECT_EQ(node_->Get(id).value().value, BytesOf("moved"));
}

TEST_F(DiskFailureDomainTest, SourceCrashDoesNotResurrectMigratedShard) {
  const ShardId id = ShardOn(0);
  ASSERT_TRUE(node_->Put(id, BytesOf("v1")).ok());
  ASSERT_TRUE(node_->MigrateShard(id, 1).ok());
  ASSERT_TRUE(node_->Put(id, BytesOf("v2")).ok());  // newer value on the target
  // Crash the source: its flushed tombstone must keep the stale v1 copy from
  // stealing routing back.
  ASSERT_TRUE(node_->CrashAndRecoverDisk(0, /*crash_seed=*/13).ok());
  EXPECT_EQ(node_->DiskFor(id), 1);
  EXPECT_EQ(node_->Get(id).value().value, BytesOf("v2"));
}

// --- Metric-delta oracles -----------------------------------------------------------

// A storm of N one-shot transient read faults is absorbed entirely by the retry
// layer: exactly N extent.retry.absorbed increments, zero exhausted budgets, and N
// successful Gets — asserted on MetricsSnapshot() deltas, not ad-hoc struct reads.
TEST_F(DiskFailureDomainTest, AbsorbedFaultStormCountsExactlyInMetrics) {
  constexpr int kStorm = 5;
  const ShardId id = ShardOn(0);
  ASSERT_TRUE(node_->Put(id, BytesOf("stormy")).ok());
  // No flush: the index entry stays in the memtable, so each Get below performs
  // exactly one extent read (the chunk frame) once the cache is dropped.
  const MetricsSnapshot before = node_->MetricsSnapshot();
  ScopedFault guard(node_->disk(0).fault_injector());
  for (int i = 0; i < kStorm; ++i) {
    node_->store(0)->cache().Clear();  // force the read through to the extent layer
    for (ExtentId e = 1; e < 16; ++e) {
      node_->disk(0).fault_injector().FailReadTimes(e, 1);
    }
    ASSERT_EQ(node_->Get(id).value().value, BytesOf("stormy")) << "storm iteration " << i;
    node_->disk(0).fault_injector().Clear();
  }
  const MetricsSnapshot after = node_->MetricsSnapshot();
  EXPECT_EQ(CounterDelta(before, after, "extent.retry.absorbed"), kStorm);
  EXPECT_EQ(CounterDelta(before, after, "extent.retry.exhausted"), 0u);
  EXPECT_EQ(CounterDelta(before, after, "extent.retry.transient_faults"), kStorm);
  EXPECT_EQ(CounterDelta(before, after, "rpc.get.ok"), kStorm);
  EXPECT_EQ(CounterDelta(before, after, "rpc.get.err"), 0u);
  // The storm stayed inside the error budget: the disk never left healthy.
  EXPECT_EQ(node_->Health(0), DiskHealth::kHealthy);
}

// A transient burst longer than the attempt budget exhausts it: the IO escalates to
// kIoError and the snapshot shows exactly one exhausted budget and zero absorptions.
TEST_F(DiskFailureDomainTest, ExhaustedRetryBudgetCountsExactlyInMetrics) {
  const ShardId id = ShardOn(0);
  ASSERT_TRUE(node_->Put(id, BytesOf("doomed")).ok());
  const MetricsSnapshot before = node_->MetricsSnapshot();
  ScopedFault guard(node_->disk(0).fault_injector());
  node_->store(0)->cache().Clear();
  for (ExtentId e = 1; e < 16; ++e) {
    // The extent layer makes 3 attempts per IO (default common::RetryOptions) and the
    // store layer retries the whole read 4 times against reclamation races: 12 armed
    // failures outlast both budgets.
    node_->disk(0).fault_injector().FailReadTimes(e, 12);
  }
  EXPECT_EQ(node_->Get(id).code(), StatusCode::kIoError);
  const MetricsSnapshot after = node_->MetricsSnapshot();
  EXPECT_EQ(CounterDelta(before, after, "extent.retry.exhausted"), 4u);
  EXPECT_EQ(CounterDelta(before, after, "extent.retry.absorbed"), 0u);
  EXPECT_EQ(CounterDelta(before, after, "extent.retry.transient_faults"), 12u);
  EXPECT_EQ(CounterDelta(before, after, "rpc.get.err"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "rpc.get.ok"), 0u);
  // 12 windowed transient errors burned through the degrade budget.
  EXPECT_EQ(node_->Health(0), DiskHealth::kDegraded);
}

// --- The fault-alphabet property ----------------------------------------------------

std::string Describe(const PbtFailure<FailureOp>& failure) {
  std::string out = failure.message + "\n  minimized:";
  for (const FailureOp& op : failure.minimized) {
    out += "\n    " + op.ToString();
  }
  return out;
}

class FailureSeeds : public testing::TestWithParam<uint64_t> {
 protected:
  FailureSeeds() { FaultRegistry::Global().DisableAll(); }
};

TEST_P(FailureSeeds, FaultAlphabetHarnessPasses) {
  FailureConformanceHarness harness{FailureHarnessOptions{}};
  MetricRegistry pbt_metrics;
  auto runner = harness.MakeRunner(
      {.seed = GetParam(), .num_cases = 170, .max_ops = 50, .metrics = &pbt_metrics});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << Describe(*failure);
  // Three seeds x 170 cases = 510 mixed op/fault cases with zero violations.
  EXPECT_EQ(runner.stats().cases_run, 170u);
  // The runner mirrors its progress into the registry: same totals, one snapshot.
  MetricsSnapshot snap = pbt_metrics.Snapshot();
  EXPECT_EQ(snap.counter("pbt.cases_run"), 170u);
  EXPECT_EQ(snap.counter("pbt.ops_run"), runner.stats().ops_run);
  EXPECT_EQ(snap.counter("pbt.failures"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureSeeds, testing::Values(1u, 2u, 3u));

TEST(FailureCoverage, HarnessReachesTheInterestingPaths) {
  Coverage::Global().Reset();
  FailureConformanceHarness harness{FailureHarnessOptions{}};
  auto runner = harness.MakeRunner({.seed = 99, .num_cases = 120, .max_ops = 50});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << Describe(*failure);
  // Retries both absorbed blips and exhausted budgets; health auto-transitions,
  // evacuations and crash-reboots all actually happened.
  EXPECT_GT(Coverage::Global().Count("extent_manager.retry_absorbed_fault"), 0u);
  EXPECT_GT(Coverage::Global().Count("extent_manager.retry_budget_exhausted"), 0u);
  EXPECT_GT(Coverage::Global().Count("rpc.evacuate_disk"), 0u);
  EXPECT_GT(Coverage::Global().Count("rpc.crash_recover_disk"), 0u);
  EXPECT_GT(Coverage::Global().Count("rpc.migrate_shard"), 0u);
}

}  // namespace
}  // namespace ss
