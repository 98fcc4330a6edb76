// Disk-failure-domain tests: the node-level PBT harness, whose alphabet adds fault
// actions (transient bursts, permanent faults, degrade/evacuate, crash-reboots) to the
// request and control planes, plus directed scenarios for the health state machine,
// read-only degradation, evacuation, and the reconciliation of a returning disk.

#include <gtest/gtest.h>

#include "src/common/cover.h"
#include "src/faults/faults.h"
#include "src/harness/node_harness.h"

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

std::string Describe(const PbtFailure<NodeOp>& failure) {
  std::string out = failure.message + "\n  minimized:";
  for (const NodeOp& op : failure.minimized) {
    out += "\n    " + op.ToString();
  }
  return out;
}

class FailureSeeds : public testing::TestWithParam<uint64_t> {
 protected:
  FailureSeeds() { FaultRegistry::Global().DisableAll(); }
};

TEST_P(FailureSeeds, FaultAlphabetHarnessPasses) {
  NodeConformanceHarness harness{NodeHarnessOptions{}};
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
  NodeConformanceHarness harness{NodeHarnessOptions{}};
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
  // The control plane under fire: removals and restores with a fault armed, crashes
  // of a disk out of service, evacuations with a peer out, listings with a disk out,
  // and placement rerouted around a removed disk.
  EXPECT_GT(Coverage::Global().Count("node_harness.remove_with_fault_armed"), 0u);
  EXPECT_GT(Coverage::Global().Count("node_harness.restore_with_fault_armed"), 0u);
  EXPECT_GT(Coverage::Global().Count("node_harness.crash_out_of_service"), 0u);
  EXPECT_GT(Coverage::Global().Count("node_harness.evacuate_with_peer_out"), 0u);
  EXPECT_GT(Coverage::Global().Count("node_harness.list_with_disk_out"), 0u);
  EXPECT_GT(Coverage::Global().Count("rpc.placement_rerouted"), 0u);
}

// Minimized counterexamples the harness found once removals, restores and migrations
// met faults and crash-reboots in one alphabet. Each replays from its op list alone.
NodeOp DiskOp(NodeOpKind kind, uint32_t disk) {
  NodeOp op;
  op.kind = kind;
  op.disk = disk;
  return op;
}

NodeOp KeyOp(NodeOpKind kind, ShardId id, uint32_t disk = 0) {
  NodeOp op = DiskOp(kind, disk);
  op.id = id;
  return op;
}

NodeOp PutOp(ShardId id, size_t bytes) {
  NodeOp op = KeyOp(NodeOpKind::kPut, id);
  op.value = Bytes(bytes, static_cast<uint8_t>(0x40 + id));
  return op;
}

NodeOp BatchOp(const std::vector<std::pair<ShardId, size_t>>& items) {
  NodeOp op;
  op.kind = NodeOpKind::kPutBatch;
  for (const auto& [id, bytes] : items) {
    op.batch.emplace_back(id, Bytes(bytes, static_cast<uint8_t>(0x60 + id)));
  }
  return op;
}

NodeOp CrashOp(uint32_t disk, uint64_t seed) {
  NodeOp op = DiskOp(NodeOpKind::kCrashReboot, disk);
  op.seed = seed;
  return op;
}

NodeOp ArmOp(NodeOpKind kind, uint32_t disk, uint32_t extent, uint32_t count) {
  NodeOp op = DiskOp(kind, disk);
  op.extent = extent;
  op.count = count;
  return op;
}

TEST(NodeHarnessRegressions, MinimizedCounterexamplesPass) {
  FaultRegistry::Global().DisableAll();
  using K = NodeOpKind;
  const std::vector<std::pair<std::string, std::vector<NodeOp>>> cases = {
      // A crash dropped a delete on the shard's hash home: Get served the old value
      // but the listing, built from the directory, did not show it.
      {"resurrected-on-home shard is listed",
       {DiskOp(K::kRemoveDisk, 0), BatchOp({{11, 404}, {8, 189}, {10, 197}}),
        DiskOp(K::kEvacuateDisk, 1), KeyOp(K::kDelete, 11), CrashOp(2, 2913066889296395479ull),
        DiskOp(K::kList, 0)}},
      // A crash dropped a delete off the shard's hash home; RestoreDisk re-registered
      // every shard on the disk and routed the shard to the resurrected copy.
      {"restore does not route to a copy off the hash home",
       {BatchOp({{12, 513}}), DiskOp(K::kRemoveDisk, 0), DiskOp(K::kEvacuateDisk, 1),
        KeyOp(K::kDelete, 12), CrashOp(2, 12938605905768264476ull),
        DiskOp(K::kRemoveDisk, 2)}},
      // An evacuation stopped after copying onto a peer whose flush failed; a removal
      // flushed the copy and RestoreDisk routed the shard back to it.
      {"restore does not route to an aborted migration's copy",
       {ArmOp(K::kArmTransientWrite, 0, 1, 3), PutOp(2, 1), DiskOp(K::kEvacuateDisk, 2),
        DiskOp(K::kRemoveDisk, 0), PutOp(2, 0)}},
      // Removing the shard's hash home moved placement onto a disk whose old copy was
      // guarded only by an undurable delete; a crash brought the copy back.
      {"rerouted placement does not surface an undurable delete's copy",
       {PutOp(8, 0), DiskOp(K::kEvacuateDisk, 2), KeyOp(K::kDelete, 8),
        CrashOp(2, 8284479449307855772ull), DiskOp(K::kRemoveDisk, 2),
        CrashOp(0, 11676466286472300509ull)}},
      // A shard the crash lost falls back to a failed hash home: the adoption sweep
      // reads the recovered store, not the gated route.
      {"adoption reads a lost shard through the recovered store",
       {DiskOp(K::kRemoveDisk, 1), ArmOp(K::kArmPermanent, 1, 3, 1),
        BatchOp({{9, 283}, {8, 40}, {8, 499}, {12, 367}}), DiskOp(K::kRestoreDisk, 1),
        BatchOp({{8, 310}, {10, 288}}), CrashOp(2, 13218826643502791669ull)}},
      // The tombstone that dropped an orphan on return stayed in the memtable; a second
      // crash lost it, and the orphan came back under a newer, unflushed entry.
      {"an orphan's tombstone survives the next crash",
       {DiskOp(K::kRemoveDisk, 0), BatchOp({{10, 15}, {8, 198}, {9, 541}, {3, 11}, {13, 451}}),
        DiskOp(K::kFlushAll, 0), KeyOp(K::kDelete, 3), CrashOp(1, 6374712858116287791ull),
        PutOp(3, 0), CrashOp(1, 5181830403332047634ull)}},
      // A migration's source flush failed; a delete then dropped the entry, and a crash
      // of the source (the shard's hash home) brought back the pre-migration copy.
      {"a failed migration flush does not resurrect the source copy",
       {PutOp(12, 0), DiskOp(K::kFlushAll, 0), ArmOp(K::kArmTransientWrite, 1, 3, 3),
        KeyOp(K::kMigrate, 12, 2), KeyOp(K::kDelete, 12), DiskOp(K::kRemoveDisk, 2),
        CrashOp(1, 11048253979882855938ull)}},
      // A delete off the hash home was undurable; the home's own durable delete did not
      // guard that copy once placement rerouted a new put onto it and it crashed.
      {"a durable delete elsewhere does not unguard an old copy",
       {PutOp(15, 0), KeyOp(K::kMigrate, 15, 2), KeyOp(K::kDelete, 15), KeyOp(K::kDelete, 15),
        DiskOp(K::kRemoveDisk, 1), PutOp(15, 1), CrashOp(2, 1661592692522393372ull)}},
  };
  for (const auto& [name, ops] : cases) {
    const std::optional<std::string> error = NodeConformanceHarness(NodeHarnessOptions{}).Run(ops);
    EXPECT_FALSE(error.has_value()) << name << ": " << *error;
  }
}

// The strict out-of-service rule, on a fixed op sequence: once the owner of a shard is
// out of service, every request for the shard must fail with kUnavailable, and the
// oracle treats anything else — a success above all — as a violation.
TEST(NodeHarnessOracle, PutAfterRemovingItsOwnerMustBeUnavailable) {
  FaultRegistry::Global().DisableAll();
  const NodeHarnessOptions options;
  const ShardId id = 5;
  std::unique_ptr<NodeServer> node = std::move(NodeServer::Create(options.node).value());
  const int owner = node->DiskFor(id);
  ASSERT_TRUE(node->Put(id, BytesOf("before")).ok());
  ASSERT_TRUE(node->RemoveDiskFromService(owner).ok());
  EXPECT_EQ(node->Put(id, BytesOf("after")).code(), StatusCode::kUnavailable);

  auto op = [](NodeOpKind kind, uint32_t disk = 0) {
    NodeOp out;
    out.kind = kind;
    out.id = id;
    out.disk = disk;
    return out;
  };
  NodeOp put = op(NodeOpKind::kPut);
  put.value = BytesOf("before");
  NodeOp put_again = put;
  put_again.value = BytesOf("after");
  const auto disk = static_cast<uint32_t>(owner);
  const std::vector<NodeOp> ops = {put,
                                   op(NodeOpKind::kRemoveDisk, disk),
                                   put_again,
                                   op(NodeOpKind::kGet),
                                   op(NodeOpKind::kDelete),
                                   op(NodeOpKind::kList),
                                   op(NodeOpKind::kRestoreDisk, disk),
                                   op(NodeOpKind::kGet)};
  const std::optional<std::string> error = NodeConformanceHarness(options).Run(ops);
  EXPECT_FALSE(error.has_value()) << *error;

  // The oracle the harness judges that Put with: only kUnavailable passes on an
  // out-of-service route, even where a health gate or an armed fault would license
  // another error on an in-service one.
  const RouteState out_of_service{.in_service = false, .gated = true, .armed = true};
  EXPECT_FALSE(JudgeRequest(Status::Unavailable("out"), out_of_service, true).has_value());
  EXPECT_TRUE(JudgeRequest(Status::Ok(), out_of_service, true).has_value());
  EXPECT_TRUE(JudgeRequest(Status::IoError("burst"), out_of_service, true).has_value());
  EXPECT_TRUE(JudgeRequest(Status::ResourceExhausted("full"), out_of_service, true).has_value());
  const RouteState in_service{.in_service = true, .gated = true, .armed = true};
  EXPECT_FALSE(JudgeRequest(Status::Ok(), in_service, true).has_value());
  EXPECT_FALSE(JudgeRequest(Status::IoError("burst"), in_service, true).has_value());
}

}  // namespace
}  // namespace ss
