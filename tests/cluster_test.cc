// Cluster-tier tests: ring placement and rebalance bounds, quorum
// success/degraded/failed paths, read-repair convergence, hinted handoff, the
// failure-detector ladder, membership rebalancing under partitions, the shared
// RetryPolicy, the PBT fault storm, seeded bug #17, and the model-checked cross-node
// linearizability properties (including the R+W<=N stale-read counterexample and its
// replayable flight artifact).

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "src/cluster/coordinator.h"
#include "src/common/retry_policy.h"
#include "src/faults/faults.h"
#include "src/harness/cluster_harness.h"
#include "src/mc/mc.h"
#include "src/obs/cluster_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/sync/sync.h"

namespace ss {
namespace {

using cluster::ClusterCoordinator;
using cluster::ClusterNet;
using cluster::ClusterOptions;
using cluster::HashRing;
using cluster::NodeHealth;
using cluster::QuorumOutcome;
using cluster::QuorumResult;
using cluster::ReplicaRecord;

ClusterOptions SmallOptions(int nodes = 3) {
  ClusterOptions options;
  options.initial_nodes = nodes;
  options.replication = 3;
  options.read_quorum = 2;
  options.write_quorum = 2;
  options.vnodes = 8;
  options.node.disk_count = 1;
  options.node.geometry = DiskGeometry{.extent_count = 16, .pages_per_extent = 16,
                                       .page_size = 256};
  return options;
}

std::unique_ptr<ClusterCoordinator> MakeCluster(const ClusterOptions& options) {
  auto cluster_or = ClusterCoordinator::Create(options);
  EXPECT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  return std::move(cluster_or).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- Ring placement -------------------------------------------------------------------

TEST(HashRing, SpreadsKeysAcrossMembers) {
  HashRing ring(32);
  for (int n = 0; n < 5; ++n) {
    ring.AddNode(n);
  }
  std::map<int, int> primaries;
  const int kKeys = 2000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    primaries[ring.Owners(key, 1).front()]++;
  }
  for (int n = 0; n < 5; ++n) {
    // A perfectly even split is 400 per node; virtual nodes keep every member within
    // a loose band of it.
    EXPECT_GT(primaries[n], kKeys / 20) << "node " << n << " nearly starved";
    EXPECT_LT(primaries[n], kKeys / 2) << "node " << n << " dominates the ring";
  }
}

TEST(HashRing, JoinMovesABoundedFractionAndLeaveRestoresIt) {
  HashRing ring(16);
  for (int n = 0; n < 4; ++n) {
    ring.AddNode(n);
  }
  const int kKeys = 500;
  std::map<uint64_t, std::vector<int>> before;
  for (uint64_t key = 0; key < kKeys; ++key) {
    before[key] = ring.Owners(key, 3);
  }
  ring.AddNode(4);
  int moved = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    if (ring.Owners(key, 3) != before[key]) {
      ++moved;
    }
  }
  // Adding a fifth member must move some replica sets but nowhere near all of them
  // (the consistent-hashing churn bound; a modulo ring would reshuffle ~everything).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, (kKeys * 3) / 4) << "join reshuffled most of the keyspace";
  // Removing the node reprojects the identical vnode points, so ownership snaps back
  // exactly — the property NodeLeave's rollback path depends on.
  ring.RemoveNode(4);
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(ring.Owners(key, 3), before[key]);
  }
}

// --- Quorum paths ---------------------------------------------------------------------

TEST(ClusterQuorum, CleanWriteReplicatesEverywhereAndTraces) {
  auto cluster = MakeCluster(SmallOptions());
  const Bytes value = BytesOf("clean");
  const QuorumResult put = cluster->Put(5, value);
  ASSERT_TRUE(put.ok()) << put.status.ToString();
  EXPECT_EQ(put.outcome, QuorumOutcome::kOk);
  EXPECT_EQ(put.acks, 3);
  EXPECT_EQ(put.required, 2);
  EXPECT_NE(put.trace_id, 0u);
  for (const int owner : cluster->OwnersOf(5)) {
    auto rec = cluster->DebugReplicaRead(owner, 5).value();
    ASSERT_TRUE(rec.has_value()) << "owner " << owner << " missed the write";
    EXPECT_EQ(rec->value, value);
    EXPECT_FALSE(rec->tombstone);
  }
  const QuorumResult get = cluster->Get(5);
  ASSERT_TRUE(get.ok());
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, value);
  EXPECT_EQ(get.version, put.version);
  // Every client op roots a span tree over the fan-out.
  EXPECT_GE(cluster->spans().total_started(), 2u);
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_EQ(snap.counter("cluster.put.ok"), 1u);
  EXPECT_EQ(snap.counter("cluster.get.ok"), 1u);
}

TEST(ClusterQuorum, DeleteIsATombstoneAndReadsMissing) {
  auto cluster = MakeCluster(SmallOptions());
  ASSERT_TRUE(cluster->Put(9, BytesOf("doomed")).ok());
  const QuorumResult del = cluster->Delete(9);
  ASSERT_TRUE(del.ok()) << del.status.ToString();
  const QuorumResult get = cluster->Get(9);
  EXPECT_EQ(get.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(get.found);
  // The tombstone still carries the delete's version: that is what keeps a replayed
  // older Put from resurrecting the key.
  EXPECT_EQ(get.version, del.version);
  auto rec = cluster->DebugReplicaRead(cluster->OwnersOf(9).front(), 9).value();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->tombstone);
}

TEST(ClusterQuorum, CrashedReplicaDegradesWritesAndHintsReplay) {
  auto cluster = MakeCluster(SmallOptions());
  const std::vector<int> owners = cluster->OwnersOf(11);
  ASSERT_TRUE(cluster->CrashNode(owners[2]).ok());
  const Bytes value = BytesOf("degraded");
  const QuorumResult put = cluster->Put(11, value);
  ASSERT_TRUE(put.ok()) << put.status.ToString();
  EXPECT_EQ(put.outcome, QuorumOutcome::kDegraded);
  EXPECT_EQ(put.acks, 2);
  EXPECT_EQ(put.hints_stored, 1);
  EXPECT_EQ(cluster->HintCount(), 1u);
  ASSERT_FALSE(cluster->DebugReplicaRead(owners[2], 11).value().has_value());
  // Restart + one maintenance round: the hint replays and the replica converges.
  ASSERT_TRUE(cluster->RestartNode(owners[2]).ok());
  cluster->Tick();
  EXPECT_EQ(cluster->HintCount(), 0u);
  auto rec = cluster->DebugReplicaRead(owners[2], 11).value();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->value, value);
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_EQ(snap.counter("cluster.hints.stored"), 1u);
  EXPECT_EQ(snap.counter("cluster.hints.replayed"), 1u);
}

TEST(ClusterQuorum, LosingTheQuorumFailsTyped) {
  auto cluster = MakeCluster(SmallOptions());
  ASSERT_TRUE(cluster->Put(3, BytesOf("v")).ok());
  const std::vector<int> owners = cluster->OwnersOf(3);
  ASSERT_TRUE(cluster->CrashNode(owners[0]).ok());
  ASSERT_TRUE(cluster->CrashNode(owners[1]).ok());
  const QuorumResult put = cluster->Put(3, BytesOf("w"));
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(put.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(put.outcome, QuorumOutcome::kNoQuorum);
  EXPECT_EQ(put.acks, 1);
  EXPECT_EQ(put.required, 2);
  const QuorumResult get = cluster->Get(3);
  EXPECT_FALSE(get.ok());
  EXPECT_EQ(get.outcome, QuorumOutcome::kNoQuorum);
  EXPECT_GE(cluster->MetricsSnapshot().counter("cluster.quorum.failed"), 2u);
}

TEST(ClusterQuorum, ReadRepairConvergesAStaleReplica) {
  auto cluster = MakeCluster(SmallOptions());
  ASSERT_TRUE(cluster->Put(7, BytesOf("old")).ok());
  const std::vector<int> owners = cluster->OwnersOf(7);
  const int stale = owners[2];
  // Partition the coordinator away from one owner and overwrite: that owner keeps
  // the old version (the miss is hinted, but we never Tick so nothing replays).
  cluster->net().PartitionLink(ClusterNet::kClientId, stale);
  const Bytes newest = BytesOf("new");
  const QuorumResult put = cluster->Put(7, newest);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.outcome, QuorumOutcome::kDegraded);
  cluster->net().HealLink(ClusterNet::kClientId, stale);
  ASSERT_EQ(cluster->DebugReplicaRead(stale, 7).value()->value, BytesOf("old"));
  // The rotating read start guarantees the stale owner is contacted within N reads;
  // the read that touches it repairs it in place.
  for (int i = 0; i < 3; ++i) {
    const QuorumResult get = cluster->Get(7);
    ASSERT_TRUE(get.ok());
    EXPECT_EQ(get.value, newest) << "read " << i << " served the stale value";
  }
  EXPECT_EQ(cluster->DebugReplicaRead(stale, 7).value()->value, newest);
  EXPECT_GE(cluster->MetricsSnapshot().counter("cluster.read_repairs"), 1u);
}

TEST(ClusterQuorum, DeliveryDelaysPastTheOpTimeoutAreRetriedThenFail) {
  ClusterOptions options = SmallOptions();
  options.net.base_delay_ticks = 100;  // every delivery blows the 10-tick budget
  options.op_timeout_ticks = 10;
  options.rpc_retry.max_attempts = 2;
  auto cluster = MakeCluster(options);
  const QuorumResult put = cluster->Put(1, BytesOf("late"));
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(put.outcome, QuorumOutcome::kNoQuorum);
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_GE(snap.counter("cluster.rpc.timeouts"), 3u);  // one per owner at least
  EXPECT_GE(snap.counter("cluster.rpc.retries"), 3u);   // each RPC got its retry
}

// --- Cluster-wide tracing -------------------------------------------------------------

TEST(ClusterTrace, QuorumPutAssemblesOneCrossNodeTrace) {
  auto cluster = MakeCluster(SmallOptions());
  const QuorumResult put = cluster->Put(5, BytesOf("traced"));
  ASSERT_TRUE(put.ok());
  ASSERT_NE(put.trace_id, 0u);
  const ClusterTrace trace = cluster->AssembleTrace(put.trace_id);
  EXPECT_EQ(trace.root, put.trace_id);
  ASSERT_TRUE(trace.HasSource("coord"));
  // Every contacted replica contributed node-side spans sharing the one root: the
  // coordinator's entries carry root == trace_id, the node entries point back at it
  // through their remote linkage.
  for (const int owner : cluster->OwnersOf(5)) {
    const std::string source = "node-" + std::to_string(owner);
    EXPECT_TRUE(trace.HasSource(source)) << source << " missing from the trace";
    // A replica write is two node RPCs (version guard read + the put).
    EXPECT_GE(trace.CountFor(source), 2u);
  }
  for (const ClusterTraceEntry& entry : trace.spans) {
    if (entry.source == "coord") {
      EXPECT_EQ(entry.span.root, put.trace_id);
    } else if (entry.span.id == entry.span.root) {
      EXPECT_EQ(entry.span.remote_root, put.trace_id);
      EXPECT_NE(entry.span.remote_parent, 0u);
    }
  }
  // The per-phase spans feed the aggregated latency surface.
  const auto snap = cluster->MetricsSnapshot();
  ASSERT_TRUE(snap.histograms.count("span.cluster.fanout.ticks"));
  ASSERT_TRUE(snap.histograms.count("span.cluster.quorum.wait.ticks"));
  EXPECT_GE(snap.histograms.at("span.cluster.fanout.ticks").count, 1u);
  EXPECT_GE(snap.histograms.at("span.cluster.quorum.wait.ticks").count, 1u);
  // Human rendering tags node lines with their source.
  const std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("[node-"), std::string::npos) << rendered;
}

TEST(ClusterTrace, QuorumGetTracesOnlyContactedReplicas) {
  auto cluster = MakeCluster(SmallOptions());
  ASSERT_TRUE(cluster->Put(9, BytesOf("v")).ok());
  const QuorumResult get = cluster->Get(9);
  ASSERT_TRUE(get.ok());
  ASSERT_NE(get.trace_id, 0u);
  const ClusterTrace trace = cluster->AssembleTrace(get.trace_id);
  // R=2: the coordinator plus exactly the two contacted owners appear; the third
  // replica was never sent the read and so contributes nothing.
  const std::vector<std::string> sources = trace.Sources();
  ASSERT_EQ(sources.size(), 3u) << trace.ToString();
  EXPECT_EQ(sources.front(), "coord");
  const std::vector<int> owners = cluster->OwnersOf(9);
  for (size_t i = 1; i < sources.size(); ++i) {
    bool is_owner = false;
    for (const int owner : owners) {
      is_owner |= sources[i] == "node-" + std::to_string(owner);
    }
    EXPECT_TRUE(is_owner) << sources[i] << " is not an owner of key 9";
  }
}

TEST(ClusterTrace, PartitionedReplicaIsMissingFromTheAssembledTrace) {
  auto cluster = MakeCluster(SmallOptions());
  const std::vector<int> owners = cluster->OwnersOf(3);
  cluster->net().PartitionLink(ClusterNet::kClientId, owners[1]);
  const QuorumResult put = cluster->Put(3, BytesOf("degraded"));
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.outcome, QuorumOutcome::kDegraded);
  const ClusterTrace trace = cluster->AssembleTrace(put.trace_id);
  // The dropped message never delivered its TraceContext, so the degraded path is
  // visible as the victim's absence from the assembled trace.
  EXPECT_TRUE(trace.HasSource("node-" + std::to_string(owners[0])));
  EXPECT_TRUE(trace.HasSource("node-" + std::to_string(owners[2])));
  EXPECT_FALSE(trace.HasSource("node-" + std::to_string(owners[1])))
      << "partitioned replica leaked spans into the trace:\n" << trace.ToString();
}

TEST(ClusterTrace, SameMcScheduleAssemblesIdenticalTraces) {
  // Determinism: spans run on the virtual clock and MC serializes the threads, so
  // replaying the same schedule must assemble byte-identical cluster traces.
  auto run = [](std::string* out) {
    auto body = [out] {
      auto cluster_or = ClusterCoordinator::Create(SmallOptions());
      MC_CHECK(cluster_or.ok(), "cluster create failed");
      auto cluster = std::move(cluster_or).value();
      ClusterCoordinator* raw = cluster.get();
      Thread writer = Thread::Spawn([raw] { (void)raw->Put(7, BytesOf("w")); });
      Thread reader = Thread::Spawn([raw] { (void)raw->Get(7); });
      writer.Join();
      reader.Join();
      const QuorumResult last = raw->Put(7, BytesOf("final"));
      MC_CHECK(last.ok(), "final put failed");
      *out = raw->AssembleTrace(last.trace_id).ToJson();
    };
    McResult result = McReplay(body, {});
    ASSERT_TRUE(result.ok) << result.error;
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- Failure detector -----------------------------------------------------------------

TEST(ClusterFailureDetector, LadderClimbsOnMissesAndRecoversOnHeartbeat) {
  auto cluster = MakeCluster(SmallOptions());
  ASSERT_TRUE(cluster->CrashNode(1).ok());
  cluster->Tick(2);
  EXPECT_EQ(cluster->HealthOf(1), NodeHealth::kSuspect);
  cluster->Tick(2);
  EXPECT_EQ(cluster->HealthOf(1), NodeHealth::kDown);
  ASSERT_TRUE(cluster->RestartNode(1).ok());
  cluster->Tick();
  EXPECT_EQ(cluster->HealthOf(1), NodeHealth::kHealthy);
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_EQ(snap.counter("cluster.fd.suspects"), 1u);
  EXPECT_EQ(snap.counter("cluster.fd.downs"), 1u);
  EXPECT_EQ(snap.counter("cluster.fd.recoveries"), 1u);
  EXPECT_GE(snap.counter("cluster.fd.heartbeats"), 15u);  // 5 rounds x 3 members
}

TEST(ClusterFailureDetector, TransitionCountersTrackAPartitionHealCycle) {
  auto cluster = MakeCluster(SmallOptions());
  // Partition the heartbeat path to node 1: misses climb the ladder without the node
  // itself being down, the steady state of an asymmetric network fault.
  cluster->net().PartitionLink(ClusterNet::kClientId, 1);
  cluster->Tick(2);
  EXPECT_EQ(cluster->HealthOf(1), NodeHealth::kSuspect);
  cluster->Tick(2);
  EXPECT_EQ(cluster->HealthOf(1), NodeHealth::kDown);
  cluster->net().HealLink(ClusterNet::kClientId, 1);
  cluster->Tick();
  EXPECT_EQ(cluster->HealthOf(1), NodeHealth::kHealthy);
  // The detector itself counts every state *entered* (initial membership is not a
  // transition): one suspect, one down, one healthy re-entry across the cycle.
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_EQ(snap.counter("cluster.fd.suspect"), 1u);
  EXPECT_EQ(snap.counter("cluster.fd.down"), 1u);
  EXPECT_EQ(snap.counter("cluster.fd.healthy"), 1u);
}

TEST(ClusterFailureDetector, WritesSkipDownMembersAndHintInstead) {
  auto cluster = MakeCluster(SmallOptions());
  const std::vector<int> owners = cluster->OwnersOf(4);
  ASSERT_TRUE(cluster->CrashNode(owners[1]).ok());
  cluster->Tick(4);  // drive the ladder to kDown
  ASSERT_EQ(cluster->HealthOf(owners[1]), NodeHealth::kDown);
  const auto before = cluster->MetricsSnapshot();
  const QuorumResult put = cluster->Put(4, BytesOf("skip"));
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.outcome, QuorumOutcome::kDegraded);
  EXPECT_EQ(put.hints_stored, 1);
  // The down member was never contacted: no delivery was even attempted toward it.
  EXPECT_EQ(put.contacted, 2);
  const auto after = cluster->MetricsSnapshot();
  EXPECT_EQ(CounterDelta(before, after, "cluster.hints.stored"), 1u);
}

// --- Membership -----------------------------------------------------------------------

TEST(ClusterMembership, JoinRebalancesAndKeysStayReadable) {
  auto cluster = MakeCluster(SmallOptions());
  std::map<ShardId, Bytes> contents;
  for (ShardId key = 0; key < 24; ++key) {
    Bytes value = BytesOf("k" + std::to_string(key));
    ASSERT_TRUE(cluster->Put(key, value).ok());
    contents[key] = value;
  }
  ASSERT_TRUE(cluster->NodeJoin(3).ok());
  ASSERT_EQ(cluster->Nodes().size(), 4u);
  EXPECT_EQ(cluster->PendingKeyCount(), 0u);  // no faults: every move was clean
  bool node3_owns_something = false;
  for (const auto& [key, value] : contents) {
    const QuorumResult get = cluster->Get(key);
    ASSERT_TRUE(get.ok()) << "key " << key << ": " << get.status.ToString();
    EXPECT_EQ(get.value, value);
    for (const int owner : cluster->OwnersOf(key)) {
      if (owner == 3) {
        node3_owns_something = true;
        // The rebalance actually copied the data onto the new owner.
        EXPECT_TRUE(cluster->DebugReplicaRead(3, key).value().has_value());
      }
    }
  }
  EXPECT_TRUE(node3_owns_something) << "join moved no keys at all";
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_EQ(snap.counter("cluster.membership.joins"), 1u);
  EXPECT_GT(snap.counter("cluster.rebalance.keys_moved"), 0u);
}

TEST(ClusterMembership, LeaveRefusedWhenRemainderCannotHoldNReplicas) {
  auto cluster = MakeCluster(SmallOptions(3));
  const Status s = cluster->NodeLeave(0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->Nodes().size(), 3u);
  EXPECT_EQ(cluster->MetricsSnapshot().counter("cluster.membership.leave_refused"), 1u);
}

TEST(ClusterMembership, LeaveRollsBackWhenRebalanceCannotReadTheLeaver) {
  auto cluster = MakeCluster(SmallOptions(4));
  // Make sure the leaver actually owns data.
  ShardId owned = 0;
  for (ShardId key = 0; key < 64; ++key) {
    const std::vector<int> owners = cluster->OwnersOf(key);
    if (std::find(owners.begin(), owners.end(), 1) != owners.end()) {
      owned = key;
      break;
    }
  }
  ASSERT_TRUE(cluster->Put(owned, BytesOf("survives")).ok());
  // The coordinator cannot read the leaver: the rebalance is dirty, so the leave
  // must refuse and roll the ring back rather than strand the only copies.
  cluster->net().PartitionLink(ClusterNet::kClientId, 1);
  const Status refused = cluster->NodeLeave(1);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  ASSERT_EQ(cluster->Nodes().size(), 4u);
  EXPECT_TRUE(cluster->ring().Contains(1));
  cluster->net().HealAllLinks();
  // With the fault cleared the same leave commits, and the data survives it.
  ASSERT_TRUE(cluster->NodeLeave(1).ok());
  EXPECT_EQ(cluster->Nodes().size(), 3u);
  const QuorumResult get = cluster->Get(owned);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value, BytesOf("survives"));
  const auto snap = cluster->MetricsSnapshot();
  EXPECT_EQ(snap.counter("cluster.membership.leaves"), 1u);
  EXPECT_EQ(snap.counter("cluster.membership.leave_refused"), 1u);
}

TEST(ClusterMembership, PartitionedJoinRecordsPendingMovesAndTickDrainsThem) {
  auto cluster = MakeCluster(SmallOptions(3));
  for (ShardId key = 0; key < 24; ++key) {
    ASSERT_TRUE(cluster->Put(key, BytesOf("v" + std::to_string(key))).ok());
  }
  // With 3 members and N=3 every key lives on node 0, so a join that cannot read
  // node 0 leaves every moved key with a pending source.
  cluster->net().PartitionLink(ClusterNet::kClientId, 0);
  ASSERT_TRUE(cluster->NodeJoin(3).ok());
  ASSERT_GT(cluster->PendingKeyCount(), 0u);
  ShardId pending_key = 0;
  bool found_pending = false;
  for (ShardId key = 0; key < 24 && !found_pending; ++key) {
    const std::vector<int> sources = cluster->PendingSourcesOf(key);
    if (!sources.empty()) {
      EXPECT_EQ(sources, std::vector<int>{0});
      pending_key = key;
      found_pending = true;
    }
  }
  ASSERT_TRUE(found_pending);
  // While the move is pending and its source unreachable, reads of that key must
  // fail rather than risk missing the newest version.
  EXPECT_FALSE(cluster->Get(pending_key).ok());
  // A leave cannot commit over pending moves either.
  EXPECT_EQ(cluster->NodeLeave(2).code(), StatusCode::kUnavailable);
  cluster->net().HealAllLinks();
  cluster->Tick(2);
  EXPECT_EQ(cluster->PendingKeyCount(), 0u);
  const QuorumResult get = cluster->Get(pending_key);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value, BytesOf("v" + std::to_string(pending_key)));
}

// --- Shared retry policy --------------------------------------------------------------

TEST(RetryPolicy, ExponentialBackoffDoublesAndSaturates) {
  common::RetryPolicy plain({.max_attempts = 5, .backoff_base_ticks = 4});
  EXPECT_EQ(plain.BackoffTicks(0), 0u);
  EXPECT_EQ(plain.BackoffTicks(1), 4u);
  EXPECT_EQ(plain.BackoffTicks(2), 8u);
  EXPECT_EQ(plain.BackoffTicks(3), 16u);
  EXPECT_EQ(plain.BackoffTicks(70), UINT64_MAX);
}

TEST(RetryPolicy, RunRetriesTransientsAndStopsOnTheAttemptBudget) {
  common::RetryPolicy policy({.max_attempts = 4, .backoff_base_ticks = 2});
  uint64_t charged = 0;
  auto charge = [&charged](uint64_t ticks) { charged += ticks; };
  // Succeeds on the third attempt: two waits charged (2 + 4 ticks).
  auto result = policy.Run(
      [](uint32_t attempt) {
        return attempt < 2 ? Status::IoError("blip") : Status::Ok();
      },
      charge);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.backoff_ticks, 6u);
  EXPECT_EQ(charged, 6u);
  EXPECT_FALSE(result.exhausted);
  // Non-retryable errors stop immediately.
  result = policy.Run([](uint32_t) { return Status::Unavailable("gone"); }, charge);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_FALSE(result.exhausted);
  // A transient that never clears exhausts the attempt budget.
  result = policy.Run([](uint32_t) { return Status::IoError("always"); }, charge);
  EXPECT_EQ(result.attempts, 4u);
  EXPECT_TRUE(result.exhausted);
}

// --- The fault-storm property ---------------------------------------------------------

std::string Describe(const PbtFailure<ClusterOp>& failure) {
  std::string out = failure.message + "\n  minimized:";
  for (const ClusterOp& op : failure.minimized) {
    out += "\n    " + op.ToString();
  }
  return out;
}

class ClusterStormSeeds : public testing::TestWithParam<uint64_t> {
 protected:
  ClusterStormSeeds() { FaultRegistry::Global().DisableAll(); }
};

TEST_P(ClusterStormSeeds, QuorumConformanceHoldsUnderTheFaultStorm) {
  ClusterConformanceHarness harness{ClusterHarnessOptions{}};
  MetricRegistry pbt_metrics;
  auto runner = harness.MakeRunner(
      {.seed = GetParam(), .num_cases = 170, .max_ops = 40, .metrics = &pbt_metrics});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << Describe(*failure);
  EXPECT_EQ(runner.stats().cases_run, 170u);
  EXPECT_EQ(pbt_metrics.Snapshot().counter("pbt.failures"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterStormSeeds, testing::Values(1u, 2u));

TEST(ClusterSeededBug, CorruptReadRepairIsCaughtMinimizedAndRecorded) {
  ScopedBug bug(SeededBug::kReadRepairWrongValue);
  ClusterHarnessOptions options;
  ClusterConformanceHarness harness{options};
  auto runner = harness.MakeRunner({.seed = 17, .num_cases = 800, .max_ops = 45});
  auto failure = runner.Run();
  ASSERT_TRUE(failure.has_value())
      << "seeded read-repair corruption survived the storm";
  EXPECT_FALSE(failure->minimized.empty());
  EXPECT_LE(failure->minimized.size(), failure->original.size());
  // The case seed regenerates the original sequence exactly (two-integer replay).
  const std::vector<ClusterOp> regenerated = runner.Generate(failure->case_seed);
  ASSERT_EQ(regenerated.size(), failure->original.size());
  for (size_t i = 0; i < regenerated.size(); ++i) {
    EXPECT_EQ(regenerated[i].ToString(), failure->original[i].ToString());
  }
  // Re-run the minimized sequence once with the recorder armed: deterministic
  // failure, one artifact carrying the violation, the op list, and the metrics.
  FlightRecorder recorder("flight");
  recorder.set_case_seed(failure->case_seed);
  ClusterHarnessOptions armed = options;
  armed.recorder = &recorder;
  ClusterConformanceHarness rerun{armed};
  auto replay_error = rerun.Run(failure->minimized);
  ASSERT_TRUE(replay_error.has_value()) << "minimized sequence stopped failing";
  EXPECT_EQ(*replay_error, failure->message);
  ASSERT_EQ(recorder.written(), 1u);
  // The artifact carries the full cluster state: the ClusterSnapshotJson() dump
  // (ring, FD states, hint depths, acked floor, aggregated metrics) and the failing
  // op's assembled cross-node trace.
  const std::string artifact = ReadFile(recorder.dir() + "/flight-0-cluster_quorum.json");
  ASSERT_FALSE(artifact.empty());
  EXPECT_NE(artifact.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(artifact.find("\"acked_floor\""), std::string::npos);
  EXPECT_NE(artifact.find("\"hint_queue_depth\""), std::string::npos);
  EXPECT_NE(artifact.find("\"nodes_aggregated\""), std::string::npos);
  EXPECT_NE(artifact.find("\"cluster_trace\":{"), std::string::npos);
  EXPECT_NE(artifact.find("\"source\":\"coord\""), std::string::npos);
}

// --- Model-checked cross-node linearizability -----------------------------------------

McOptions Pct(size_t iterations, uint64_t seed = 1) {
  McOptions options;
  options.strategy = McOptions::Strategy::kPct;
  options.iterations = iterations;
  options.seed = seed;
  return options;
}

TEST(ClusterLinearizability, HoldsWithQuorumOverlapNoAdversary) {
  McResult result = McExplore(MakeClusterLinearizableBody(0), Pct(40, 1));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ClusterLinearizability, HoldsAcrossPartitionAndHeal) {
  McResult result = McExplore(MakeClusterLinearizableBody(1), Pct(40, 1));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ClusterLinearizability, HoldsAcrossCrashAndRestart) {
  McResult result = McExplore(MakeClusterLinearizableBody(2), Pct(40, 1));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ClusterLinearizability, UnsafeQuorumsYieldAStaleReadWithReplayableArtifact) {
  // R + W <= N: read quorums need not intersect write quorums, and the checker finds
  // the interleaving where an acked write vanishes from a later read.
  McResult result = McExplore(MakeClusterStaleReadBody(), Pct(400, 1));
  ASSERT_FALSE(result.ok) << "stale read not found under R+W<=N";
  ASSERT_FALSE(result.failing_schedule.empty());
  EXPECT_NE(result.error.find("no linearization"), std::string::npos) << result.error;

  FlightRecord record = MakeMcFlightRecord(result, "cluster_stale_read");
  FlightRecorder recorder("flight");
  auto path_or = recorder.Write(record);
  ASSERT_TRUE(path_or.ok()) << path_or.status().ToString();
  const std::string json = ReadFile(path_or.value());
  EXPECT_NE(json.find("\"mc_schedule\":["), std::string::npos);
  EXPECT_NE(json.find("no linearization"), std::string::npos);

  // The persisted schedule replays the exact interleaving: same violation, one run.
  McResult replayed = McReplay(MakeClusterStaleReadBody(), result.failing_schedule);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.executions, 1u);
  EXPECT_EQ(replayed.error, result.error);
}

}  // namespace
}  // namespace ss
