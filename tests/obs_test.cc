// Observability layer: registry find-or-create semantics, histogram bucketing and
// quantiles, snapshot merging, span-tree causality and wraparound, snapshot stability
// under model-checked concurrency, and the NodeServer surface (every subsystem visible
// in one snapshot, one root span per RPC carrying its shard, disk and status).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "src/faults/faults.h"
#include "src/mc/mc.h"
#include "src/obs/cluster_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/rpc/node_server.h"
#include "src/sync/sync.h"

namespace ss {
namespace {

// --- MetricRegistry -----------------------------------------------------------------

TEST(MetricRegistry, CounterFindOrCreateReturnsTheSameObject) {
  MetricRegistry registry;
  Counter& a = registry.counter("x.events");
  Counter& b = registry.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.Increment();
  b.Increment(4);
  EXPECT_EQ(a.Value(), 5u);
  EXPECT_EQ(registry.Snapshot().counter("x.events"), 5u);
  // Distinct names are distinct objects.
  EXPECT_NE(&registry.counter("x.other"), &a);
}

TEST(MetricRegistry, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge& g = registry.gauge("queue.depth");
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 4);
  EXPECT_EQ(registry.Snapshot().gauge("queue.depth"), 4);
  // Absent gauges read zero, same as counters.
  EXPECT_EQ(registry.Snapshot().gauge("never.registered"), 0);
}

TEST(MetricRegistry, HistogramBucketBoundsAreInclusive) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("ticks", {1, 2, 4});
  h.Record(1);  // <= 1
  h.Record(2);  // <= 2
  h.Record(3);  // <= 4
  h.Record(4);  // <= 4 (inclusive bound)
  h.Record(5);  // overflow
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds, (std::vector<uint64_t>{1, 2, 4}));
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 15u);
}

TEST(MetricRegistry, HistogramBoundsApplyOnFirstRegistrationOnly) {
  MetricRegistry registry;
  Histogram& first = registry.histogram("h", {1, 2});
  Histogram& again = registry.histogram("h", {10, 20, 30});
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.bounds(), (std::vector<uint64_t>{1, 2}));
}

TEST(MetricRegistry, SnapshotIntoAccumulatesAcrossRegistries) {
  MetricRegistry a;
  MetricRegistry b;
  a.counter("shared").Increment(3);
  b.counter("shared").Increment(4);
  a.counter("only_a").Increment();
  b.gauge("g").Set(2);
  a.histogram("h", {8}).Record(5);
  b.histogram("h", {8}).Record(20);

  MetricsSnapshot merged;
  a.SnapshotInto(merged);
  b.SnapshotInto(merged);
  EXPECT_EQ(merged.counter("shared"), 7u);
  EXPECT_EQ(merged.counter("only_a"), 1u);
  EXPECT_EQ(merged.counter("absent"), 0u);
  EXPECT_EQ(merged.gauge("g"), 2);
  const HistogramSnapshot& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 25u);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 1u);  // 5 <= 8
  EXPECT_EQ(h.counts[1], 1u);  // 20 overflows
}

TEST(MetricRegistry, CounterDeltaBetweenSnapshots) {
  MetricRegistry registry;
  registry.counter("ops").Increment(2);
  MetricsSnapshot before = registry.Snapshot();
  registry.counter("ops").Increment(5);
  registry.counter("fresh").Increment();  // registered after `before`
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "ops"), 5u);
  EXPECT_EQ(CounterDelta(before, after, "fresh"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "absent"), 0u);
}

TEST(MetricRegistry, ToStringListsEverySection) {
  MetricRegistry registry;
  registry.counter("c.one").Increment();
  registry.gauge("g.one").Set(-2);
  registry.histogram("h.one").Record(3);
  std::string out = registry.Snapshot().ToString();
  EXPECT_NE(out.find("c.one"), std::string::npos);
  EXPECT_NE(out.find("g.one"), std::string::npos);
  EXPECT_NE(out.find("h.one"), std::string::npos);
}

// --- MetricsSnapshot::MergeFrom (cluster-wide aggregation) --------------------------

TEST(MetricsMerge, EmptyRegistriesMergeToEmpty) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.MergeFrom(b);
  EXPECT_TRUE(a.counters.empty());
  EXPECT_TRUE(a.gauges.empty());
  EXPECT_TRUE(a.histograms.empty());
  // Merging into an empty snapshot adopts the other side wholesale.
  MetricRegistry registry;
  registry.counter("ops").Increment(3);
  registry.gauge("depth").Set(-1);
  registry.histogram("h", {4}).Record(2);
  MetricsSnapshot populated = registry.Snapshot();
  a.MergeFrom(populated);
  EXPECT_EQ(a.counter("ops"), 3u);
  EXPECT_EQ(a.gauge("depth"), -1);
  EXPECT_EQ(a.histograms.at("h").count, 1u);
  // And merging an empty snapshot changes nothing.
  populated.MergeFrom(MetricsSnapshot{});
  EXPECT_EQ(populated.counter("ops"), 3u);
}

TEST(MetricsMerge, MatchedBoundsHistogramsMergeBucketwise) {
  MetricRegistry a;
  MetricRegistry b;
  a.histogram("h", {10, 20}).Record(5);
  a.histogram("h", {10, 20}).Record(15);
  b.histogram("h", {10, 20}).Record(15);
  b.histogram("h", {10, 20}).Record(99);  // overflow bucket
  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  const HistogramSnapshot& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 134u);
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 1u);  // 5
  EXPECT_EQ(h.counts[1], 2u);  // both 15s
  EXPECT_EQ(h.counts[2], 1u);  // 99 overflows
  EXPECT_EQ(h.ValueAtQuantile(0.5), 20u);
}

TEST(MetricsMerge, MismatchedBoundsFoldIntoCountAndSum) {
  MetricRegistry a;
  MetricRegistry b;
  a.histogram("h", {10}).Record(7);
  b.histogram("h", {1, 2, 3}).Record(2);
  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  // Bucket-wise addition would misfile samples, so only the scalars accumulate;
  // the receiver's bounds win and its bucket counts stay untouched.
  const HistogramSnapshot& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 9u);
  EXPECT_EQ(h.bounds, (std::vector<uint64_t>{10}));
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 1u);  // only a's sample is bucketed
}

TEST(MetricsMerge, CounterOverflowWrapsAround) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.counters["ops"] = std::numeric_limits<uint64_t>::max();
  b.counters["ops"] = 3;
  a.MergeFrom(b);
  // uint64 wraparound is defined behaviour: max + 3 == 2.
  EXPECT_EQ(a.counter("ops"), 2u);
}

// --- HistogramSnapshot::ValueAtQuantile ---------------------------------------------

TEST(HistogramQuantile, EmptyHistogramReportsZero) {
  MetricRegistry registry;
  HistogramSnapshot snap = registry.histogram("h", {1, 2, 4}).Snapshot();
  EXPECT_EQ(snap.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 0u);
}

TEST(HistogramQuantile, ReportsBucketUpperBounds) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h", {10, 20, 40});
  // 5 samples <= 10, 4 samples <= 20, 1 sample <= 40.
  for (int i = 0; i < 5; ++i) h.Record(3);
  for (int i = 0; i < 4; ++i) h.Record(15);
  h.Record(33);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.ValueAtQuantile(0.10), 10u);  // rank 1
  EXPECT_EQ(snap.ValueAtQuantile(0.50), 10u);  // rank 5, last sample of bucket 0
  EXPECT_EQ(snap.ValueAtQuantile(0.51), 20u);  // rank 6, first sample of bucket 1
  EXPECT_EQ(snap.ValueAtQuantile(0.90), 20u);
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 40u);
}

TEST(HistogramQuantile, QuantileIsClampedAndZeroMeansMinimum) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h", {1, 8});
  h.Record(1);
  h.Record(6);
  HistogramSnapshot snap = h.Snapshot();
  // q below 0 / above 1 clamp; q=0 still resolves the rank-1 sample.
  EXPECT_EQ(snap.ValueAtQuantile(-3.0), 1u);
  EXPECT_EQ(snap.ValueAtQuantile(0.0), 1u);
  EXPECT_EQ(snap.ValueAtQuantile(7.0), 8u);
}

TEST(HistogramQuantile, OverflowSamplesReportOnePastTheLargestBound) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h", {4});
  h.Record(2);
  h.Record(1000);  // overflow bucket
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 4u);
  // The histogram cannot resolve beyond its largest bound: it reports bound+1, not
  // the (unknown) sample value.
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 5u);
}

TEST(HistogramQuantile, BoundlessHistogramFallsBackToMean) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h", std::vector<uint64_t>{});
  h.Record(10);
  h.Record(30);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 20u);
  EXPECT_EQ(snap.ValueAtQuantile(0.99), 20u);
}

// --- SpanTree -----------------------------------------------------------------------

// A fake clock whose ticks the test advances by hand.
class FakeTicks : public TickSource {
 public:
  uint64_t SpanTicksNow() const override { return now; }
  uint64_t now = 0;
};

TEST(SpanTree, ChildSpansRecordCausality) {
  SpanTree tree;
  FakeTicks clock;
  uint64_t root_id = 0;
  uint64_t child_id = 0;
  {
    Span root(&tree, &clock, "rpc.put");
    root_id = root.id();
    clock.now = 2;
    {
      Span child = root.scope().Child("lsm.insert");
      child_id = child.id();
      clock.now = 5;
    }
    clock.now = 7;
  }
  std::vector<SpanRecord> spans = tree.Tree(root_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, root_id);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].root, root_id);
  EXPECT_EQ(spans[0].name, "rpc.put");
  EXPECT_EQ(spans[0].duration_ticks, 7u);
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[1].id, child_id);
  EXPECT_EQ(spans[1].parent, root_id);
  EXPECT_EQ(spans[1].root, root_id);
  EXPECT_EQ(spans[1].name, "lsm.insert");
  EXPECT_EQ(spans[1].start_ticks, 2u);
  EXPECT_EQ(spans[1].duration_ticks, 3u);
}

TEST(SpanTree, InactiveScopeProducesNoSpans) {
  SpanTree tree;
  SpanScope inactive;
  EXPECT_FALSE(inactive.active());
  Span child = inactive.Child("lsm.insert");
  EXPECT_FALSE(child.active());
  EXPECT_EQ(tree.total_started(), 0u);
}

TEST(SpanTree, StatusAndExplicitTicksAreRecorded) {
  SpanTree tree;
  Span span(&tree, /*clock=*/nullptr, "rpc.put_batch");
  span.AddTicks(4);
  span.AddTicks(2);
  span.set_status(StatusCode::kUnavailable);
  const uint64_t id = span.id();
  EXPECT_EQ(span.End(), 6u);
  std::vector<SpanRecord> spans = tree.Tree(id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].duration_ticks, 6u);
  EXPECT_EQ(spans[0].status, StatusCode::kUnavailable);
}

TEST(SpanTree, TreeFiltersByRootAndWraparoundKeepsTotals) {
  SpanTree tree(/*capacity=*/4);
  FakeTicks clock;
  std::vector<uint64_t> roots;
  for (int i = 0; i < 6; ++i) {
    Span root(&tree, &clock, "rpc.get");
    roots.push_back(root.id());
    Span child = root.scope().Child("lsm.lookup");
  }
  EXPECT_EQ(tree.total_started(), 12u);
  // Capacity 4: only the last two trees survive; earlier roots render empty.
  EXPECT_TRUE(tree.Tree(roots[0]).empty());
  EXPECT_EQ(tree.Tree(roots.back()).size(), 2u);
  EXPECT_LE(tree.Spans().size(), 4u);
}

TEST(SpanTree, EndedSpansFeedPerStageHistograms) {
  MetricRegistry registry;
  SpanTree tree(SpanTree::kDefaultCapacity, &registry);
  FakeTicks clock;
  {
    Span root(&tree, &clock, "rpc.put");
    clock.now = 3;
    { Span child = root.scope().Child("lsm.insert"); }
  }
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.histograms.count("span.rpc.put.ticks"));
  ASSERT_TRUE(snap.histograms.count("span.lsm.insert.ticks"));
  EXPECT_EQ(snap.histograms.at("span.rpc.put.ticks").count, 1u);
  EXPECT_EQ(snap.histograms.at("span.rpc.put.ticks").sum, 3u);
}

// Regression: a root whose children outnumber the ring's capacity is overwritten
// before it ends (rpc.evacuate_disk, rpc.flush_all, a large batch); its duration must
// still reach its per-stage histogram.
TEST(SpanTree, OverwrittenSpansStillFeedTheirHistograms) {
  constexpr size_t kCapacity = 4;
  MetricRegistry registry;
  SpanTree tree(kCapacity, &registry);
  uint64_t root_id = 0;
  {
    Span root(&tree, /*clock=*/nullptr, "rpc.flush_all");
    root_id = root.id();
    root.AddTicks(5);
    for (size_t i = 0; i < kCapacity + 1; ++i) {
      Span child = root.scope().Child("lsm.flush");
    }
  }
  ASSERT_NE(tree.Tree(root_id).front().id, root_id) << "root record not overwritten";
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histogram_count("span.rpc.flush_all.ticks"), 1u);
  EXPECT_EQ(snap.histogram_count("span.lsm.flush.ticks"), kCapacity + 1);
  ASSERT_TRUE(snap.histograms.count("span.rpc.flush_all.ticks"));
  EXPECT_EQ(snap.histograms.at("span.rpc.flush_all.ticks").sum, 5u);
}

TEST(SpanTree, RenderingsShowHierarchy) {
  SpanTree tree;
  Span root(&tree, nullptr, "rpc.put");
  { Span child = root.scope().Child("store.put"); }
  const uint64_t root_id = root.id();
  root.End();
  std::string text = tree.ToString(root_id);
  EXPECT_NE(text.find("rpc.put"), std::string::npos);
  EXPECT_NE(text.find("store.put"), std::string::npos);
  std::string json = tree.ToJson(root_id);
  EXPECT_NE(json.find("\"name\":\"store.put\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"parent\":" + std::to_string(root_id)), std::string::npos) << json;
}

// --- Cross-tree trace propagation and assembly ---------------------------------------

TEST(RemoteSpans, StartRemoteSpanRecordsLinkageAndStaysLocallyRooted) {
  SpanTree tree;
  const StartedSpan remote = tree.StartRemoteSpan("rpc.put", TraceContext{40, 41});
  const uint64_t id = remote.id;
  tree.EndSpan(tree.StartSpan("lsm.insert", id, id), StatusCode::kOk, 1);
  tree.EndSpan(remote, StatusCode::kOk, 2);
  std::vector<SpanRecord> spans = tree.Tree(id);
  ASSERT_EQ(spans.size(), 2u);
  // The adopted span is a root in *this* tree — remote ids are recorded, never
  // resolved locally — and its children chain through plain parent/root links.
  EXPECT_EQ(spans[0].root, id);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].remote_root, 40u);
  EXPECT_EQ(spans[0].remote_parent, 41u);
  EXPECT_EQ(spans[1].remote_root, 0u) << "children must not inherit remote linkage";
  EXPECT_NE(spans[0].ToString().find("remote_root=40"), std::string::npos);
  // RemoteTrees surfaces exactly the adopted subtrees for a given sender root.
  EXPECT_EQ(tree.RemoteTrees(40), (std::vector<uint64_t>{id}));
  EXPECT_TRUE(tree.RemoteTrees(99).empty());
  const std::string json = tree.ToJson(id);
  EXPECT_NE(json.find("\"remote_parent\":41"), std::string::npos) << json;
}

TEST(ClusterTraceAssembly, StitchesNodeSubtreesUnderTheCoordinatorSpan) {
  // Hand-built trees: a coordinator root with one fan-out child, and a node tree
  // holding one adopted subtree for this trace plus an unrelated one that must not
  // leak in.
  SpanTree coord;
  const StartedSpan root_span = coord.StartSpan("cluster.put");
  const uint64_t root = root_span.id;
  const StartedSpan fanout_span = coord.StartSpan("cluster.fanout", root, root);
  const uint64_t fanout = fanout_span.id;
  SpanTree node;
  const StartedSpan adopted = node.StartRemoteSpan("rpc.put", TraceContext{root, fanout});
  const StartedSpan nested = node.StartSpan("lsm.insert", adopted.id, adopted.id);
  const StartedSpan unrelated = node.StartRemoteSpan("rpc.get", TraceContext{777, 778});
  node.EndSpan(nested, StatusCode::kOk, 1);
  node.EndSpan(adopted, StatusCode::kOk, 2);
  node.EndSpan(unrelated, StatusCode::kOk, 1);
  coord.EndSpan(fanout_span, StatusCode::kOk, 3);
  coord.EndSpan(root_span, StatusCode::kOk, 4);

  const ClusterTrace trace = AssembleClusterTrace(root, coord, {{"node-7", &node}});
  EXPECT_EQ(trace.root, root);
  EXPECT_EQ(trace.Sources(), (std::vector<std::string>{"coord", "node-7"}));
  EXPECT_EQ(trace.CountFor("coord"), 2u);
  EXPECT_EQ(trace.CountFor("node-7"), 2u) << "unrelated remote subtree leaked in";
  // The node's adopted root points back at the coordinator span it was sent under.
  bool found_adopted = false;
  for (const ClusterTraceEntry& entry : trace.spans) {
    if (entry.source == "node-7" && entry.span.id == entry.span.root) {
      EXPECT_EQ(entry.span.remote_root, root);
      EXPECT_EQ(entry.span.remote_parent, fanout);
      found_adopted = true;
    }
  }
  EXPECT_TRUE(found_adopted);
  // Rendering nests the node subtree under the coordinator's fan-out span and tags
  // foreign lines with their source.
  const std::string text = trace.ToString();
  const size_t fanout_at = text.find("cluster.fanout");
  const size_t node_at = text.find("[node-7] #1 rpc.put");
  ASSERT_NE(fanout_at, std::string::npos) << text;
  ASSERT_NE(node_at, std::string::npos) << text;
  EXPECT_GT(node_at, fanout_at);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"root\":" + std::to_string(root)), std::string::npos) << json;
  EXPECT_NE(json.find("\"source\":\"coord\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"source\":\"node-7\""), std::string::npos) << json;
}

TEST(ClusterTraceAssembly, MissingRootAssemblesEmpty) {
  SpanTree coord;
  SpanTree node;
  const ClusterTrace trace = AssembleClusterTrace(123, coord, {{"node-0", &node}});
  EXPECT_EQ(trace.root, 123u);
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(trace.Sources().empty());
  EXPECT_FALSE(trace.HasSource("coord"));
}

// --- Concurrency: snapshots are safe and exact against concurrent recorders ---------
//
// Recording uses plain atomics / leaf-mode locks on purpose (never a model-checker
// scheduling point), so the mc harness only controls the ss::Thread interleaving;
// the assertion is that a quiesced registry always shows exact totals and a
// mid-flight snapshot never tears the registry structure.

TEST(ObsConcurrency, QuiescedCountsAreExactUnderMcSchedules) {
  FaultRegistry::Global().DisableAll();
  McOptions options;
  options.strategy = McOptions::Strategy::kPct;
  options.iterations = 200;
  McResult result = McExplore(
      []() {
        MetricRegistry registry;
        Counter& ops = registry.counter("ops");
        SpanTree spans(/*capacity=*/2, &registry);  // wraps on the third span
        Thread worker = Thread::Spawn([&]() {
          for (int i = 0; i < 3; ++i) {
            ops.Increment();
            spans.EndSpan(spans.StartSpan("rpc.get"), StatusCode::kOk, 0);
            YieldThread();
          }
        });
        // Mid-flight reads: structurally safe, monotonic, never above the cap.
        MetricsSnapshot mid = registry.Snapshot();
        MC_CHECK(mid.counter("ops") <= 3, "counter overshot mid-flight");
        MC_CHECK(mid.histogram_count("span.rpc.get.ticks") <= 3,
                 "histogram overshot mid-flight");
        MC_CHECK(spans.total_started() <= 3, "span total overshot mid-flight");
        worker.Join();
        MetricsSnapshot quiesced = registry.Snapshot();
        MC_CHECK(quiesced.counter("ops") == 3, "quiesced counter not exact");
        MC_CHECK(quiesced.histogram_count("span.rpc.get.ticks") == 3,
                 "quiesced span histogram not exact");
        MC_CHECK(spans.total_started() == 3, "quiesced span total not exact");
      },
      options);
  EXPECT_TRUE(result.ok) << result.error;
}

// --- NodeServer surface -------------------------------------------------------------

class NodeObsTest : public testing::Test {
 protected:
  NodeObsTest() {
    FaultRegistry::Global().DisableAll();
    NodeServerOptions options;
    options.disk_count = 2;
    options.geometry = DiskGeometry{.extent_count = 16, .pages_per_extent = 16,
                                    .page_size = 256};
    node_ = std::move(NodeServer::Create(options).value());
  }

  std::unique_ptr<NodeServer> node_;
};

TEST_F(NodeObsTest, SnapshotCoversEverySubsystem) {
  // Touch every layer: puts/gets/deletes, a flush, a migration, a crash-recovery.
  for (ShardId id = 0; id < 8; ++id) {
    ASSERT_TRUE(node_->Put(id, BytesOf("v" + std::to_string(id))).ok());
    ASSERT_TRUE(node_->Get(id).ok());
  }
  ASSERT_TRUE(node_->Delete(7).ok());
  ASSERT_TRUE(node_->FlushAllDisks().ok());
  ASSERT_TRUE(node_->MigrateShard(0, 1 - node_->DiskFor(0)).ok());
  ASSERT_TRUE(node_->CrashAndRecoverDisk(0, /*crash_seed=*/3).ok());

  MetricsSnapshot snap = node_->MetricsSnapshot();
  // One representative counter per migrated subsystem must exist and be non-zero.
  EXPECT_GT(snap.counter("rpc.put.ok"), 0u);
  EXPECT_GT(snap.counter("rpc.get.ok"), 0u);
  EXPECT_GT(snap.counter("rpc.delete.ok"), 0u);
  EXPECT_GT(snap.counter("rpc.migrations"), 0u);
  EXPECT_GT(snap.counter("rpc.crash_recoveries"), 0u);
  EXPECT_GT(snap.counter("store.puts"), 0u);
  EXPECT_GT(snap.counter("lsm.puts"), 0u);
  EXPECT_GT(snap.counter("lsm.flushes"), 0u);
  EXPECT_GT(snap.counter("chunk.puts"), 0u);
  EXPECT_GT(snap.counter("cache.hits") + snap.counter("cache.misses"), 0u);
  EXPECT_GT(snap.counter("io.enqueued"), 0u);
  EXPECT_GT(snap.counter("extent.retry.attempts"), 0u);
  // Health and service state appear as per-disk gauges.
  EXPECT_EQ(snap.gauge("rpc.disk.0.in_service"), 1);
  EXPECT_EQ(snap.gauge("rpc.disk.1.in_service"), 1);
  EXPECT_EQ(snap.gauge("rpc.disk.0.health"), 0);
}

TEST_F(NodeObsTest, RequestCountsMatchCalls) {
  MetricsSnapshot before = node_->MetricsSnapshot();
  ASSERT_TRUE(node_->Put(1, BytesOf("a")).ok());
  ASSERT_TRUE(node_->Put(2, BytesOf("b")).ok());
  ASSERT_TRUE(node_->Get(1).ok());
  EXPECT_EQ(node_->Get(999).code(), StatusCode::kNotFound);
  ASSERT_TRUE(node_->Delete(2).ok());
  MetricsSnapshot after = node_->MetricsSnapshot();
  EXPECT_EQ(CounterDelta(before, after, "rpc.put.ok"), 2u);
  EXPECT_EQ(CounterDelta(before, after, "rpc.get.ok"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "rpc.get.err"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "rpc.delete.ok"), 1u);
  EXPECT_EQ(node_->spans().Roots().size(), 5u);
}

TEST_F(NodeObsTest, DumpMetricsShowsCountersAndRootSpans) {
  ASSERT_TRUE(node_->Put(5, BytesOf("x")).ok());
  ASSERT_TRUE(node_->Get(5).ok());
  std::string dump = node_->DumpMetrics();
  EXPECT_NE(dump.find("rpc.put.ok"), std::string::npos);
  EXPECT_NE(dump.find("lsm.puts"), std::string::npos);
  EXPECT_NE(dump.find("root spans (last 2 of 2"), std::string::npos) << dump;
  EXPECT_NE(dump.find(" rpc.put parent=0"), std::string::npos) << dump;
  EXPECT_NE(dump.find(" rpc.get parent=0"), std::string::npos) << dump;
}

// The root span is the RPC's event: its id is the envelope's trace_id, and it records
// the shard and disk the operation addressed plus its final status.
TEST_F(NodeObsTest, EveryRpcRootSpanRecordsShardDiskAndStatus) {
  const PutResult put = node_->Put(1, BytesOf("abc")).value();
  ASSERT_TRUE(node_->Put(2, BytesOf("def")).ok());
  const GetResult get = node_->Get(1).value();
  const DeleteResult del = node_->Delete(2).value();
  EXPECT_EQ(node_->Get(99).code(), StatusCode::kNotFound);
  const ScanResult scan = node_->Scan(0, 10).value();
  const BatchResult put_batch = node_->PutBatch({{3, BytesOf("x")}, {4, BytesOf("y")}});
  const BatchResult delete_batch = node_->DeleteBatch({3});
  ASSERT_TRUE(node_->FlushAllDisks().ok());
  const int to_disk = 1 - node_->DiskFor(1);
  ASSERT_TRUE(node_->MigrateShard(1, to_disk).ok());
  ASSERT_TRUE(node_->MarkDiskDegraded(0).ok());
  ASSERT_TRUE(node_->ResetDiskHealth(0).ok());
  ASSERT_TRUE(node_->CrashAndRecoverDisk(0, /*crash_seed=*/1).ok());

  const std::vector<SpanRecord> roots = node_->spans().Roots();
  for (const SpanRecord& root : roots) {
    EXPECT_EQ(root.name.rfind("rpc.", 0), 0u) << root.ToString();
    EXPECT_FALSE(root.open) << root.ToString();
  }
  auto by_id = [&](uint64_t id) {
    auto it = std::find_if(roots.begin(), roots.end(),
                           [id](const SpanRecord& r) { return r.id == id; });
    return it == roots.end() ? SpanRecord{} : *it;
  };
  auto last_named = [&](std::string_view name) {
    auto it = std::find_if(roots.rbegin(), roots.rend(),
                           [name](const SpanRecord& r) { return r.name == name; });
    return it == roots.rend() ? SpanRecord{} : *it;
  };
  struct Expected {
    SpanRecord root;
    std::string name;
    uint64_t shard;
    int32_t disk;
    StatusCode status;
  };
  const Expected expected[] = {
      {by_id(put.trace_id), "rpc.put", 1, put.disk, StatusCode::kOk},
      {by_id(get.trace_id), "rpc.get", 1, get.disk, StatusCode::kOk},
      {by_id(del.trace_id), "rpc.delete", 2, del.disk, StatusCode::kOk},
      {last_named("rpc.get"), "rpc.get", 99, node_->DiskFor(99), StatusCode::kNotFound},
      {by_id(scan.trace_id), "rpc.scan", 0, -1, StatusCode::kOk},
      {by_id(put_batch.trace_id), "rpc.put_batch", 0, -1, StatusCode::kOk},
      {by_id(delete_batch.trace_id), "rpc.delete_batch", 0, -1, StatusCode::kOk},
      {last_named("rpc.flush_all"), "rpc.flush_all", 0, -1, StatusCode::kOk},
      {last_named("rpc.migrate_shard"), "rpc.migrate_shard", 1, to_disk, StatusCode::kOk},
      {last_named("rpc.mark_degraded"), "rpc.mark_degraded", 0, 0, StatusCode::kOk},
      {last_named("rpc.reset_health"), "rpc.reset_health", 0, 0, StatusCode::kOk},
      {last_named("rpc.crash_recover_disk"), "rpc.crash_recover_disk", 0, 0, StatusCode::kOk},
  };
  for (const Expected& want : expected) {
    EXPECT_EQ(want.root.name, want.name) << want.root.ToString();
    EXPECT_EQ(want.root.shard, want.shard) << want.root.ToString();
    EXPECT_EQ(want.root.disk, want.disk) << want.root.ToString();
    EXPECT_EQ(want.root.status, want.status) << want.root.ToString();
  }
  // The Put's causal tree carries store/lsm/chunk children under the rpc root.
  std::set<std::string> child_names;
  for (const SpanRecord& record : node_->spans().Tree(put.trace_id)) {
    child_names.insert(record.name);
  }
  EXPECT_TRUE(child_names.count("store.put"));
  EXPECT_TRUE(child_names.count("lsm.insert"));
  EXPECT_TRUE(child_names.count("chunk.write"));
}

TEST_F(NodeObsTest, DumpMetricsJsonIsMachineReadable) {
  ASSERT_TRUE(node_->Put(3, BytesOf("xyz")).ok());
  ASSERT_TRUE(node_->Get(3).ok());
  std::string json = node_->DumpMetricsJson();
  // Top-level sections.
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":"), std::string::npos);
  // Metric snapshot content, span-name content, root-span event content.
  EXPECT_NE(json.find("\"rpc.put.ok\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc.put\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":3,\"disk\":" + std::to_string(node_->DiskFor(3))),
            std::string::npos);
  // Per-stage span histograms flow into the same snapshot.
  EXPECT_NE(json.find("\"span.rpc.put.ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"span.lsm.insert.ticks\""), std::string::npos);
}

// span_capacity bounds what the tree retains, not what the histograms count.
TEST_F(NodeObsTest, SpanCapacityBoundsRetentionNotHistograms) {
  NodeServerOptions options;
  options.disk_count = 1;
  options.span_capacity = 2;
  options.geometry = DiskGeometry{.extent_count = 16, .pages_per_extent = 16,
                                  .page_size = 256};
  std::unique_ptr<NodeServer> node = std::move(NodeServer::Create(options).value());
  for (ShardId id = 0; id < 5; ++id) {
    ASSERT_TRUE(node->Put(id, BytesOf("v")).ok());
  }
  EXPECT_EQ(node->spans().capacity(), 2u);
  EXPECT_EQ(node->spans().Spans().size(), 2u);
  EXPECT_EQ(node->MetricsSnapshot().histogram_count("span.rpc.put.ticks"), 5u);
}

}  // namespace
}  // namespace ss
