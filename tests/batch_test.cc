// Tests for the batched write pipeline: IoScheduler's coalescing window, the extent
// layer's shared soft-pointer updates, ShardStore::ApplyBatch group commit, the
// NodeServer PutBatch/DeleteBatch RPCs with their typed envelopes, and the batch
// crash contract (prefix-only persistence, never a torn item).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "src/dep/io_scheduler.h"
#include "src/faults/faults.h"
#include "src/kv/shard_store.h"
#include "src/obs/span.h"
#include "src/rpc/node_server.h"

namespace ss {
namespace {

Bytes Value(size_t size, uint8_t tag) { return Bytes(size, tag); }

// --- IoScheduler coalescing window ---------------------------------------------------

class CoalescingTest : public testing::Test {
 protected:
  CoalescingTest() : disk_({.extent_count = 4, .pages_per_extent = 8, .page_size = 64}),
                     scheduler_(&disk_) {
    FaultRegistry::Global().DisableAll();
  }

  uint64_t IoCounter(std::string_view name) const {
    return scheduler_.metrics().Snapshot().counter(name);
  }

  InMemoryDisk disk_;
  IoScheduler scheduler_;
};

TEST_F(CoalescingTest, MergesContiguousPagesIntoOneRecord) {
  scheduler_.BeginCoalescing();
  Dependency d0 = scheduler_.EnqueueDataPage(1, 0, Value(64, 1), {});
  Dependency d1 = scheduler_.EnqueueDataPage(1, 1, Value(64, 2), {});
  Dependency d2 = scheduler_.EnqueueDataPage(1, 2, Value(64, 3), {});
  scheduler_.EndCoalescing();

  EXPECT_EQ(scheduler_.PendingCount(), 1u);
  EXPECT_EQ(IoCounter("io.enqueued"), 1u);
  EXPECT_EQ(IoCounter("io.coalesced_pages"), 2u);

  ASSERT_TRUE(scheduler_.FlushAll().ok());
  // The merged pages share one done leaf: all three dependencies resolve together,
  // and the unit was issued as a single IO.
  EXPECT_TRUE(d0.IsPersistent());
  EXPECT_TRUE(d1.IsPersistent());
  EXPECT_TRUE(d2.IsPersistent());
  EXPECT_EQ(IoCounter("io.issued"), 1u);
}

TEST_F(CoalescingTest, NoMergeOutsideWindow) {
  Dependency d0 = scheduler_.EnqueueDataPage(1, 0, Value(64, 1), {});
  Dependency d1 = scheduler_.EnqueueDataPage(1, 1, Value(64, 2), {});
  (void)d0;
  (void)d1;
  EXPECT_EQ(scheduler_.PendingCount(), 2u);
  EXPECT_EQ(IoCounter("io.coalesced_pages"), 0u);
}

TEST_F(CoalescingTest, NoMergeForNonContiguousOrOtherExtent) {
  scheduler_.BeginCoalescing();
  (void)scheduler_.EnqueueDataPage(1, 0, Value(64, 1), {});
  (void)scheduler_.EnqueueDataPage(1, 3, Value(64, 2), {});  // gap
  (void)scheduler_.EnqueueDataPage(2, 1, Value(64, 3), {});  // different extent
  scheduler_.EndCoalescing();
  EXPECT_EQ(scheduler_.PendingCount(), 3u);
  EXPECT_EQ(IoCounter("io.coalesced_pages"), 0u);
}

TEST_F(CoalescingTest, NoMergeWhenInputNotPersistent) {
  // Merging a page whose input has not persisted would let the shared record's issue
  // outrun that input; the window must refuse it.
  Dependency promise = Dependency::MakePromise();
  scheduler_.BeginCoalescing();
  (void)scheduler_.EnqueueDataPage(1, 0, Value(64, 1), {});
  (void)scheduler_.EnqueueDataPage(1, 1, Value(64, 2), {promise});
  scheduler_.EndCoalescing();
  EXPECT_EQ(scheduler_.PendingCount(), 2u);
  EXPECT_EQ(IoCounter("io.coalesced_pages"), 0u);
}

TEST_F(CoalescingTest, CoalescedUnitIsDroppedAtomicallyByCrash) {
  scheduler_.BeginCoalescing();
  Dependency d0 = scheduler_.EnqueueDataPage(1, 0, Value(64, 1), {});
  Dependency d1 = scheduler_.EnqueueDataPage(1, 1, Value(64, 2), {});
  scheduler_.EndCoalescing();
  scheduler_.CrashDropAll();
  // One pending record dropped — both pages died with it, neither persisted.
  EXPECT_EQ(scheduler_.metrics().Snapshot().counter("io.dropped_by_crash"), 1u);
  EXPECT_FALSE(d0.IsPersistent());
  EXPECT_FALSE(d1.IsPersistent());
}

// --- ShardStore::ApplyBatch ----------------------------------------------------------

class ApplyBatchTest : public testing::Test {
 protected:
  ApplyBatchTest() : disk_({.extent_count = 24, .pages_per_extent = 16, .page_size = 256}) {
    FaultRegistry::Global().DisableAll();
  }

  void Open(ShardStoreOptions options = {}) {
    auto opened = ShardStore::Open(&disk_, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(opened).value();
  }

  uint64_t StoreCounter(std::string_view name) const {
    return store_->metrics().Snapshot().counter(name);
  }

  InMemoryDisk disk_;
  std::unique_ptr<ShardStore> store_;
};

TEST_F(ApplyBatchTest, MixedPutsAndDeletesCommitPerItem) {
  Open();
  ASSERT_TRUE(store_->Put(1, Value(100, 0x11)).ok());

  StoreBatchResult result = store_->ApplyBatch({
      {2, Value(300, 0x22)},   // put spanning two pages
      {1, std::nullopt},       // delete of the existing shard
      {3, Value(40, 0x33)},    // small put
  });
  ASSERT_EQ(result.items.size(), 3u);
  for (size_t i = 0; i < result.items.size(); ++i) {
    EXPECT_TRUE(result.items[i].status.ok()) << "item " << i;
  }

  auto got2 = store_->Get(2);
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(got2.value(), Value(300, 0x22));
  EXPECT_EQ(store_->Get(1).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Get(3).ok());

  EXPECT_EQ(StoreCounter("store.batch.applies"), 1u);
  EXPECT_EQ(StoreCounter("store.batch.items"), 3u);
  EXPECT_EQ(StoreCounter("lsm.batch.applies"), 1u);
  EXPECT_EQ(StoreCounter("lsm.batch.items"), 3u);
  // The batch's appends shared deferred soft-pointer updates.
  EXPECT_GE(StoreCounter("extent.batch.soft_wp_updates"), 1u);

  ASSERT_TRUE(store_->FlushAll().ok());
  for (const StoreBatchItemResult& item : result.items) {
    EXPECT_TRUE(item.dep.IsPersistent());
  }
  EXPECT_TRUE(result.dep.IsPersistent());
}

TEST_F(ApplyBatchTest, BatchAppendsCoalesceIntoFewerIoUnits) {
  Open();
  // Settle the data extent's ownership record first: the coalescing window only
  // merges pages whose inputs are already persistent, and a freshly claimed extent's
  // appends carry its (still-pending) ownership dependency.
  ASSERT_TRUE(store_->Put(99, Value(30, 9)).ok());
  ASSERT_TRUE(store_->FlushAll().ok());
  (void)store_->ApplyBatch({
      {1, Value(200, 1)},
      {2, Value(200, 2)},
      {3, Value(200, 3)},
  });
  // Adjacent chunk appends from one batch merged into shared IO units.
  EXPECT_GE(StoreCounter("io.coalesced_pages"), 1u);
}

TEST_F(ApplyBatchTest, OversizedItemFailsAloneRestOfBatchCommits) {
  ShardStoreOptions options;
  options.max_chunks_per_shard = 1;
  Open(options);
  const size_t max_payload = store_->chunks().max_payload_bytes();

  StoreBatchResult result = store_->ApplyBatch({
      {1, Value(max_payload, 0x44)},
      {2, Value(max_payload * 3, 0x55)},  // over the one-chunk cap
      {3, Value(10, 0x66)},
  });
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_TRUE(result.items[0].status.ok());
  EXPECT_EQ(result.items[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(result.items[2].status.ok());

  ASSERT_TRUE(store_->Get(1).ok());
  EXPECT_EQ(store_->Get(2).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Get(3).ok());
  ASSERT_TRUE(store_->FlushAll().ok());
  EXPECT_TRUE(result.dep.IsPersistent());
}

TEST_F(ApplyBatchTest, EmptyBatchIsANoOp) {
  Open();
  StoreBatchResult result = store_->ApplyBatch({});
  EXPECT_TRUE(result.items.empty());
  EXPECT_TRUE(result.dep.IsPersistent());
  EXPECT_EQ(StoreCounter("store.batch.applies"), 0u);
}

TEST_F(ApplyBatchTest, FlushThresholdTriggersOneGroupFlush) {
  ShardStoreOptions options;
  options.lsm.memtable_flush_entries = 2;
  Open(options);
  StoreBatchResult result = store_->ApplyBatch({
      {1, Value(50, 1)},
      {2, Value(50, 2)},
      {3, Value(50, 3)},
  });
  for (const StoreBatchItemResult& item : result.items) {
    ASSERT_TRUE(item.status.ok());
  }
  // One flush for the whole batch — not one per item like looped Puts would pay.
  EXPECT_EQ(StoreCounter("store.batch.flushes"), 1u);
  EXPECT_EQ(StoreCounter("lsm.flushes"), 1u);
}

// A one-item write has no soft-pointer update to share, so it opens no write batch: a
// one-item ApplyBatch enqueues exactly the IO records of the equivalent Put (one
// soft-pointer record per page, nothing coalesced) and counts no group commit.
TEST_F(ApplyBatchTest, OneItemBatchIsExactlyAPut) {
  struct Run {
    std::vector<std::string> records;  // pending IO records, queue order
    MetricsSnapshot metrics;
  };
  auto run = [](bool batched) {
    InMemoryDisk disk({.extent_count = 24, .pages_per_extent = 16, .page_size = 256});
    auto opened = ShardStore::Open(&disk);
    EXPECT_TRUE(opened.ok());
    std::unique_ptr<ShardStore> store = std::move(opened).value();
    // Settle the data extent's ownership record, so a coalescing window could merge.
    EXPECT_TRUE(store->Put(99, Value(30, 9)).ok());
    EXPECT_TRUE(store->FlushAll().ok());
    if (batched) {
      StoreBatchResult result = store->ApplyBatch({{1, Value(600, 7)}});  // a 3-page chunk
      EXPECT_TRUE(result.items[0].status.ok());
    } else {
      EXPECT_TRUE(store->Put(1, Value(600, 7)).ok());
    }
    Run out;
    std::istringstream dot(store->scheduler().PendingDot());
    for (std::string line; std::getline(dot, line);) {
      if (line.find("shape=box") != std::string::npos) {
        out.records.push_back(line);
      }
    }
    out.metrics = store->metrics().Snapshot();
    return out;
  };
  const Run put = run(false);
  const Run batch = run(true);

  EXPECT_EQ(batch.records, put.records);
  EXPECT_EQ(batch.metrics.counter("io.enqueued"), put.metrics.counter("io.enqueued"));
  size_t soft_wp_records = 0;
  for (const std::string& record : batch.records) {
    soft_wp_records += record.find("softwp") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(soft_wp_records, 3u);
  for (const Run* r : {&put, &batch}) {
    EXPECT_EQ(r->metrics.counter("io.coalesced_pages"), 0u);
    EXPECT_EQ(r->metrics.counter("extent.batch.soft_wp_updates"), 0u);
    for (const char* name : {"store.batch.applies", "store.batch.items", "store.batch.flushes",
                             "lsm.batch.applies", "lsm.batch.items"}) {
      EXPECT_EQ(r->metrics.counter(name), 0u) << name;
    }
  }
}

// The batch crash contract, checked exhaustively: enumerate every dependency-allowed
// block-level crash state after a batch + index flush. In each state every item must
// surface either its exact value or nothing (never torn, never an index entry without
// readable chunks), and the set of visible items must be a batch prefix — with the
// single shared metadata barrier, that prefix is none-or-all.
TEST_F(ApplyBatchTest, CrashPersistsOnlyBatchPrefixes) {
  const std::vector<std::pair<ShardId, Bytes>> kItems = {
      {1, Value(90, 0xa1)}, {2, Value(300, 0xb2)}, {3, Value(130, 0xc3)}};
  const size_t kMaxStates = 50000;

  std::vector<bool> plan;
  size_t states = 0;
  bool exhausted = false;
  while (states < kMaxStates) {
    InMemoryDisk disk({.extent_count = 24, .pages_per_extent = 16, .page_size = 256});
    auto opened = ShardStore::Open(&disk);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<ShardStore> store = std::move(opened).value();

    std::vector<StoreBatchItem> batch;
    for (const auto& [id, value] : kItems) {
      batch.push_back({id, value});
    }
    StoreBatchResult applied = store->ApplyBatch(batch);
    for (const StoreBatchItemResult& item : applied.items) {
      ASSERT_TRUE(item.status.ok());
    }
    ASSERT_TRUE(store->FlushIndex().ok());

    size_t used = 0;
    store->scheduler().CrashScripted(plan, &used);
    store.reset();
    disk.fault_injector().Clear();
    auto reopened = ShardStore::Open(&disk);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    store = std::move(reopened).value();
    ++states;

    size_t visible = 0;
    for (const auto& [id, value] : kItems) {
      auto got = store->Get(id);
      if (got.ok()) {
        // Atomic per item: a visible item is never torn.
        ASSERT_EQ(got.value(), value) << "torn item " << id << " (state " << states << ")";
        ++visible;
      } else {
        ASSERT_EQ(got.code(), StatusCode::kNotFound) << got.status().ToString();
      }
    }
    ASSERT_TRUE(visible == 0 || visible == kItems.size())
        << "crash state " << states << " split the batch: " << visible << " of "
        << kItems.size() << " items visible";

    // DFS odometer, as in EnumerateCrashStates.
    while (plan.size() < used) {
      plan.push_back(false);
    }
    while (!plan.empty() && plan.back()) {
      plan.pop_back();
    }
    if (plan.empty()) {
      exhausted = true;
      break;
    }
    plan.back() = true;
  }
  EXPECT_TRUE(exhausted) << "state cap hit after " << states << " states";
  EXPECT_GT(states, 10u);
}

// --- NodeServer batch RPCs + typed envelopes -----------------------------------------

class NodeBatchTest : public testing::Test {
 protected:
  NodeBatchTest() { FaultRegistry::Global().DisableAll(); }

  void Create(int disks = 3) {
    NodeServerOptions options;
    options.disk_count = disks;
    options.geometry = {.extent_count = 16, .pages_per_extent = 16, .page_size = 256};
    auto created = NodeServer::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    node_ = std::move(created).value();
  }

  uint64_t NodeCounter(std::string_view name) const {
    return node_->MetricsSnapshot().counter(name);
  }

  std::unique_ptr<NodeServer> node_;
};

TEST_F(NodeBatchTest, PutBatchRoutesPerItemAndReportsEnvelopes) {
  Create();
  std::vector<std::pair<ShardId, Bytes>> items;
  for (ShardId id = 0; id < 9; ++id) {
    items.emplace_back(id, Value(60 + id, static_cast<uint8_t>(id)));
  }
  BatchResult result = node_->PutBatch(items);
  ASSERT_EQ(result.items.size(), items.size());
  EXPECT_TRUE(result.all_ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(result.items[i].status.ok()) << "item " << i;
    EXPECT_EQ(result.items[i].id, items[i].first);
    EXPECT_EQ(result.items[i].disk, node_->DiskFor(items[i].first));
  }
  // One root span for the whole batch (read before the verification Gets below open
  // their own), with one rpc.batch.item child per item. The envelope's trace id is
  // the batch's root span id.
  std::vector<SpanRecord> roots = node_->spans().Roots();
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(roots.back().name, "rpc.put_batch");
  EXPECT_EQ(roots.back().id, result.trace_id);
  size_t item_spans = 0;
  for (const SpanRecord& record : node_->spans().Tree(result.trace_id)) {
    item_spans += record.name == "rpc.batch.item" ? 1 : 0;
  }
  EXPECT_EQ(item_spans, items.size());

  for (const auto& [id, value] : items) {
    auto got = node_->Get(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().value, value);
  }

  EXPECT_EQ(NodeCounter("rpc.batch.puts"), 1u);
  EXPECT_EQ(NodeCounter("rpc.batch.item_ok"), items.size());
  EXPECT_EQ(NodeCounter("rpc.batch.item_err"), 0u);

  ASSERT_TRUE(node_->FlushAllDisks().ok());
  EXPECT_TRUE(result.dep.IsPersistent());
  for (const BatchItemResult& item : result.items) {
    EXPECT_TRUE(item.dep.IsPersistent());
  }
}

TEST_F(NodeBatchTest, BatchItemsCarryPerItemSpansUnderTheBatchRoot) {
  Create();
  // Degrade one item's home so the batch mixes a routing rejection with a commit:
  // both outcomes must still be attributable through their per-item spans.
  ASSERT_TRUE(node_->Put(1, Value(50, 1)).ok());
  const int sick = node_->DiskFor(1);
  ShardId healthy_key = 2;
  while (node_->DiskFor(healthy_key) == sick) {
    ++healthy_key;
  }
  ASSERT_TRUE(node_->MarkDiskDegraded(sick).ok());

  BatchResult result = node_->PutBatch({{1, Value(80, 3)}, {healthy_key, Value(80, 4)}});
  ASSERT_EQ(result.items.size(), 2u);
  EXPECT_EQ(result.items[0].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(result.items[1].status.ok());

  // Every item got its own span, distinct from each other and from the batch root.
  std::set<uint64_t> span_ids;
  for (const BatchItemResult& item : result.items) {
    EXPECT_GT(item.span_id, 0u);
    EXPECT_NE(item.span_id, result.trace_id);
    span_ids.insert(item.span_id);
  }
  EXPECT_EQ(span_ids.size(), result.items.size());

  // The item spans hang directly under the batch root and closed with each item's
  // final status — the rejected item's span carries the rejection code.
  std::map<uint64_t, SpanRecord> by_id;
  for (const SpanRecord& record : node_->spans().Tree(result.trace_id)) {
    by_id[record.id] = record;
  }
  for (size_t i = 0; i < result.items.size(); ++i) {
    ASSERT_TRUE(by_id.count(result.items[i].span_id)) << "item " << i;
    const SpanRecord& record = by_id[result.items[i].span_id];
    EXPECT_EQ(record.name, "rpc.batch.item");
    EXPECT_EQ(record.parent, result.trace_id);
    EXPECT_EQ(record.root, result.trace_id);
    EXPECT_FALSE(record.open);
    EXPECT_EQ(record.status, result.items[i].status.code()) << "item " << i;
  }
}

TEST_F(NodeBatchTest, PutBatchFailsOnlyItemsRoutedToSickDisks) {
  Create();
  // Home two shards while everything is healthy, then degrade one home: its directory
  // entry keeps routing mutations at the sick disk, which must refuse them.
  ASSERT_TRUE(node_->Put(1, Value(50, 1)).ok());
  const int sick = node_->DiskFor(1);
  ShardId healthy_key = 2;
  while (node_->DiskFor(healthy_key) == sick) {
    ++healthy_key;
  }
  ASSERT_TRUE(node_->Put(healthy_key, Value(50, 2)).ok());
  ASSERT_TRUE(node_->MarkDiskDegraded(sick).ok());

  BatchResult result = node_->PutBatch({{1, Value(80, 3)}, {healthy_key, Value(80, 4)}});
  ASSERT_EQ(result.items.size(), 2u);
  EXPECT_EQ(result.items[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.items[0].disk, sick);
  EXPECT_TRUE(result.items[1].status.ok());
  EXPECT_FALSE(result.all_ok());
  EXPECT_EQ(NodeCounter("rpc.batch.item_err"), 1u);

  // The failed item's shard is untouched; the healthy item committed.
  auto got1 = node_->Get(1);
  ASSERT_TRUE(got1.ok());
  EXPECT_EQ(got1.value().value, Value(50, 1));
  auto got2 = node_->Get(healthy_key);
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(got2.value().value, Value(80, 4));
}

TEST_F(NodeBatchTest, DeleteBatchRemovesAllRoutedItems) {
  Create();
  std::vector<ShardId> ids = {3, 4, 5, 6};
  for (ShardId id : ids) {
    ASSERT_TRUE(node_->Put(id, Value(70, static_cast<uint8_t>(id))).ok());
  }
  BatchResult result = node_->DeleteBatch(ids);
  ASSERT_EQ(result.items.size(), ids.size());
  EXPECT_TRUE(result.all_ok());
  std::vector<SpanRecord> roots = node_->spans().Roots();
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(roots.back().name, "rpc.delete_batch");
  for (ShardId id : ids) {
    EXPECT_EQ(node_->Get(id).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(NodeCounter("rpc.batch.deletes"), 1u);
}

TEST_F(NodeBatchTest, TypedEnvelopesCarryRoutingAndTraceContext) {
  Create();
  auto put = node_->Put(7, Value(90, 0x77));
  ASSERT_TRUE(put.ok());
  PutResult envelope = put.value();
  EXPECT_EQ(envelope.disk, node_->DiskFor(7));
  std::vector<SpanRecord> roots = node_->spans().Roots();
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(roots.back().id, envelope.trace_id);
  EXPECT_EQ(roots.back().name, "rpc.put");

  ASSERT_TRUE(node_->FlushAllDisks().ok());
  EXPECT_TRUE(envelope.dep.IsPersistent());

  auto del = node_->Delete(7);
  ASSERT_TRUE(del.ok());
  DeleteResult delete_envelope = del.value();
  EXPECT_EQ(delete_envelope.disk, envelope.disk);
  EXPECT_GT(delete_envelope.trace_id, envelope.trace_id);
}

TEST_F(NodeBatchTest, BulkOperationsReportPerItemStatuses) {
  Create();
  std::vector<std::pair<ShardId, Bytes>> items = {
      {10, Value(40, 1)}, {11, Value(40, 2)}, {12, Value(40, 3)}};
  std::vector<Status> created = node_->BulkCreate(items);
  ASSERT_EQ(created.size(), items.size());
  for (size_t i = 0; i < created.size(); ++i) {
    EXPECT_TRUE(created[i].ok()) << "item " << i << ": " << created[i].ToString();
  }
  for (const auto& [id, value] : items) {
    ASSERT_TRUE(node_->Get(id).ok());
  }

  std::vector<Status> removed = node_->BulkRemove({10, 11, 12});
  ASSERT_EQ(removed.size(), 3u);
  for (const Status& status : removed) {
    EXPECT_TRUE(status.ok());
  }
  EXPECT_EQ(node_->Get(10).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ss
