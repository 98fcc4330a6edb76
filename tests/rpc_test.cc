// Unit tests for the NodeServer RPC layer: routing, control plane, bulk operations.

#include <gtest/gtest.h>

#include "src/faults/faults.h"
#include "src/rpc/node_server.h"

namespace ss {
namespace {

class NodeServerTest : public testing::Test {
 protected:
  NodeServerTest() {
    FaultRegistry::Global().DisableAll();
    NodeServerOptions options;
    options.disk_count = 3;
    options.geometry = DiskGeometry{.extent_count = 16, .pages_per_extent = 16,
                                    .page_size = 256};
    node_ = std::move(NodeServer::Create(options).value());
  }

  std::unique_ptr<NodeServer> node_;
};

TEST_F(NodeServerTest, PutGetDeleteRoundTrip) {
  ASSERT_TRUE(node_->Put(1, BytesOf("one")).ok());
  EXPECT_EQ(node_->Get(1).value().value, BytesOf("one"));
  ASSERT_TRUE(node_->Delete(1).ok());
  EXPECT_EQ(node_->Get(1).code(), StatusCode::kNotFound);
}

TEST_F(NodeServerTest, RoutingIsStable) {
  for (ShardId id = 0; id < 50; ++id) {
    EXPECT_EQ(node_->DiskFor(id), node_->DiskFor(id));
    EXPECT_LT(node_->DiskFor(id), 3);
  }
}

TEST_F(NodeServerTest, ShardsSpreadAcrossDisks) {
  std::set<int> used;
  for (ShardId id = 0; id < 50; ++id) {
    used.insert(node_->DiskFor(id));
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST_F(NodeServerTest, ListShardsMergesDisks) {
  for (ShardId id = 0; id < 10; ++id) {
    ASSERT_TRUE(node_->Put(id, BytesOf("v")).ok());
  }
  ASSERT_TRUE(node_->Delete(4).ok());
  auto listed = node_->ListShards().value();
  EXPECT_EQ(listed.size(), 9u);
}

TEST_F(NodeServerTest, ScanMergesDisksInKeyOrderAndSkipsDeletes) {
  for (ShardId id = 0; id < 20; ++id) {
    ASSERT_TRUE(node_->Put(id, BytesOf("v" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(node_->Delete(5).ok());
  ASSERT_TRUE(node_->Delete(11).ok());
  MetricsSnapshot before = node_->MetricsSnapshot();
  ScanResult result = node_->Scan(3, 15).value();
  // Live keys of [3, 15) in key order, values intact, regardless of which of the
  // three disks each shard routed to.
  std::vector<ShardId> want = {3, 4, 6, 7, 8, 9, 10, 12, 13, 14};
  ASSERT_EQ(result.items.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.items[i].id, want[i]);
    EXPECT_EQ(result.items[i].value, BytesOf("v" + std::to_string(want[i])));
  }
  // The envelope names the scan's root span, which closed ok, and the ok-counter
  // moved.
  EXPECT_NE(result.trace_id, 0u);
  MetricsSnapshot after = node_->MetricsSnapshot();
  EXPECT_EQ(CounterDelta(before, after, "rpc.scan.ok"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "rpc.scan.err"), 0u);
  bool traced = false;
  for (const SpanRecord& root : node_->spans().Roots()) {
    traced |= root.name == "rpc.scan" && root.id == result.trace_id &&
              root.status == StatusCode::kOk;
  }
  EXPECT_TRUE(traced);
}

TEST_F(NodeServerTest, ScanEmptyAndInvertedWindowsAreEmpty) {
  ASSERT_TRUE(node_->Put(7, BytesOf("seven")).ok());
  EXPECT_TRUE(node_->Scan(7, 7).value().items.empty());
  EXPECT_TRUE(node_->Scan(9, 2).value().items.empty());
  // A single-key window sees exactly that key.
  ScanResult single = node_->Scan(7, 8).value();
  ASSERT_EQ(single.items.size(), 1u);
  EXPECT_EQ(single.items[0].id, 7u);
}

TEST_F(NodeServerTest, ScanSkipsOutOfServiceDisks) {
  for (ShardId id = 0; id < 12; ++id) {
    ASSERT_TRUE(node_->Put(id, BytesOf("v")).ok());
  }
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  // Like ListShards, the scan covers only in-service disks — shards homed on the
  // removed disk drop out of the window instead of failing the whole scan.
  ScanResult result = node_->Scan(0, 12).value();
  EXPECT_LT(result.items.size(), 12u);
  for (const ScanItem& item : result.items) {
    EXPECT_NE(node_->DiskFor(item.id), 0);
  }
  ASSERT_TRUE(node_->RestoreDisk(0).ok());
  EXPECT_EQ(node_->Scan(0, 12).value().items.size(), 12u);
}

TEST_F(NodeServerTest, RemovedDiskIsUnavailable) {
  // Find a shard on disk 0.
  ShardId victim = 0;
  while (node_->DiskFor(victim) != 0) {
    ++victim;
  }
  ASSERT_TRUE(node_->Put(victim, BytesOf("v")).ok());
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  EXPECT_FALSE(node_->InService(0));
  EXPECT_EQ(node_->Get(victim).code(), StatusCode::kUnavailable);
  EXPECT_EQ(node_->Put(victim, BytesOf("w")).code(), StatusCode::kUnavailable);
  EXPECT_EQ(node_->Delete(victim).code(), StatusCode::kUnavailable);
}

TEST_F(NodeServerTest, RemoveRestoreCyclePreservesShards) {
  std::vector<ShardId> on_disk0;
  for (ShardId id = 0; id < 40; ++id) {
    if (node_->DiskFor(id) == 0) {
      on_disk0.push_back(id);
      ASSERT_TRUE(node_->Put(id, BytesOf("payload")).ok());
    }
  }
  ASSERT_FALSE(on_disk0.empty());
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  ASSERT_TRUE(node_->RestoreDisk(0).ok());
  for (ShardId id : on_disk0) {
    EXPECT_EQ(node_->Get(id).value().value, BytesOf("payload")) << "shard " << id;
  }
}

TEST_F(NodeServerTest, Bug4RemovalLosesUnflushedShards) {
  ScopedBug bug(SeededBug::kDiskRemovalLosesShards);
  ShardId victim = 0;
  while (node_->DiskFor(victim) != 0) {
    ++victim;
  }
  ASSERT_TRUE(node_->Put(victim, BytesOf("will be lost")).ok());
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  ASSERT_TRUE(node_->RestoreDisk(0).ok());
  EXPECT_EQ(node_->Get(victim).code(), StatusCode::kNotFound);
}

TEST_F(NodeServerTest, DoubleRemoveAndDoubleRestoreRejected) {
  ASSERT_TRUE(node_->RemoveDiskFromService(1).ok());
  EXPECT_EQ(node_->RemoveDiskFromService(1).code(), StatusCode::kUnavailable);
  ASSERT_TRUE(node_->RestoreDisk(1).ok());
  EXPECT_EQ(node_->RestoreDisk(1).code(), StatusCode::kUnavailable);
}

TEST_F(NodeServerTest, InvalidDiskIndexRejected) {
  EXPECT_EQ(node_->RemoveDiskFromService(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(node_->RestoreDisk(-1).code(), StatusCode::kInvalidArgument);
}

TEST_F(NodeServerTest, ListSkipsOutOfServiceDisks) {
  ShardId on0 = 0;
  while (node_->DiskFor(on0) != 0) {
    ++on0;
  }
  ShardId on1 = 0;
  while (node_->DiskFor(on1) != 1) {
    ++on1;
  }
  ASSERT_TRUE(node_->Put(on0, BytesOf("a")).ok());
  ASSERT_TRUE(node_->Put(on1, BytesOf("b")).ok());
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  auto listed = node_->ListShards().value();
  EXPECT_EQ(listed, (std::vector<ShardId>{on1}));
}

TEST_F(NodeServerTest, BulkCreateThenRemove) {
  std::vector<std::pair<ShardId, Bytes>> batch = {{1, BytesOf("a")}, {2, BytesOf("b")}};
  std::vector<Status> created = node_->BulkCreate(batch);
  ASSERT_EQ(created.size(), 2u);
  EXPECT_TRUE(created[0].ok());
  EXPECT_TRUE(created[1].ok());
  EXPECT_TRUE(node_->Get(1).ok());
  EXPECT_TRUE(node_->Get(2).ok());
  std::vector<Status> removed = node_->BulkRemove({1, 2});
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_TRUE(removed[0].ok());
  EXPECT_TRUE(removed[1].ok());
  EXPECT_EQ(node_->Get(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(node_->Get(2).code(), StatusCode::kNotFound);
}

TEST_F(NodeServerTest, FlushAllPersistsDependencies) {
  Dependency dep = node_->Put(1, BytesOf("v")).value().dep;
  EXPECT_FALSE(dep.IsPersistent());
  ASSERT_TRUE(node_->FlushAllDisks().ok());
  EXPECT_TRUE(dep.IsPersistent());
}

TEST_F(NodeServerTest, MigrateMovesShardAndPreservesValue) {
  ASSERT_TRUE(node_->Put(5, BytesOf("cargo")).ok());
  const int from = node_->DiskFor(5);
  const int to = (from + 1) % node_->disk_count();
  ASSERT_TRUE(node_->MigrateShard(5, to).ok());
  EXPECT_EQ(node_->DiskFor(5), to);
  EXPECT_EQ(node_->Get(5).value().value, BytesOf("cargo"));
  // The source no longer holds it.
  EXPECT_EQ(node_->store(from)->Get(5).code(), StatusCode::kNotFound);
  EXPECT_EQ(node_->store(to)->Get(5).value(), BytesOf("cargo"));
}

TEST_F(NodeServerTest, MigrateToSameDiskIsNoOp) {
  ASSERT_TRUE(node_->Put(5, BytesOf("v")).ok());
  ASSERT_TRUE(node_->MigrateShard(5, node_->DiskFor(5)).ok());
  EXPECT_EQ(node_->Get(5).value().value, BytesOf("v"));
}

TEST_F(NodeServerTest, MigrateMissingShardIsNotFound) {
  EXPECT_EQ(node_->MigrateShard(404, 0).code(), StatusCode::kNotFound);
}

TEST_F(NodeServerTest, MigrateToRemovedDiskIsUnavailable) {
  ASSERT_TRUE(node_->Put(5, BytesOf("v")).ok());
  const int to = (node_->DiskFor(5) + 1) % node_->disk_count();
  ASSERT_TRUE(node_->RemoveDiskFromService(to).ok());
  EXPECT_EQ(node_->MigrateShard(5, to).code(), StatusCode::kUnavailable);
  EXPECT_EQ(node_->Get(5).value().value, BytesOf("v"));
}

TEST_F(NodeServerTest, MigratedShardSurvivesRemoveRestoreOfNewHome) {
  ASSERT_TRUE(node_->Put(5, BytesOf("v")).ok());
  const int to = (node_->DiskFor(5) + 1) % node_->disk_count();
  ASSERT_TRUE(node_->MigrateShard(5, to).ok());
  ASSERT_TRUE(node_->RemoveDiskFromService(to).ok());
  EXPECT_EQ(node_->Get(5).code(), StatusCode::kUnavailable);
  ASSERT_TRUE(node_->RestoreDisk(to).ok());
  EXPECT_EQ(node_->Get(5).value().value, BytesOf("v"));
  EXPECT_EQ(node_->DiskFor(5), to);
}

// Regression: the hash fallback used to route fresh shards straight onto an
// out-of-service disk, making a deterministic 1/N slice of the key space
// unwritable. Fresh placements must skip removed disks in hash order.
TEST_F(NodeServerTest, FreshPlacementSkipsOutOfServiceDisk) {
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  MetricsSnapshot before = node_->MetricsSnapshot();
  // Every fresh shard — including the ones that hash to the removed disk — must
  // still accept a Put and serve it back.
  for (ShardId id = 100; id < 160; ++id) {
    ASSERT_TRUE(node_->Put(id, BytesOf("fresh-" + std::to_string(id))).ok())
        << "shard " << id;
    EXPECT_NE(node_->DiskFor(id), 0) << "shard " << id << " placed on removed disk";
    EXPECT_EQ(node_->Get(id).value().value, BytesOf("fresh-" + std::to_string(id)));
  }
  // ~1/3 of the range hashed to disk 0 and was rerouted; the diversion is visible.
  MetricsSnapshot after = node_->MetricsSnapshot();
  EXPECT_GT(CounterDelta(before, after, "rpc.routing.placement_rerouted"), 0u);
  // Restoring the disk re-exposes its (empty) hash routes without disturbing the
  // directory entries the rerouted shards acquired.
  ASSERT_TRUE(node_->RestoreDisk(0).ok());
  for (ShardId id = 100; id < 160; ++id) {
    EXPECT_EQ(node_->Get(id).value().value, BytesOf("fresh-" + std::to_string(id)));
  }
}

TEST_F(NodeServerTest, AllDisksOutOfServiceRefusesFreshPuts) {
  for (int d = 0; d < 3; ++d) {
    ASSERT_TRUE(node_->RemoveDiskFromService(d).ok());
  }
  EXPECT_EQ(node_->Put(100, BytesOf("v")).code(), StatusCode::kUnavailable);
}

// Sick-but-in-service disks deliberately keep their hash routes: a degraded or
// failed disk may still hold data (a flushed value whose delete tombstone is in
// flight), and routing around it would hide that copy from crash reconciliation —
// the fault-alphabet harness finds the resurrection. Mutations gate instead.
TEST_F(NodeServerTest, SickInServiceDiskKeepsItsHashRouteAndGates) {
  ShardId fresh = 100;
  while (node_->DiskFor(fresh) != 0) {
    ++fresh;
  }
  ASSERT_TRUE(node_->MarkDiskDegraded(0).ok());
  EXPECT_EQ(node_->DiskFor(fresh), 0);
  EXPECT_EQ(node_->Put(fresh, BytesOf("v")).code(), StatusCode::kUnavailable);
  // The degraded disk still serves reads of its (absent) keys as NotFound.
  EXPECT_EQ(node_->Get(fresh).code(), StatusCode::kNotFound);
}

TEST_F(NodeServerTest, StoreAccessor) {
  EXPECT_NE(node_->store(0), nullptr);
  EXPECT_EQ(node_->store(7), nullptr);
  ASSERT_TRUE(node_->RemoveDiskFromService(0).ok());
  EXPECT_EQ(node_->store(0), nullptr);
}

}  // namespace
}  // namespace ss
