#include "src/harness/concurrency.h"

#include <memory>

#include "src/kv/shard_store.h"
#include "src/mc/linearizability.h"
#include "src/rpc/node_server.h"

namespace ss {

namespace {

Bytes PatternValue(uint8_t tag, size_t size) {
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(tag + i);
  }
  return out;
}

DiskGeometry SmallGeometry() {
  return DiskGeometry{.extent_count = 12, .pages_per_extent = 8, .page_size = 256};
}

// The Figure 4 body. With `batched`, the foreground overwrite is one two-item
// ApplyBatch instead of two Puts.
std::function<void()> MakeFig4Body(bool batched) {
  return [batched] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    ShardStoreOptions options;
    options.chunk.max_payload_bytes = 400;
    auto store_or = ShardStore::Open(disk.get(), options);
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());

    // Set up initial state: three shards, two index runs, and some garbage so both
    // reclamation and compaction have work to do.
    for (ShardId k = 0; k < 3; ++k) {
      MC_CHECK(store->Put(k, PatternValue(static_cast<uint8_t>(k), 200)).ok(), "setup put");
    }
    MC_CHECK(store->FlushIndex().ok(), "setup flush 1");
    MC_CHECK(store->Delete(1).ok(), "setup delete");
    MC_CHECK(store->FlushIndex().ok(), "setup flush 2");
    MC_CHECK(store->FlushAll().ok(), "setup flush all");

    // Background maintenance: chunk reclamation and LSM compaction (Figure 4). The
    // reclaimer sweeps every data extent (re-listing as it goes, so extents that gain
    // chunks concurrently — e.g. a compaction output — are considered too).
    Thread reclaimer = Thread::Spawn([store] {
      for (int pass = 0; pass < 2; ++pass) {
        for (ExtentId e : store->extents().ExtentsOwnedBy(ExtentOwner::kChunkData)) {
          if (store->extents().WritePointer(e) == 0) {
            continue;
          }
          Status status = store->ReclaimExtent(e);
          MC_CHECK(status.ok() || status.code() == StatusCode::kUnavailable,
                   "reclaim failed: " + status.ToString());
        }
      }
    });
    Thread compactor = Thread::Spawn([store] {
      Status status = store->CompactIndex();
      MC_CHECK(status.ok() || status.code() == StatusCode::kResourceExhausted,
               "compact failed: " + status.ToString());
    });

    // Foreground: overwrite keys and check the new value sticks (read-after-write).
    auto overwrite = [](ShardId k) { return PatternValue(static_cast<uint8_t>(0x40 + k), 180); };
    if (batched) {
      StoreBatchResult result = store->ApplyBatch({{0, overwrite(0)}, {2, overwrite(2)}});
      for (const StoreBatchItemResult& item : result.items) {
        MC_CHECK(item.status.ok(), "overwrite batch item failed: " + item.status.ToString());
      }
    }
    for (ShardId k : {ShardId{0}, ShardId{2}}) {
      Bytes value = overwrite(k);
      if (!batched) {
        MC_CHECK(store->Put(k, value).ok(), "overwrite put");
      }
      auto got = store->Get(k);
      MC_CHECK(got.ok(), "read-after-write get failed: " + got.status().ToString());
      MC_CHECK(got.value() == value, "read-after-write returned stale/wrong data");
    }

    reclaimer.Join();
    compactor.Join();

    // Quiesce and re-validate every shard.
    Status status = store->FlushAll();
    MC_CHECK(status.ok(), "final flush failed: " + status.ToString());
    for (ShardId k : {ShardId{0}, ShardId{2}}) {
      auto got = store->Get(k);
      MC_CHECK(got.ok(), "final get failed: " + got.status().ToString());
    }
    auto deleted = store->Get(1);
    MC_CHECK(deleted.code() == StatusCode::kNotFound, "deleted shard resurrected");
  };
}

}  // namespace

std::function<void()> MakeFig4IndexBody() { return MakeFig4Body(/*batched=*/false); }

std::function<void()> MakeBatchMaintenanceBody() { return MakeFig4Body(/*batched=*/true); }

std::function<void()> MakeFlushReclaimBody() {
  return [] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    ShardStoreOptions options;
    options.chunk.max_payload_bytes = 400;
    auto store_or = ShardStore::Open(disk.get(), options);
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());

    // One durable shard plus garbage so the sweep has something to reclaim.
    MC_CHECK(store->Put(0, PatternValue(0, 120)).ok(), "setup put");
    MC_CHECK(store->Put(1, PatternValue(1, 120)).ok(), "setup put");
    MC_CHECK(store->Delete(1).ok(), "setup delete");
    MC_CHECK(store->FlushAll().ok(), "setup flush");

    // The foreground writes a shard and flushes the index — creating a new run chunk
    // whose extent must stay pinned until the metadata references it.
    Thread sweeper = Thread::Spawn([store] {
      for (ExtentId e : store->extents().ExtentsOwnedBy(ExtentOwner::kChunkData)) {
        if (store->extents().WritePointer(e) == 0) {
          continue;
        }
        Status status = store->ReclaimExtent(e);
        MC_CHECK(status.ok() || status.code() == StatusCode::kUnavailable,
                 "reclaim failed: " + status.ToString());
      }
    });
    Bytes value = PatternValue(7, 150);
    MC_CHECK(store->Put(7, value).ok(), "put failed");
    Status flush = store->FlushIndex();
    MC_CHECK(flush.ok() || flush.code() == StatusCode::kResourceExhausted,
             "flush failed: " + flush.ToString());
    sweeper.Join();

    MC_CHECK(store->FlushAll().ok(), "final flush failed");
    auto got = store->Get(7);
    MC_CHECK(got.ok(), "flushed shard unreadable: " + got.status().ToString());
    MC_CHECK(got.value() == value, "flushed shard has wrong contents");
    MC_CHECK(store->Get(0).ok(), "old shard unreadable");
    MC_CHECK(store->Get(1).code() == StatusCode::kNotFound, "deleted shard resurrected");
    // A dead run chunk can hide from point lookups (an evacuation may have re-staged
    // the key in the memtable), but a listing must load every metadata-referenced run —
    // in a quiesced store it can only fail if the metadata references reclaimed space.
    auto listed = store->List();
    MC_CHECK(listed.ok(), "list failed after quiesce: " + listed.status().ToString());
  };
}

std::function<void()> MakeScanFlushBody() {
  return [] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    ShardStoreOptions options;
    options.chunk.max_payload_bytes = 400;
    auto store_or = ShardStore::Open(disk.get(), options);
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());

    // Persisted baseline inside the scan window: keys 0 and 2 live, key 1 deleted.
    MC_CHECK(store->Put(0, PatternValue(0, 120)).ok(), "setup put");
    MC_CHECK(store->Put(1, PatternValue(1, 120)).ok(), "setup put");
    MC_CHECK(store->Put(2, PatternValue(2, 120)).ok(), "setup put");
    MC_CHECK(store->Delete(1).ok(), "setup delete");
    MC_CHECK(store->FlushAll().ok(), "setup flush");

    // Racing writer: lands a new key in the window and flushes it into a run.
    Bytes new_value = PatternValue(5, 150);
    Thread writer = Thread::Spawn([store, new_value] {
      MC_CHECK(store->Put(5, new_value).ok(), "racing put failed");
      Status flush = store->FlushIndex();
      MC_CHECK(flush.ok() || flush.code() == StatusCode::kResourceExhausted,
               "racing flush failed: " + flush.ToString());
    });

    auto scan_or = store->Scan(0, 10);
    MC_CHECK(scan_or.ok(), "scan failed: " + scan_or.status().ToString());
    bool saw0 = false, saw1 = false, saw2 = false;
    for (const ScanItem& item : scan_or.value()) {
      if (item.id == 0) {
        saw0 = true;
        MC_CHECK(item.value == PatternValue(0, 120), "scan returned wrong value for key 0");
      } else if (item.id == 1) {
        saw1 = true;
      } else if (item.id == 2) {
        saw2 = true;
        MC_CHECK(item.value == PatternValue(2, 120), "scan returned wrong value for key 2");
      } else if (item.id == 5) {
        // The in-flight key may or may not be visible, but never torn.
        MC_CHECK(item.value == new_value, "scan saw a torn in-flight value");
      } else {
        MC_CHECK(false, "scan invented key " + std::to_string(item.id));
      }
    }
    MC_CHECK(saw0 && saw2, "scan lost a persisted key");
    MC_CHECK(!saw1, "scan resurrected a deleted key");
    writer.Join();
  };
}

std::function<void()> MakeListFlushBody() {
  return [] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    auto store_or = ShardStore::Open(disk.get());
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());

    // The key lives only in the memtable until the racing flush moves it into a run.
    MC_CHECK(store->Put(3, PatternValue(3, 64)).ok(), "setup put");
    Thread flusher = Thread::Spawn([store] {
      Status flush = store->FlushIndex();
      MC_CHECK(flush.ok() || flush.code() == StatusCode::kResourceExhausted,
               "racing flush failed: " + flush.ToString());
    });

    auto listed = store->List();
    MC_CHECK(listed.ok(), "list failed: " + listed.status().ToString());
    MC_CHECK(listed.value() == std::vector<ShardId>{3}, "listing missed a live shard");
    flusher.Join();
  };
}

std::function<void()> MakeScanCompactBody() {
  return [] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    ShardStoreOptions options;
    options.chunk.max_payload_bytes = 400;
    auto store_or = ShardStore::Open(disk.get(), options);
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());

    // Build a leveled shape where a tombstone sits above the live value it shadows:
    // run A (bottom after CompactLevel(0)+(1)) holds keys 0,1,2; a younger L0 run
    // holds the delete of key 1 plus an overwrite of key 2.
    Bytes v0 = PatternValue(0, 120);
    Bytes v2b = PatternValue(0x42, 120);
    MC_CHECK(store->Put(0, v0).ok(), "setup put");
    MC_CHECK(store->Put(1, PatternValue(1, 120)).ok(), "setup put");
    MC_CHECK(store->Put(2, PatternValue(2, 120)).ok(), "setup put");
    MC_CHECK(store->FlushIndex().ok(), "setup flush 1");
    MC_CHECK(store->CompactIndexLevel(0).ok(), "setup compact 0");
    MC_CHECK(store->CompactIndexLevel(1).ok(), "setup compact 1");
    MC_CHECK(store->Delete(1).ok(), "setup delete");
    MC_CHECK(store->Put(2, v2b).ok(), "setup overwrite");
    MC_CHECK(store->FlushIndex().ok(), "setup flush 2");
    MC_CHECK(store->FlushAll().ok(), "setup flush all");

    // Background: merge the young run one level down — NOT the bottom, so the
    // tombstone for key 1 must survive the merge.
    Thread compactor = Thread::Spawn([store] {
      Status status = store->CompactIndexLevel(0);
      MC_CHECK(status.ok() || status.code() == StatusCode::kResourceExhausted,
               "compact level failed: " + status.ToString());
    });

    // Foreground: the logical mapping never changes, so the scan must be exact.
    auto scan_or = store->Scan(0, 10);
    MC_CHECK(scan_or.ok(), "scan failed: " + scan_or.status().ToString());
    const std::vector<ScanItem>& items = scan_or.value();
    MC_CHECK(items.size() == 2, "scan resurrected or lost a key: expected exactly {0, 2}, saw " +
                                    std::to_string(items.size()) + " items");
    MC_CHECK(items[0].id == 0 && items[0].value == v0, "scan item 0 wrong");
    MC_CHECK(items[1].id == 2 && items[1].value == v2b, "scan item 1 wrong");
    compactor.Join();

    // After the dust settles the tombstone must still hold — the seeded bug drops it
    // during the non-bottom merge and resurrects key 1 here.
    MC_CHECK(store->Get(1).code() == StatusCode::kNotFound, "deleted shard resurrected");
    auto final_scan = store->Scan(0, 10);
    MC_CHECK(final_scan.ok(), "final scan failed");
    MC_CHECK(final_scan.value().size() == 2, "final scan resurrected or lost a key");
  };
}

std::function<void()> MakeCompactLevelReclaimBody() {
  return [] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    ShardStoreOptions options;
    options.chunk.max_payload_bytes = 400;
    auto store_or = ShardStore::Open(disk.get(), options);
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());

    // Two runs (so CompactLevel(0) has a real merge) plus garbage for the sweep.
    MC_CHECK(store->Put(0, PatternValue(0, 120)).ok(), "setup put");
    MC_CHECK(store->Put(1, PatternValue(1, 120)).ok(), "setup put");
    MC_CHECK(store->FlushIndex().ok(), "setup flush 1");
    MC_CHECK(store->Put(2, PatternValue(2, 120)).ok(), "setup put");
    MC_CHECK(store->Delete(1).ok(), "setup delete");
    MC_CHECK(store->FlushIndex().ok(), "setup flush 2");
    MC_CHECK(store->FlushAll().ok(), "setup flush all");

    // Sweep reclamation over the data extents while the level merge writes its
    // output chunks: the outputs' extents must stay pinned until the metadata lands.
    Thread sweeper = Thread::Spawn([store] {
      for (ExtentId e : store->extents().ExtentsOwnedBy(ExtentOwner::kChunkData)) {
        if (store->extents().WritePointer(e) == 0) {
          continue;
        }
        Status status = store->ReclaimExtent(e);
        MC_CHECK(status.ok() || status.code() == StatusCode::kUnavailable,
                 "reclaim failed: " + status.ToString());
      }
    });
    Status compact = store->CompactIndexLevel(0);
    MC_CHECK(compact.ok() || compact.code() == StatusCode::kResourceExhausted,
             "compact level failed: " + compact.ToString());
    sweeper.Join();

    MC_CHECK(store->FlushAll().ok(), "final flush failed");
    auto got0 = store->Get(0);
    MC_CHECK(got0.ok() && got0.value() == PatternValue(0, 120), "key 0 lost or corrupt");
    auto got2 = store->Get(2);
    MC_CHECK(got2.ok() && got2.value() == PatternValue(2, 120), "key 2 lost or corrupt");
    MC_CHECK(store->Get(1).code() == StatusCode::kNotFound, "deleted shard resurrected");
  };
}

std::function<void()> MakeBufferPoolBody() {
  // This harness drives the extent layer directly — the paper's pattern of using the
  // sound checker on small correctness-critical code (custom concurrency primitives).
  // Two concurrent appends share a pool of exactly two staging permits; the correct
  // atomic two-permit acquisition serializes them, while the split acquisition of
  // seeded bug #12 deadlocks when each append grabs one permit.
  return [] {
    struct Stack {
      InMemoryDisk disk{SmallGeometry()};
      IoScheduler scheduler{&disk};
      ExtentManager extents{&disk, &scheduler, /*buffer_permits=*/2};
    };
    auto stack = std::make_shared<Stack>();
    auto claimed = stack->extents.ClaimExtent(ExtentOwner::kChunkData);
    MC_CHECK(claimed.ok(), "claim failed");
    const ExtentId extent = claimed.value();

    Thread writer = Thread::Spawn([stack, extent] {
      Bytes data = PatternValue(1, 64);
      MC_CHECK(stack->extents.Append(extent, data, Dependency()).ok(), "append 1 failed");
    });
    Bytes data = PatternValue(2, 64);
    MC_CHECK(stack->extents.Append(extent, data, Dependency()).ok(), "append 2 failed");
    writer.Join();

    MC_CHECK(stack->scheduler.FlushAll().ok(), "flush failed");
    MC_CHECK(stack->extents.WritePointer(extent) == 2, "both appends must land");
  };
}

std::function<void()> MakeListRemoveBody() {
  return [] {
    NodeServerOptions options;
    options.disk_count = 2;
    options.geometry = SmallGeometry();
    auto node_or = NodeServer::Create(options);
    MC_CHECK(node_or.ok(), "node create failed");
    std::shared_ptr<NodeServer> node(std::move(node_or).value());

    for (ShardId id : {ShardId{1}, ShardId{2}, ShardId{3}}) {
      MC_CHECK(node->Put(id, PatternValue(static_cast<uint8_t>(id), 32)).ok(), "setup put");
    }

    Thread lister = Thread::Spawn([node] {
      auto listed = node->ListShards();
      MC_CHECK(listed.ok(), "list failed");
      // Shards 2 and 3 exist throughout this execution; a correct listing must
      // include them no matter how the concurrent removal of shard 1 interleaves.
      bool has2 = false;
      bool has3 = false;
      for (ShardId id : listed.value()) {
        has2 |= (id == 2);
        has3 |= (id == 3);
      }
      MC_CHECK(has2 && has3, "listing missed a shard that was never removed");
    });
    MC_CHECK(node->Delete(1).ok(), "delete failed");
    lister.Join();
  };
}

std::function<void()> MakeBulkAtomicityBody() {
  return [] {
    NodeServerOptions options;
    options.disk_count = 1;
    options.geometry = SmallGeometry();
    auto node_or = NodeServer::Create(options);
    MC_CHECK(node_or.ok(), "node create failed");
    std::shared_ptr<NodeServer> node(std::move(node_or).value());

    Thread creator = Thread::Spawn([node] {
      std::vector<Status> statuses =
          node->BulkCreate({{5, PatternValue(5, 32)}, {6, PatternValue(6, 32)}});
      for (const Status& status : statuses) {
        MC_CHECK(status.ok(), "bulk create failed: " + status.ToString());
      }
    });
    std::vector<Status> statuses = node->BulkRemove({5, 6});
    for (const Status& status : statuses) {
      MC_CHECK(status.ok(), "bulk remove failed: " + status.ToString());
    }
    creator.Join();

    const bool have5 = node->Get(5).ok();
    const bool have6 = node->Get(6).ok();
    MC_CHECK(have5 == have6, "bulk operations interleaved non-atomically");
  };
}

std::function<void()> MakeLinearizabilityBody() {
  return [] {
    std::shared_ptr<Disk> disk = std::make_shared<InMemoryDisk>(SmallGeometry());
    auto store_or = ShardStore::Open(disk.get(), ShardStoreOptions{});
    MC_CHECK(store_or.ok(), "open failed");
    std::shared_ptr<ShardStore> store(std::move(store_or).value());
    auto history = std::make_shared<LinHistory>();

    auto do_put = [store, history](ShardId key, uint8_t tag) {
      Bytes value = PatternValue(tag, 24);
      const uint64_t t = history->Invoke();
      MC_CHECK(store->Put(key, value).ok(), "put failed");
      history->RecordPut(t, key, std::move(value));
    };
    auto do_get = [store, history](ShardId key) {
      const uint64_t t = history->Invoke();
      auto got = store->Get(key);
      if (got.ok()) {
        history->RecordGetFound(t, key, std::move(got).value());
      } else {
        MC_CHECK(got.code() == StatusCode::kNotFound,
                 "get failed: " + got.status().ToString());
        history->RecordGetMissing(t, key);
      }
    };
    auto do_delete = [store, history](ShardId key) {
      const uint64_t t = history->Invoke();
      MC_CHECK(store->Delete(key).ok(), "delete failed");
      history->RecordDelete(t, key);
    };

    Thread worker = Thread::Spawn([do_put, do_get] {
      do_put(1, 0x10);
      do_get(1);
    });
    do_put(1, 0x20);
    do_delete(1);
    do_get(1);
    worker.Join();

    std::string explanation;
    MC_CHECK(CheckLinearizable(history->Ops(), &explanation), explanation);
  };
}

std::function<void()> MakePutMigrateBody() {
  return [] {
    NodeServerOptions options;
    options.disk_count = 2;
    options.geometry = SmallGeometry();
    auto node_or = NodeServer::Create(options);
    MC_CHECK(node_or.ok(), "node create failed");
    std::shared_ptr<NodeServer> node(std::move(node_or).value());

    const ShardId id = 1;
    Bytes v1 = PatternValue(1, 64);
    Bytes v2 = PatternValue(2, 64);
    MC_CHECK(node->Put(id, v1).ok(), "setup put");
    const int source = node->DiskFor(id);
    const int target = 1 - source;

    // Writer races the migration's copy / routing-commit / tombstone sequence. Both
    // disks stay healthy and in service, so the Put itself must succeed wherever it
    // routes.
    Thread writer = Thread::Spawn([node, id, v2] {
      auto dep = node->Put(id, v2);
      MC_CHECK(dep.ok(), "concurrent put failed: " + dep.status().ToString());
    });
    Status migrated = node->MigrateShard(id, target);
    MC_CHECK(migrated.ok(), "migrate failed: " + migrated.ToString());
    writer.Join();

    // The shard must remain reachable wherever routing now points. The pre-fix commit
    // can leave the directory at the tombstoned source copy, surfacing kNotFound.
    auto got = node->Get(id);
    MC_CHECK(got.ok(), "shard lost after put ∥ migrate: " + got.status().ToString());
    MC_CHECK(got.value().value == v1 || got.value().value == v2,
             "put ∥ migrate returned a value neither write produced");
  };
}

std::function<void()> MakePutBatchMigrateBody() {
  return [] {
    NodeServerOptions options;
    options.disk_count = 2;
    options.geometry = SmallGeometry();
    auto node_or = NodeServer::Create(options);
    MC_CHECK(node_or.ok(), "node create failed");
    std::shared_ptr<NodeServer> node(std::move(node_or).value());

    const ShardId id = 1;
    Bytes v1 = PatternValue(1, 64);
    Bytes v2 = PatternValue(2, 64);
    Bytes v3 = PatternValue(3, 48);
    MC_CHECK(node->Put(id, v1).ok(), "setup put");
    const int source = node->DiskFor(id);
    const int target = 1 - source;

    // The batch covers the migrating shard plus a bystander key. Both disks stay
    // healthy and in service, so every item must succeed wherever it routes; the
    // migration's routing commit must survive a concurrent batch item commit.
    const ShardId bystander = 2;
    Thread writer = Thread::Spawn([node, id, bystander, v2, v3] {
      BatchResult result = node->PutBatch({{id, v2}, {bystander, v3}});
      MC_CHECK(result.items.size() == 2, "batch item count");
      for (const BatchItemResult& item : result.items) {
        MC_CHECK(item.status.ok(),
                 "concurrent batch item failed: " + item.status.ToString());
      }
    });
    Status migrated = node->MigrateShard(id, target);
    MC_CHECK(migrated.ok(), "migrate failed: " + migrated.ToString());
    writer.Join();

    auto got = node->Get(id);
    MC_CHECK(got.ok(), "shard lost after put-batch ∥ migrate: " + got.status().ToString());
    MC_CHECK(got.value().value == v1 || got.value().value == v2,
             "put-batch ∥ migrate returned a value neither write produced");
    auto bystander_got = node->Get(bystander);
    MC_CHECK(bystander_got.ok(),
             "bystander lost after put-batch ∥ migrate: " + bystander_got.status().ToString());
    MC_CHECK(bystander_got.value().value == v3, "bystander value corrupted");
  };
}

std::function<void()> MakePutEvacuateBody() {
  return [] {
    NodeServerOptions options;
    options.disk_count = 2;
    options.geometry = SmallGeometry();
    auto node_or = NodeServer::Create(options);
    MC_CHECK(node_or.ok(), "node create failed");
    std::shared_ptr<NodeServer> node(std::move(node_or).value());

    const ShardId id = 1;
    Bytes v1 = PatternValue(1, 64);
    Bytes v2 = PatternValue(2, 64);
    MC_CHECK(node->Put(id, v1).ok(), "setup put");
    const int source = node->DiskFor(id);

    Thread writer = Thread::Spawn([node, id, v2] {
      auto dep = node->Put(id, v2);
      MC_CHECK(dep.ok(), "concurrent put failed: " + dep.status().ToString());
    });
    // Drains `source` through MigrateShardLocked, hitting the same routing-commit
    // window as MigrateShard.
    Status evacuated = node->EvacuateDisk(source);
    MC_CHECK(evacuated.ok(), "evacuate failed: " + evacuated.ToString());
    writer.Join();

    auto got = node->Get(id);
    MC_CHECK(got.ok(), "shard lost after put ∥ evacuate: " + got.status().ToString());
    MC_CHECK(got.value().value == v1 || got.value().value == v2,
             "put ∥ evacuate returned a value neither write produced");
  };
}

}  // namespace ss
