// Unit tests for the LSM index: memtable/run/metadata lifecycle, dependencies,
// compaction, recovery, reverse lookups, relocations.

#include <gtest/gtest.h>

#include "src/cache/buffer_cache.h"
#include "src/faults/faults.h"
#include "src/lsm/lsm_index.h"

namespace ss {
namespace {

ShardRecord MakeRecord(uint32_t tag) {
  ShardRecord record;
  record.total_bytes = tag;
  record.chunks.push_back(Locator{90000 + tag, tag, 1, 64});
  return record;
}

class LsmTest : public testing::Test {
 protected:
  LsmTest() { Reopen(/*fresh=*/true); }

  void Reopen(bool fresh = false) {
    index_.reset();
    scheduler_ = std::make_unique<IoScheduler>(&disk_);
    extents_ = std::make_unique<ExtentManager>(&disk_, scheduler_.get());
    cache_ = std::make_unique<BufferCache>(extents_.get(), 64);
    chunks_ = std::make_unique<ChunkStore>(extents_.get(), cache_.get(), ChunkStoreOptions{});
    index_ = std::move(LsmIndex::Open(extents_.get(), chunks_.get(), LsmOptions{}).value());
    (void)fresh;
  }

  InMemoryDisk disk_{DiskGeometry{.extent_count = 12, .pages_per_extent = 16, .page_size = 128}};
  std::unique_ptr<IoScheduler> scheduler_;
  std::unique_ptr<ExtentManager> extents_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<LsmIndex> index_;
};

TEST_F(LsmTest, FreshIndexIsEmpty) {
  EXPECT_EQ(index_->Get(1).value(), std::nullopt);
  EXPECT_TRUE(index_->Keys().value().empty());
  EXPECT_EQ(index_->RunCount(), 0u);
}

TEST_F(LsmTest, PutGetFromMemtable) {
  index_->Put(1, MakeRecord(7), Dependency());
  auto got = index_->Get(1).value();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, MakeRecord(7));
  EXPECT_EQ(index_->MemtableEntries(), 1u);
}

TEST_F(LsmTest, OverwriteTakesLatest) {
  index_->Put(1, MakeRecord(7), Dependency());
  index_->Put(1, MakeRecord(9), Dependency());
  EXPECT_EQ(*index_->Get(1).value(), MakeRecord(9));
}

TEST_F(LsmTest, DeleteShadowsOlderRuns) {
  index_->Put(1, MakeRecord(7), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  index_->Delete(1);
  EXPECT_EQ(index_->Get(1).value(), std::nullopt);
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(index_->Get(1).value(), std::nullopt);
  EXPECT_TRUE(index_->Keys().value().empty());
}

TEST_F(LsmTest, FlushMovesEntriesToRun) {
  for (ShardId id = 0; id < 5; ++id) {
    index_->Put(id, MakeRecord(static_cast<uint32_t>(id)), Dependency());
  }
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(index_->MemtableEntries(), 0u);
  EXPECT_EQ(index_->RunCount(), 1u);
  for (ShardId id = 0; id < 5; ++id) {
    EXPECT_EQ(*index_->Get(id).value(), MakeRecord(static_cast<uint32_t>(id)));
  }
  EXPECT_EQ(index_->Keys().value().size(), 5u);
}

TEST_F(LsmTest, FlushOnEmptyMemtableIsNoOp) {
  const uint64_t version = index_->MetadataVersion();
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(index_->MetadataVersion(), version);
}

TEST_F(LsmTest, PutDependencyPersistsAfterFlushAndPump) {
  Dependency data_dep = Dependency::MakeLeaf();
  Dependency dep = index_->Put(1, MakeRecord(1), data_dep);
  EXPECT_FALSE(dep.IsPersistent());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_FALSE(dep.IsPersistent());  // run gated on the data dependency
  data_dep.MarkLeafPersistent();
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  EXPECT_TRUE(dep.IsPersistent());
}

TEST_F(LsmTest, RunNotIssuedBeforeDataDependency) {
  Dependency data_dep = Dependency::MakeLeaf();
  index_->Put(1, MakeRecord(1), data_dep);
  ASSERT_TRUE(index_->Flush().ok());
  scheduler_->Pump(100);
  // Metadata cannot be durable yet: its run is gated on unpersisted shard data.
  EXPECT_EQ(scheduler_->FlushAll().code(), StatusCode::kInternal);
  data_dep.MarkLeafPersistent();
  EXPECT_TRUE(scheduler_->FlushAll().ok());
}

TEST_F(LsmTest, CompactMergesRunsAndDropsTombstones) {
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  index_->Delete(1);
  index_->Put(3, MakeRecord(3), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(index_->RunCount(), 2u);
  ASSERT_TRUE(index_->Compact().ok());
  EXPECT_EQ(index_->RunCount(), 1u);
  EXPECT_EQ(index_->Get(1).value(), std::nullopt);
  EXPECT_EQ(*index_->Get(2).value(), MakeRecord(2));
  EXPECT_EQ(*index_->Get(3).value(), MakeRecord(3));
}

TEST_F(LsmTest, RecoveryRestoresFlushedState) {
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  Reopen();
  EXPECT_EQ(*index_->Get(1).value(), MakeRecord(1));
  EXPECT_EQ(*index_->Get(2).value(), MakeRecord(2));
  EXPECT_EQ(index_->RunCount(), 1u);
}

TEST_F(LsmTest, RecoveryDropsUnflushedMemtable) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  index_->Put(2, MakeRecord(2), Dependency());  // never flushed
  scheduler_->CrashDropAll();
  Reopen();
  EXPECT_TRUE(index_->Get(1).value().has_value());
  EXPECT_EQ(index_->Get(2).value(), std::nullopt);
}

TEST_F(LsmTest, RecoveryPicksHighestMetadataVersion) {
  for (uint32_t round = 0; round < 6; ++round) {
    index_->Put(round, MakeRecord(round), Dependency());
    ASSERT_TRUE(index_->Flush().ok());
  }
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  const uint64_t version = index_->MetadataVersion();
  Reopen();
  EXPECT_EQ(index_->MetadataVersion(), version);
  EXPECT_EQ(index_->Keys().value().size(), 6u);
}

TEST_F(LsmTest, MetadataPingPongAcrossExtents) {
  // Enough flushes to fill one metadata extent and force the switch + reset.
  for (uint32_t round = 0; round < 40; ++round) {
    index_->Put(round % 4, MakeRecord(round), Dependency());
    ASSERT_TRUE(index_->Flush().ok());
    if (round % 8 == 0) {
      ASSERT_TRUE(index_->Compact().ok());
    }
    ASSERT_TRUE(scheduler_->FlushAll().ok());
  }
  Reopen();
  EXPECT_EQ(index_->Keys().value().size(), 4u);
}

TEST_F(LsmTest, FindShardReferencingChecksLiveView) {
  ShardRecord record = MakeRecord(5);
  const Locator target = record.chunks[0];
  index_->Put(9, record, Dependency());
  EXPECT_EQ(index_->FindShardReferencing(target).value(), std::optional<ShardId>(9));
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(index_->FindShardReferencing(target).value(), std::optional<ShardId>(9));
  index_->Delete(9);
  EXPECT_EQ(index_->FindShardReferencing(target).value(), std::nullopt);
}

TEST_F(LsmTest, MetadataReferencesRunChunks) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  auto runs = index_->RunLocators();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(index_->MetadataReferences(runs[0]));
  EXPECT_FALSE(index_->MetadataReferences(Locator{1, 2, 3, 4}));
}

TEST_F(LsmTest, RelocateShardChunkRewritesRecord) {
  ShardRecord record = MakeRecord(5);
  const Locator old_loc = record.chunks[0];
  const Locator new_loc{70000, 1, 1, 64};
  index_->Put(9, record, Dependency());
  Dependency dep = index_->RelocateShardChunk(old_loc, new_loc, Dependency()).value();
  auto got = index_->Get(9).value();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->chunks[0], new_loc);
  // The relocation's dependency resolves at the next flush.
  EXPECT_FALSE(dep.IsPersistent());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  EXPECT_TRUE(dep.IsPersistent());
}

TEST_F(LsmTest, RelocateShardChunkNoOpWhenUnreferenced) {
  Dependency dep = index_->RelocateShardChunk(Locator{1, 1, 1, 64}, Locator{2, 2, 1, 64},
                                              Dependency())
                       .value();
  EXPECT_TRUE(dep.IsPersistent());  // trivially persistent no-op
}

TEST_F(LsmTest, RelocateRunChunkRewritesRunListAndPersists) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  const Locator old_run = index_->RunLocators()[0];
  const Locator new_run{60000, 0, 1, 64};
  const uint64_t version = index_->MetadataVersion();
  Dependency dep = index_->RelocateRunChunk(old_run, new_run, Dependency()).value();
  EXPECT_TRUE(index_->MetadataReferences(new_run));
  EXPECT_FALSE(index_->MetadataReferences(old_run));
  EXPECT_EQ(index_->MetadataVersion(), version + 1);
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  EXPECT_TRUE(dep.IsPersistent());
}

TEST_F(LsmTest, StateDurableGateResolvesWithFlush) {
  index_->Put(1, MakeRecord(1), Dependency());
  Dependency gate = index_->StateDurableGate();
  EXPECT_FALSE(gate.IsPersistent());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  EXPECT_TRUE(gate.IsPersistent());
}

TEST_F(LsmTest, StateDurableGateOnCleanIndexFollowsMetadata) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  EXPECT_TRUE(index_->StateDurableGate().IsPersistent());
}

TEST_F(LsmTest, NeedsShutdownFlushTracksInternalMutations) {
  EXPECT_FALSE(index_->NeedsShutdownFlush());
  ShardRecord record = MakeRecord(5);
  const Locator old_loc = record.chunks[0];
  index_->Put(9, record, Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_FALSE(index_->NeedsShutdownFlush());
  // A relocation is an internal mutation: the shutdown path must still flush.
  ASSERT_TRUE(index_->RelocateShardChunk(old_loc, Locator{70000, 1, 1, 64}, Dependency()).ok());
  EXPECT_TRUE(index_->NeedsShutdownFlush());
  {
    // Seeded bug #3 consults only the API flag and skips it.
    ScopedBug bug(SeededBug::kShutdownMetadataSkipAfterReset);
    EXPECT_FALSE(index_->NeedsShutdownFlush());
  }
}

TEST_F(LsmTest, AutoFlushAtThreshold) {
  index_.reset();
  LsmOptions options;
  options.memtable_flush_entries = 3;
  index_ = std::move(LsmIndex::Open(extents_.get(), chunks_.get(), options).value());
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(2, MakeRecord(2), Dependency());
  EXPECT_EQ(index_->RunCount(), 0u);
  index_->Put(3, MakeRecord(3), Dependency());
  EXPECT_EQ(index_->RunCount(), 1u);
  EXPECT_EQ(index_->MemtableEntries(), 0u);
}

// --- Range scans -----------------------------------------------------------------------

TEST_F(LsmTest, ScanMergesMemtableAndRuns) {
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(3, MakeRecord(3), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  index_->Put(2, MakeRecord(2), Dependency());   // memtable only
  index_->Put(3, MakeRecord(30), Dependency());  // memtable shadows the run
  auto items = index_->Scan(0, 100).value();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 1u);
  EXPECT_EQ(items[1].id, 2u);
  EXPECT_EQ(items[2].id, 3u);
  EXPECT_EQ(items[2].record, MakeRecord(30));
}

TEST_F(LsmTest, ScanRespectsHalfOpenWindow) {
  for (ShardId id = 0; id < 6; ++id) {
    index_->Put(id, MakeRecord(static_cast<uint32_t>(id)), Dependency());
  }
  auto items = index_->Scan(2, 5).value();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 2u);
  EXPECT_EQ(items[2].id, 4u);  // 5 excluded: half-open
}

TEST_F(LsmTest, ScanEmptyAndSingleKeyWindows) {
  index_->Put(4, MakeRecord(4), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_TRUE(index_->Scan(4, 4).value().empty());   // empty window
  EXPECT_TRUE(index_->Scan(9, 2).value().empty());   // inverted window
  auto single = index_->Scan(4, 5).value();          // single-key window
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].id, 4u);
  EXPECT_TRUE(index_->Scan(5, 100).value().empty());  // window past the only key
}

TEST_F(LsmTest, ScanSuppressesTombstones) {
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  index_->Delete(1);  // memtable tombstone shadows the flushed value
  auto items = index_->Scan(0, 10).value();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, 2u);
  ASSERT_TRUE(index_->Flush().ok());  // tombstone now in a newer run
  items = index_->Scan(0, 10).value();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, 2u);
}

// --- Bloom filters ---------------------------------------------------------------------

TEST_F(LsmTest, BloomSkipsChunkReadsForAbsentKeys) {
  for (ShardId id = 0; id < 10; ++id) {
    index_->Put(id, MakeRecord(static_cast<uint32_t>(id)), Dependency());
  }
  ASSERT_TRUE(index_->Flush().ok());
  const uint64_t gets_before = chunks_->metrics().Snapshot().counter("chunk.gets");
  for (ShardId id = 1000; id < 1100; ++id) {
    EXPECT_EQ(index_->Get(id).value(), std::nullopt);
  }
  const uint64_t chunk_reads = chunks_->metrics().Snapshot().counter("chunk.gets") - gets_before;
  MetricsSnapshot snap = index_->metrics().Snapshot();
  // ~10 bits/key keeps the false-positive rate around 1%; even a lenient bound proves
  // the >=90% read-elimination target for absent keys.
  EXPECT_LE(chunk_reads, 10u);
  EXPECT_GE(snap.counter("lsm.bloom.miss"), 90u);
  EXPECT_EQ(snap.counter("lsm.bloom.miss") + snap.counter("lsm.bloom.false_positive"), 100u);
}

TEST_F(LsmTest, BloomCountsHitsOnPresentKeys) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_TRUE(index_->Get(1).value().has_value());
  EXPECT_GE(index_->metrics().Snapshot().counter("lsm.bloom.hit"), 1u);
}

TEST_F(LsmTest, BloomFiltersRebuiltOnRecovery) {
  for (ShardId id = 0; id < 8; ++id) {
    index_->Put(id, MakeRecord(static_cast<uint32_t>(id)), Dependency());
  }
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  Reopen();
  const uint64_t gets_before = chunks_->metrics().Snapshot().counter("chunk.gets");
  for (ShardId id = 500; id < 550; ++id) {
    EXPECT_EQ(index_->Get(id).value(), std::nullopt);
  }
  // The recovered index must have working filters, not nulls that force chunk reads.
  EXPECT_LE(chunks_->metrics().Snapshot().counter("chunk.gets") - gets_before, 5u);
  EXPECT_GE(index_->metrics().Snapshot().counter("lsm.bloom.miss"), 45u);
}

// --- Leveled compaction ----------------------------------------------------------------

TEST_F(LsmTest, CompactLevelMergesOneLevelDown) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_EQ(index_->RunCountAtLevel(0), 2u);
  ASSERT_TRUE(index_->CompactLevel(0).ok());
  EXPECT_EQ(index_->RunCountAtLevel(0), 0u);
  EXPECT_EQ(index_->RunCountAtLevel(1), 1u);
  EXPECT_EQ(*index_->Get(1).value(), MakeRecord(1));
  EXPECT_EQ(*index_->Get(2).value(), MakeRecord(2));
}

TEST_F(LsmTest, CompactLevelRejectsNegativeLevel) {
  EXPECT_EQ(index_->CompactLevel(-1).code(), StatusCode::kInvalidArgument);
}

TEST_F(LsmTest, CompactLevelOnEmptyLevelIsNoOp) {
  const uint64_t version = index_->MetadataVersion();
  ASSERT_TRUE(index_->CompactLevel(0).ok());
  ASSERT_TRUE(index_->CompactLevel(3).ok());
  EXPECT_EQ(index_->MetadataVersion(), version);
}

TEST_F(LsmTest, LevelsPersistAcrossRecovery) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->CompactLevel(0).ok());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  std::vector<int> levels = index_->RunLevels();
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  Reopen();
  EXPECT_EQ(index_->RunLevels(), levels);
}

// The satellite-1 regression: a tombstone must survive a compaction whose output is
// not the bottom level, or the deleted key resurrects once the younger run is merged
// away. Sequence: value pushed to the bottom, delete flushed to L0, L0 merged to L1
// (non-bottom), then recovery — the shard must stay dead at every step.
TEST_F(LsmTest, TombstoneSurvivesNonBottomCompactionAndRecovery) {
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->CompactLevel(0).ok());
  ASSERT_TRUE(index_->CompactLevel(1).ok());  // value for key 1 now at the bottom (L2)
  index_->Delete(1);
  ASSERT_TRUE(index_->Flush().ok());          // tombstone in an L0 run
  ASSERT_TRUE(index_->CompactLevel(0).ok());  // merge to L1 — NOT the bottom
  EXPECT_EQ(index_->Get(1).value(), std::nullopt) << "tombstone dropped above the bottom";
  auto items = index_->Scan(0, 10).value();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, 2u);
  ASSERT_TRUE(scheduler_->FlushAll().ok());
  Reopen();
  EXPECT_EQ(index_->Get(1).value(), std::nullopt) << "deleted shard resurrected by recovery";
}

TEST_F(LsmTest, TombstonesDroppedAtBottomMerge) {
  index_->Put(1, MakeRecord(1), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  index_->Delete(1);
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->Compact().ok());  // full merge = bottom: tombstone reclaimed
  EXPECT_EQ(index_->Get(1).value(), std::nullopt);
  EXPECT_GE(index_->metrics().Snapshot().counter("lsm.tombstones_dropped"), 1u);
  EXPECT_EQ(index_->RunCount(), 0u);  // nothing left to write
}

// The seeded-bug demonstration: with the tombstone-lifetime rule broken, the same
// sequence as the regression test above resurrects the deleted shard.
TEST_F(LsmTest, SeededTombstoneDropBugResurrectsDeletedShard) {
  ScopedBug bug(SeededBug::kDropTombstonesAboveBottom);
  index_.reset();
  index_ = std::move(LsmIndex::Open(extents_.get(), chunks_.get(), LsmOptions{}).value());
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Put(2, MakeRecord(2), Dependency());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->CompactLevel(0).ok());
  ASSERT_TRUE(index_->CompactLevel(1).ok());
  index_->Delete(1);
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->CompactLevel(0).ok());  // buggy: drops the tombstone above bottom
  auto got = index_->Get(1).value();
  ASSERT_TRUE(got.has_value()) << "expected the seeded bug to resurrect the shard";
  EXPECT_EQ(*got, MakeRecord(1));
}

TEST_F(LsmTest, AutoTriggerKeepsLevelZeroBounded) {
  index_.reset();
  LsmOptions options;
  options.level0_compaction_trigger = 2;
  options.level_fanout = 2;
  index_ = std::move(LsmIndex::Open(extents_.get(), chunks_.get(), options).value());
  for (uint32_t round = 0; round < 8; ++round) {
    index_->Put(round, MakeRecord(round), Dependency());
    ASSERT_TRUE(index_->Flush().ok());
    EXPECT_LT(index_->RunCountAtLevel(0), 2u) << "flush must trigger the L0 merge";
  }
  for (uint32_t round = 0; round < 8; ++round) {
    EXPECT_EQ(*index_->Get(round).value(), MakeRecord(round));
  }
  EXPECT_GE(index_->metrics().Snapshot().counter("lsm.level_compactions"), 4u);
}

TEST_F(LsmTest, ScanUnchangedByCompactLevel) {
  for (ShardId id = 0; id < 6; ++id) {
    index_->Put(id, MakeRecord(static_cast<uint32_t>(id)), Dependency());
    if (id % 2 == 1) {
      ASSERT_TRUE(index_->Flush().ok());
    }
  }
  index_->Delete(3);
  ASSERT_TRUE(index_->Flush().ok());
  auto before = index_->Scan(0, 100).value();
  ASSERT_TRUE(index_->CompactLevel(0).ok());
  auto after = index_->Scan(0, 100).value();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].id, after[i].id);
    EXPECT_EQ(before[i].record, after[i].record);
  }
}

TEST_F(LsmTest, StatsAccumulate) {
  index_->Put(1, MakeRecord(1), Dependency());
  index_->Delete(2);
  (void)index_->Get(1);
  ASSERT_TRUE(index_->Flush().ok());
  MetricsSnapshot snap = index_->metrics().Snapshot();
  EXPECT_EQ(snap.counter("lsm.puts"), 1u);
  EXPECT_EQ(snap.counter("lsm.deletes"), 1u);
  EXPECT_GE(snap.counter("lsm.gets"), 1u);
  EXPECT_EQ(snap.counter("lsm.flushes"), 1u);
  EXPECT_GE(snap.counter("lsm.metadata_writes"), 1u);
}

}  // namespace
}  // namespace ss
