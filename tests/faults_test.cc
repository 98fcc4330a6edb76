// Unit tests for the seeded-bug registry and the disk fault injector, plus
// fault-injection regressions for the compaction retry loop.

#include <gtest/gtest.h>

#include "src/sync/sync.h"

#include "src/cache/buffer_cache.h"
#include "src/chunk/chunk_store.h"
#include "src/dep/io_scheduler.h"
#include "src/disk/disk.h"
#include "src/faults/faults.h"
#include "src/lsm/lsm_index.h"
#include "src/superblock/extent_manager.h"

namespace ss {
namespace {

TEST(Faults, AllDisabledByDefault) {
  FaultRegistry::Global().DisableAll();
  for (int b = 0; b < kSeededBugCount; ++b) {
    EXPECT_FALSE(BugEnabled(static_cast<SeededBug>(b)));
  }
}

TEST(Faults, EnableDisableRoundTrip) {
  FaultRegistry::Global().Enable(SeededBug::kReclaimUuidCollision);
  EXPECT_TRUE(BugEnabled(SeededBug::kReclaimUuidCollision));
  EXPECT_FALSE(BugEnabled(SeededBug::kCacheNotDrainedOnReset));
  FaultRegistry::Global().Disable(SeededBug::kReclaimUuidCollision);
  EXPECT_FALSE(BugEnabled(SeededBug::kReclaimUuidCollision));
}

TEST(Faults, ScopedBugRestoresState) {
  {
    ScopedBug scope(SeededBug::kBufferPoolDeadlock);
    EXPECT_TRUE(BugEnabled(SeededBug::kBufferPoolDeadlock));
  }
  EXPECT_FALSE(BugEnabled(SeededBug::kBufferPoolDeadlock));
}

TEST(Faults, MetadataTablesComplete) {
  for (int b = 0; b < kSeededBugCount; ++b) {
    const auto bug = static_cast<SeededBug>(b);
    EXPECT_FALSE(SeededBugName(bug).empty());
    EXPECT_FALSE(SeededBugDescription(bug).empty());
    EXPECT_FALSE(SeededBugComponent(bug).empty());
    // Names carry the Figure 5 row number.
    EXPECT_EQ(SeededBugName(bug)[0], '#');
  }
}

TEST(Faults, ComponentsMatchFigure5) {
  EXPECT_EQ(SeededBugComponent(SeededBug::kReclaimOffByOnePageSize), "Chunk store");
  EXPECT_EQ(SeededBugComponent(SeededBug::kCacheNotDrainedOnReset), "Buffer cache");
  EXPECT_EQ(SeededBugComponent(SeededBug::kShutdownMetadataSkipAfterReset), "Index");
  EXPECT_EQ(SeededBugComponent(SeededBug::kDiskRemovalLosesShards), "API");
  EXPECT_EQ(SeededBugComponent(SeededBug::kSuperblockWrongOwnershipDep), "Superblock");
}

// The rows after the paper's keep the numbering going, so #1-#16 keep theirs.
TEST(Faults, RowsAfterThePaperFollowFigure5) {
  EXPECT_EQ(kSeededBugCount, kPaperSeededBugCount + 3);
  EXPECT_EQ(SeededBugName(SeededBug::kBulkCreateRemoveRace), "#16 BulkCreateRemoveRace");
  EXPECT_EQ(SeededBugName(SeededBug::kReadRepairWrongValue), "#17 ReadRepairWrongValue");
  EXPECT_EQ(SeededBugName(SeededBug::kDropTombstonesAboveBottom),
            "#18 DropTombstonesAboveBottom");
  EXPECT_EQ(SeededBugName(SeededBug::kUnconditionalRouteCommit),
            "#19 UnconditionalRouteCommit");
  EXPECT_EQ(SeededBugComponent(SeededBug::kReadRepairWrongValue), "Cluster");
  EXPECT_EQ(SeededBugComponent(SeededBug::kDropTombstonesAboveBottom), "Index");
  EXPECT_EQ(SeededBugComponent(SeededBug::kUnconditionalRouteCommit), "API");
}

TEST(Faults, DisableAllClearsEverything) {
  for (int b = 0; b < kSeededBugCount; ++b) {
    FaultRegistry::Global().Enable(static_cast<SeededBug>(b));
  }
  FaultRegistry::Global().DisableAll();
  for (int b = 0; b < kSeededBugCount; ++b) {
    EXPECT_FALSE(BugEnabled(static_cast<SeededBug>(b)));
  }
}

TEST(Faults, ScopedBugSurvivesEarlyExit) {
  // The guard must clean up even when the scope unwinds through a return/throw path.
  auto body = [] {
    ScopedBug scope(SeededBug::kListRemoveRace);
    EXPECT_TRUE(BugEnabled(SeededBug::kListRemoveRace));
    return;  // early exit; destructor still runs
  };
  body();
  EXPECT_FALSE(BugEnabled(SeededBug::kListRemoveRace));
}

// --- DiskFaultInjector edge cases ----------------------------------------------------

TEST(FaultInjector, PermanentBeatsOneShotOnSameExtent) {
  DiskFaultInjector injector;
  injector.FailReadOnce(3);
  injector.FailAlways(3, true);
  // FailAlways wins on every attempt; the one-shot entry is not what gates the extent.
  EXPECT_TRUE(injector.IsPermanentlyFailed(3));
  EXPECT_TRUE(injector.ShouldFailRead(3));
  EXPECT_TRUE(injector.ShouldFailRead(3));
  EXPECT_TRUE(injector.ShouldFailRead(3));
  // Disarming the permanent fault exposes the (still armed) one-shot, which then
  // consumes itself.
  injector.FailAlways(3, false);
  EXPECT_FALSE(injector.IsPermanentlyFailed(3));
  EXPECT_TRUE(injector.ShouldFailRead(3));
  EXPECT_FALSE(injector.ShouldFailRead(3));
}

TEST(FaultInjector, ClearMidSequenceDropsRemainingBurst) {
  DiskFaultInjector injector;
  injector.FailReadTimes(2, 4);
  EXPECT_TRUE(injector.ShouldFailRead(2));
  EXPECT_TRUE(injector.ShouldFailRead(2));
  injector.Clear();
  // The two unconsumed entries are gone, as is everything else armed.
  EXPECT_FALSE(injector.ShouldFailRead(2));
  EXPECT_FALSE(injector.AnyArmed());
}

TEST(FaultInjector, ReadAndWriteBurstsAreIndependent) {
  DiskFaultInjector injector;
  injector.FailReadTimes(1, 2);
  injector.FailWriteTimes(1, 1);
  EXPECT_TRUE(injector.ShouldFailWrite(1));
  EXPECT_FALSE(injector.ShouldFailWrite(1));  // write burst exhausted
  EXPECT_TRUE(injector.ShouldFailRead(1));    // read burst untouched by write consumption
  EXPECT_TRUE(injector.ShouldFailRead(1));
  EXPECT_FALSE(injector.ShouldFailRead(1));
}

TEST(FaultInjector, ConcurrentArmingFromTwoThreadsLosesNothing) {
  DiskFaultInjector injector;
  constexpr int kPerThread = 200;
  Thread a = Thread::Spawn([&] {
    for (int i = 0; i < kPerThread; ++i) {
      injector.FailReadOnce(1);
    }
  });
  Thread b = Thread::Spawn([&] {
    for (int i = 0; i < kPerThread; ++i) {
      injector.FailReadOnce(1);
    }
  });
  a.Join();
  b.Join();
  // Every armed entry is consumable exactly once.
  int fired = 0;
  while (injector.ShouldFailRead(1)) {
    ++fired;
  }
  EXPECT_EQ(fired, 2 * kPerThread);
  EXPECT_FALSE(injector.AnyArmed());
}

TEST(FaultInjector, ScopedFaultClearsOnScopeExit) {
  DiskFaultInjector injector;
  {
    ScopedFault guard(injector);
    injector.FailAlways(5, true);
    injector.FailWriteTimes(2, 3);
    EXPECT_TRUE(injector.AnyArmed());
  }
  EXPECT_FALSE(injector.AnyArmed());
  EXPECT_FALSE(injector.IsPermanentlyFailed(5));
}

// --- Compaction retry-loop fault injection ---------------------------------------------

ShardRecord FaultTestRecord(uint32_t tag) {
  ShardRecord record;
  record.total_bytes = tag;
  record.chunks.push_back(Locator{90000 + tag, tag, 1, 64});
  return record;
}

struct LsmFaultStack {
  InMemoryDisk disk{DiskGeometry{.extent_count = 12, .pages_per_extent = 16,
                                 .page_size = 128}};
  std::unique_ptr<IoScheduler> scheduler;
  std::unique_ptr<ExtentManager> extents;
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<ChunkStore> chunks;
  std::unique_ptr<LsmIndex> index;

  void Open() {
    index.reset();
    scheduler = std::make_unique<IoScheduler>(&disk);
    extents = std::make_unique<ExtentManager>(&disk, scheduler.get());
    cache = std::make_unique<BufferCache>(extents.get(), 64);
    chunks = std::make_unique<ChunkStore>(extents.get(), cache.get(), ChunkStoreOptions{});
    index = std::move(LsmIndex::Open(extents.get(), chunks.get(), LsmOptions{}).value());
  }

  // Two flushed runs so compaction has a real merge to do.
  void SeedTwoRuns() {
    index->Put(1, FaultTestRecord(1), Dependency());
    index->Put(2, FaultTestRecord(2), Dependency());
    ASSERT_TRUE(index->Flush().ok());
    index->Put(3, FaultTestRecord(3), Dependency());
    ASSERT_TRUE(index->Flush().ok());
    ASSERT_TRUE(scheduler->FlushAll().ok());
  }
};

// A permanently failed run extent must abort Compact() on the first attempt with
// kDiskFailed — not burn the remaining retries — and must leave nothing behind: no
// output chunks were written (no orphans to reclaim), no extent stays pinned, and the
// committed state is untouched. After the extent recovers, compaction succeeds.
TEST(CompactionFaults, PermanentRunLoadFailureAbortsCleanlyWithoutOrphans) {
  FaultRegistry::Global().DisableAll();
  LsmFaultStack stack;
  stack.Open();
  stack.SeedTwoRuns();
  ASSERT_EQ(stack.index->RunCount(), 2u);
  const uint64_t version = stack.index->MetadataVersion();
  const uint64_t puts_before = stack.chunks->metrics().Snapshot().counter("chunk.puts");

  const Locator run = stack.index->RunLocators()[0];
  {
    ScopedFault guard(stack.disk.fault_injector());
    stack.disk.fault_injector().FailAlways(run.extent, true);
    stack.cache->DrainExtent(run.extent);  // force the read through to the failed disk
    Status status = stack.index->Compact();
    EXPECT_EQ(status.code(), StatusCode::kDiskFailed) << status.ToString();
    // Aborted before writing any output: no orphaned chunks, no metadata churn.
    EXPECT_EQ(stack.chunks->metrics().Snapshot().counter("chunk.puts"), puts_before);
    EXPECT_EQ(stack.index->MetadataVersion(), version);
    EXPECT_EQ(stack.index->RunCount(), 2u);
  }
  // The failed attempt pinned nothing: with the fault cleared the same compaction (and
  // a reclamation sweep over the data extents) go through unobstructed.
  ASSERT_TRUE(stack.index->Compact().ok());
  EXPECT_EQ(stack.index->RunCount(), 1u);
  EXPECT_TRUE(stack.index->Get(1).value().has_value());
  EXPECT_TRUE(stack.index->Get(3).value().has_value());
}

// A metadata-write failure mid-compaction must roll the in-memory run list back to the
// committed inputs. The pre-fix code left the never-persisted outputs in place, so the
// in-memory index diverged from durable metadata: recovery (or a reclamation keyed off
// the durable state) then served the wrong runs.
TEST(CompactionFaults, MetadataWriteFailureRestoresCommittedRuns) {
  FaultRegistry::Global().DisableAll();
  LsmFaultStack stack;
  stack.Open();
  stack.SeedTwoRuns();
  const uint64_t version = stack.index->MetadataVersion();
  const std::vector<Locator> committed = stack.index->RunLocators();

  {
    ScopedFault guard(stack.disk.fault_injector());
    for (ExtentId e : stack.extents->ExtentsOwnedBy(ExtentOwner::kLsmMetadata)) {
      stack.disk.fault_injector().FailAlways(e, true);
    }
    Status status = stack.index->Compact();
    ASSERT_FALSE(status.ok());
    // Rollback: the committed runs are back in place, in order, and every key is
    // still served from them.
    EXPECT_EQ(stack.index->RunLocators(), committed);
    EXPECT_EQ(stack.index->MetadataVersion(), version);
    for (ShardId id = 1; id <= 3; ++id) {
      EXPECT_TRUE(stack.index->Get(id).value().has_value()) << "key " << id;
    }
  }
  // The in-memory state matches durable metadata again, so a crash-free reopen (and a
  // later successful compaction) both see the full mapping.
  ASSERT_TRUE(stack.scheduler->FlushAll().ok());
  stack.Open();
  EXPECT_EQ(stack.index->Keys().value().size(), 3u);
  ASSERT_TRUE(stack.index->Compact().ok());
  EXPECT_EQ(stack.index->Keys().value().size(), 3u);
}

TEST(FaultInjector, FailureRatesAreDeterministicPerSeed) {
  DiskFaultInjector injector;
  injector.SetFailureRates(/*read_rate=*/0.5, /*write_rate=*/0.0, /*seed=*/42);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(injector.ShouldFailRead(1));
  }
  // Same seed, same coin flips.
  injector.SetFailureRates(0.5, 0.0, 42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(injector.ShouldFailRead(1), first[i]) << "flip " << i;
  }
  // Writes never fail at rate 0; Clear() zeroes the rates.
  EXPECT_FALSE(injector.ShouldFailWrite(1));
  injector.Clear();
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(injector.ShouldFailRead(1));
  }
}

}  // namespace
}  // namespace ss
