// Unit tests for the ExtentManager: append/read discipline, soft write pointers,
// resets, ownership claims, recovery reconstruction, buffer pool.

#include <gtest/gtest.h>

#include "src/faults/faults.h"
#include "src/superblock/extent_manager.h"

namespace ss {
namespace {

DiskGeometry SmallGeo() {
  return DiskGeometry{.extent_count = 8, .pages_per_extent = 8, .page_size = 64};
}

class ExtentManagerTest : public testing::Test {
 protected:
  ExtentManagerTest() : disk_(SmallGeo()), scheduler_(&disk_), extents_(&disk_, &scheduler_) {
    FaultRegistry::Global().DisableAll();
  }

  ExtentId Claim() { return extents_.ClaimExtent(ExtentOwner::kChunkData).value(); }

  InMemoryDisk disk_;
  IoScheduler scheduler_;
  ExtentManager extents_;
};

TEST_F(ExtentManagerTest, ClaimAssignsOwnershipFromLowExtents) {
  EXPECT_EQ(Claim(), 1u);
  EXPECT_EQ(Claim(), 2u);
  EXPECT_EQ(extents_.Owner(1), ExtentOwner::kChunkData);
  EXPECT_EQ(extents_.Owner(3), ExtentOwner::kFree);
}

TEST_F(ExtentManagerTest, ClaimExhaustsEventually) {
  for (uint32_t i = 1; i < SmallGeo().extent_count; ++i) {
    EXPECT_TRUE(extents_.ClaimExtent(ExtentOwner::kChunkData).ok());
  }
  EXPECT_EQ(extents_.ClaimExtent(ExtentOwner::kChunkData).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ExtentManagerTest, AppendAdvancesWritePointerAndIsReadable) {
  const ExtentId e = Claim();
  Bytes data(100, 0x5a);  // 2 pages at 64B pages
  AppendResult result = extents_.Append(e, data, Dependency()).value();
  EXPECT_EQ(result.first_page, 0u);
  EXPECT_EQ(result.page_count, 2u);
  EXPECT_EQ(extents_.WritePointer(e), 2u);
  // Readable immediately, before any writeback is issued.
  Bytes read = extents_.Read(e, 0, 2).value();
  EXPECT_EQ(read[0], 0x5a);
  EXPECT_EQ(read[99], 0x5a);
  EXPECT_EQ(read[100], 0);  // zero padding
}

TEST_F(ExtentManagerTest, AppendRejectsBadArguments) {
  const ExtentId e = Claim();
  EXPECT_EQ(extents_.Append(0, BytesOf("x"), Dependency()).code(),
            StatusCode::kInvalidArgument);  // superblock extent
  EXPECT_EQ(extents_.Append(e, ByteSpan{}, Dependency()).code(),
            StatusCode::kInvalidArgument);  // empty
  EXPECT_EQ(extents_.Append(7, BytesOf("x"), Dependency()).code(),
            StatusCode::kInvalidArgument);  // unowned extent
}

TEST_F(ExtentManagerTest, AppendFullExtentIsResourceExhausted) {
  const ExtentId e = Claim();
  Bytes page(64, 1);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(extents_.Append(e, page, Dependency()).ok());
  }
  EXPECT_EQ(extents_.Append(e, page, Dependency()).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(extents_.PagesFree(e), 0u);
}

TEST_F(ExtentManagerTest, ReadBeyondWritePointerForbidden) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, BytesOf("data"), Dependency()).ok());
  EXPECT_TRUE(extents_.Read(e, 0, 1).ok());
  EXPECT_EQ(extents_.Read(e, 0, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(extents_.Read(e, 1, 1).code(), StatusCode::kInvalidArgument);
}

TEST_F(ExtentManagerTest, AppendDependencyCoversDataAndSoftPointer) {
  const ExtentId e = Claim();
  AppendResult result = extents_.Append(e, BytesOf("abc"), Dependency()).value();
  EXPECT_FALSE(result.dep.IsPersistent());
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  EXPECT_TRUE(result.dep.IsPersistent());
  EXPECT_EQ(disk_.ReadSoftWp(e), 1u);
  EXPECT_EQ(disk_.ReadOwnership(e), ExtentOwner::kChunkData);
}

TEST_F(ExtentManagerTest, SoftPointerNeverOvertakesData) {
  // Issue writebacks one at a time under a crash with full bias and verify the
  // invariant: the persisted soft pointer never exceeds the persisted data extent.
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, Bytes(200, 7), Dependency()).ok());
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    InMemoryDisk disk2(SmallGeo());
    IoScheduler sched2(&disk2);
    ExtentManager em2(&disk2, &sched2);
    const ExtentId e2 = em2.ClaimExtent(ExtentOwner::kChunkData).value();
    ASSERT_TRUE(em2.Append(e2, Bytes(200, 9), Dependency()).ok());
    sched2.Crash(rng, 0.5);
    const uint32_t soft = disk2.ReadSoftWp(e2);
    for (uint32_t p = 0; p < soft; ++p) {
      EXPECT_EQ(disk2.ReadPage(e2, p).value()[0], 9) << "soft pointer ahead of data";
    }
  }
}

TEST_F(ExtentManagerTest, ResetRewindsAndGatesOnInput) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, Bytes(64, 1), Dependency()).ok());
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  Dependency gate = Dependency::MakeLeaf();
  Dependency reset_dep = extents_.Reset(e, gate);
  EXPECT_EQ(extents_.WritePointer(e), 0u);
  EXPECT_FALSE(extents_.ResetSettled(e));
  scheduler_.Pump(10);
  EXPECT_FALSE(reset_dep.IsPersistent());  // still gated
  gate.MarkLeafPersistent();
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  EXPECT_TRUE(reset_dep.IsPersistent());
  EXPECT_TRUE(extents_.ResetSettled(e));
  EXPECT_EQ(disk_.ReadSoftWp(e), 0u);
}

TEST_F(ExtentManagerTest, AppendAfterResetStartsAtZero) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, Bytes(64, 1), Dependency()).ok());
  extents_.Reset(e, Dependency());
  AppendResult result = extents_.Append(e, Bytes(64, 2), Dependency()).value();
  EXPECT_EQ(result.first_page, 0u);
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  EXPECT_EQ(disk_.ReadSoftWp(e), 1u);
  EXPECT_EQ(disk_.ReadPage(e, 0).value()[0], 2);
}

TEST_F(ExtentManagerTest, RecoveryRestoresStateFromDisk) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, Bytes(130, 0x77), Dependency()).ok());  // 3 pages
  ASSERT_TRUE(scheduler_.FlushAll().ok());

  IoScheduler scheduler2(&disk_);
  ExtentManager recovered(&disk_, &scheduler2);
  EXPECT_EQ(recovered.WritePointer(e), 3u);
  EXPECT_EQ(recovered.Owner(e), ExtentOwner::kChunkData);
  EXPECT_EQ(recovered.Read(e, 0, 3).value()[0], 0x77);
  EXPECT_TRUE(recovered.ResetSettled(e));
}

TEST_F(ExtentManagerTest, RecoveryIgnoresUnpersistedAppends) {
  const ExtentId e = Claim();
  ASSERT_TRUE(scheduler_.FlushAll().ok());  // persist the claim
  ASSERT_TRUE(extents_.Append(e, Bytes(64, 0x99), Dependency()).ok());
  // No flush: the append never reaches the disk.
  scheduler_.CrashDropAll();
  IoScheduler scheduler2(&disk_);
  ExtentManager recovered(&disk_, &scheduler2);
  EXPECT_EQ(recovered.WritePointer(e), 0u);
  EXPECT_EQ(recovered.Read(e, 0, 1).code(), StatusCode::kInvalidArgument);
}

TEST_F(ExtentManagerTest, ClaimResetsStaleFreeExtent) {
  // Simulate the illegal-but-possible-under-bugs state: a free extent with wp > 0.
  ASSERT_TRUE(disk_.WriteSoftWp(5, 4).ok());
  IoScheduler scheduler2(&disk_);
  ExtentManager em2(&disk_, &scheduler2);
  const ExtentId claimed = em2.ClaimExtent(ExtentOwner::kChunkData).value();
  EXPECT_EQ(claimed, 1u);  // lowest free first
  // Claim extent 5 eventually; its stale pointer must be rewound.
  ExtentId e = claimed;
  while (e != 5) {
    e = em2.ClaimExtent(ExtentOwner::kChunkData).value();
  }
  EXPECT_EQ(em2.WritePointer(5), 0u);
  ASSERT_TRUE(scheduler2.FlushAll().ok());
  EXPECT_EQ(disk_.ReadSoftWp(5), 0u);
}

TEST_F(ExtentManagerTest, InjectedWriteFailureSurfacesSynchronously) {
  const ExtentId e = Claim();
  // A burst longer than the retry budget must surface to the caller.
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailWriteTimes(e, common::RetryOptions{}.max_attempts);
  EXPECT_EQ(extents_.Append(e, BytesOf("x"), Dependency()).code(), StatusCode::kIoError);
  // Nothing staged: the write pointer did not move.
  EXPECT_EQ(extents_.WritePointer(e), 0u);
  // Next append succeeds.
  EXPECT_TRUE(extents_.Append(e, BytesOf("x"), Dependency()).ok());
  EXPECT_GE(extents_.metrics().Snapshot().counter("extent.retry.exhausted"), 1u);
}

TEST_F(ExtentManagerTest, InjectedReadFailureSurfaces) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, BytesOf("x"), Dependency()).ok());
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailReadTimes(e, common::RetryOptions{}.max_attempts);
  EXPECT_EQ(extents_.Read(e, 0, 1).code(), StatusCode::kIoError);
  EXPECT_TRUE(extents_.Read(e, 0, 1).ok());
}

TEST_F(ExtentManagerTest, SingleBlipIsAbsorbedByRetry) {
  const ExtentId e = Claim();
  ScopedFault guard(disk_.fault_injector());
  // One-shot faults (burst < retry budget) are retried away transparently.
  disk_.fault_injector().FailWriteOnce(e);
  EXPECT_TRUE(extents_.Append(e, BytesOf("x"), Dependency()).ok());
  disk_.fault_injector().FailReadOnce(e);
  EXPECT_TRUE(extents_.Read(e, 0, 1).ok());
  EXPECT_GE(extents_.metrics().Snapshot().counter("extent.retry.absorbed"), 2u);
  EXPECT_EQ(extents_.metrics().Snapshot().counter("extent.retry.exhausted"), 0u);
  // Backoff advanced the deterministic virtual clock, not the wall clock.
  EXPECT_GT(extents_.VirtualNow(), 0u);
  EXPECT_EQ(extents_.health().health(), DiskHealth::kHealthy);
}

TEST_F(ExtentManagerTest, PermanentFaultShortCircuitsAsDiskFailed) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, BytesOf("x"), Dependency()).ok());
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailAlways(e, true);
  const uint64_t attempts_before = extents_.metrics().Snapshot().counter("extent.retry.attempts");
  EXPECT_EQ(extents_.Read(e, 0, 1).code(), StatusCode::kDiskFailed);
  // Permanent faults are not retried: one classifying attempt, no retry loop.
  EXPECT_EQ(extents_.metrics().Snapshot().counter("extent.retry.attempts"), attempts_before + 1);
  EXPECT_EQ(extents_.health().health(), DiskHealth::kFailed);
  EXPECT_GE(extents_.metrics().Snapshot().counter("extent.retry.permanent_failures"), 1u);
}

TEST_F(ExtentManagerTest, RepeatedBurstsDegradeThenFailHealth) {
  ExtentManager em(&disk_, &scheduler_, ExtentManager::kDefaultBufferPermits,
                   common::RetryOptions{.max_attempts = 2, .backoff_base_ticks = 1});
  const ExtentId e = em.ClaimExtent(ExtentOwner::kChunkData).value();
  ASSERT_TRUE(em.Append(e, BytesOf("x"), Dependency()).ok());
  ScopedFault guard(disk_.fault_injector());
  // Each surfaced burst burns `max_attempts` transient errors from the window.
  while (em.health().health() == DiskHealth::kHealthy) {
    disk_.fault_injector().FailReadTimes(e, 2);
    EXPECT_EQ(em.Read(e, 0, 1).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(em.health().health(), DiskHealth::kDegraded);
  EXPECT_GE(em.health().windowed_errors(), DiskHealthTracker::kDegradeAfter);
  while (em.health().health() == DiskHealth::kDegraded) {
    disk_.fault_injector().FailReadTimes(e, 2);
    EXPECT_EQ(em.Read(e, 0, 1).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(em.health().health(), DiskHealth::kFailed);
  EXPECT_EQ(em.health().budget_remaining(), 0u);
  // Health transitions are sticky: successes never promote back...
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(em.Read(e, 0, 1).ok());
  }
  EXPECT_EQ(em.health().health(), DiskHealth::kFailed);
  // ...only an explicit operator reset does.
  em.health().Reset();
  EXPECT_EQ(em.health().health(), DiskHealth::kHealthy);
  EXPECT_EQ(em.health().windowed_errors(), 0u);
}

TEST_F(ExtentManagerTest, SuccessesDecayTheErrorWindow) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, BytesOf("x"), Dependency()).ok());
  ScopedFault guard(disk_.fault_injector());
  // Two absorbed blips put two errors in the window.
  disk_.fault_injector().FailReadOnce(e);
  ASSERT_TRUE(extents_.Read(e, 0, 1).ok());
  disk_.fault_injector().FailReadOnce(e);
  ASSERT_TRUE(extents_.Read(e, 0, 1).ok());
  EXPECT_GE(extents_.health().windowed_errors(), 2u);
  // A long healthy streak decays the window back to empty.
  for (int i = 0; i < 256 && extents_.health().windowed_errors() > 0; ++i) {
    ASSERT_TRUE(extents_.Read(e, 0, 1).ok());
  }
  EXPECT_EQ(extents_.health().windowed_errors(), 0u);
  EXPECT_EQ(extents_.health().health(), DiskHealth::kHealthy);
}

TEST_F(ExtentManagerTest, PagesNeededRounding) {
  EXPECT_EQ(extents_.PagesNeeded(1), 1u);
  EXPECT_EQ(extents_.PagesNeeded(64), 1u);
  EXPECT_EQ(extents_.PagesNeeded(65), 2u);
  EXPECT_EQ(extents_.PagesNeeded(128), 2u);
}

TEST_F(ExtentManagerTest, ExtentsOwnedByFilters) {
  Claim();
  extents_.ClaimExtent(ExtentOwner::kLsmMetadata).value();
  Claim();
  EXPECT_EQ(extents_.ExtentsOwnedBy(ExtentOwner::kChunkData).size(), 2u);
  EXPECT_EQ(extents_.ExtentsOwnedBy(ExtentOwner::kLsmMetadata).size(), 1u);
}

// Seeded bug #7: after a reset, the soft-pointer tracker is stale and covering updates
// are skipped, so a clean flush leaves data beyond the persisted pointer.
TEST_F(ExtentManagerTest, Bug7LeavesDataAboveSoftPointer) {
  const ExtentId e = Claim();
  ASSERT_TRUE(extents_.Append(e, Bytes(300, 1), Dependency()).ok());  // 5 pages
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  {
    ScopedBug bug(SeededBug::kSoftPointerNotResetPersisted);
    extents_.Reset(e, Dependency());
    ASSERT_TRUE(extents_.Append(e, Bytes(64, 2), Dependency()).ok());
  }
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  // Correct behaviour would persist soft wp 1; the bug leaves it at 0 because the
  // covering update was skipped.
  EXPECT_EQ(disk_.ReadSoftWp(e), 0u);
}

// Seeded bug #8: the returned dependency omits the soft-pointer leg, reporting
// persistence before recovery could actually see the data.
TEST_F(ExtentManagerTest, Bug8DependencyIgnoresSoftPointer) {
  const ExtentId e = Claim();
  ScopedBug bug(SeededBug::kWriteMissingSoftPointerDep);
  AppendResult result = extents_.Append(e, BytesOf("abc"), Dependency()).value();
  // Issue only data + ownership records; artificially keep the soft-wp record queued by
  // pumping exactly the first records. Simplest check: after a full flush both are
  // persistent, but the dependency graph differs — validated via the crash harness; at
  // unit level we just confirm the dependency can persist.
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  EXPECT_TRUE(result.dep.IsPersistent());
}

}  // namespace
}  // namespace ss
