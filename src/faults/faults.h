// Seeded-bug registry.
//
// Figure 5 of the paper catalogues 16 real issues that the validation effort prevented
// from reaching production. To reproduce that result we re-implement each issue as a
// switchable code path *inside the real implementation*: enabling a SeededBug makes the
// corresponding module misbehave in the way the paper describes, and the matching
// checker (conformance / crash consistency / model checking) must then detect it.
// Rows #17-#19 follow the paper's 16: bugs this reproduction's own harnesses exist to
// catch, seeded the same way. bench/bench_fig5_bug_catalog.cc drives the full table.
//
// All bugs default to off; production behaviour is the correct path.

#ifndef SS_FAULTS_FAULTS_H_
#define SS_FAULTS_FAULTS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace ss {

// One entry per Figure 5 row, then this reproduction's rows. Comments give the
// description.
enum class SeededBug : uint8_t {
  // #1 Chunk store: off-by-one error in reclamation for chunks of size close to PAGE_SIZE.
  kReclaimOffByOnePageSize = 0,
  // #2 Buffer cache: cache was not correctly drained after resetting an extent.
  kCacheNotDrainedOnReset = 1,
  // #3 Index: metadata was not flushed correctly during shutdown if an extent was reset.
  kShutdownMetadataSkipAfterReset = 2,
  // #4 API: shards could be lost if a disk was removed from service and later returned.
  kDiskRemovalLosesShards = 3,
  // #5 Chunk store: reclamation could forget chunks after a transient read IO error.
  kReclaimForgetsChunkOnReadError = 4,
  // #6 Superblock: superblock Dependency for extent ownership was incorrect after reboot.
  kSuperblockWrongOwnershipDep = 5,
  // #7 Superblock: mismatch between soft and hard write pointers in a crash after reset.
  kSoftPointerNotResetPersisted = 6,
  // #8 Buffer cache: writes did not include a dependency on the soft write pointer update.
  kWriteMissingSoftPointerDep = 7,
  // #9 Chunk store: recovery trusted state that a crash during reclamation invalidated.
  kRecoveryWritePointerPastCrash = 8,
  // #10 Chunk store: reclamation could forget chunks after a crash and UUID collision.
  kReclaimUuidCollision = 9,
  // #11 Chunk store: chunk locators could become invalid after a race between write/flush.
  kLocatorInvalidOnWriteFlushRace = 10,
  // #12 Superblock: buffer pool exhaustion could deadlock threads waiting for an update.
  kBufferPoolDeadlock = 11,
  // #13 API: race between control plane listing and removal of shards.
  kListRemoveRace = 12,
  // #14 Index: race between reclamation and LSM compaction could lose index entries.
  kCompactReclaimMetadataRace = 13,
  // #15 Chunk store: reference model could re-use chunk locators.
  kModelLocatorReuse = 14,
  // #16 API: race between control plane bulk create and bulk remove of shards.
  kBulkCreateRemoveRace = 15,
  // #17 Cluster: read repair paired the newest version with the first reply's value.
  kReadRepairWrongValue = 16,
  // #18 Index: partial level merges dropped tombstones above the bottom level.
  kDropTombstonesAboveBottom = 17,
  // #19 API: Put/Delete committed their route unconditionally, clobbering a migration.
  kUnconditionalRouteCommit = 18,
};

// The paper's Figure 5 rows are the first 16; the registry holds all of them.
inline constexpr int kPaperSeededBugCount = 16;
inline constexpr int kSeededBugCount = 19;

// Short stable name ("#10 ReclaimUuidCollision") for reports.
std::string_view SeededBugName(SeededBug bug);
// Paper's one-line description.
std::string_view SeededBugDescription(SeededBug bug);
// The paper's component column ("Chunk store", "Index", ...).
std::string_view SeededBugComponent(SeededBug bug);

// Process-wide switchboard. Tests enable exactly one bug, run a checker, then disable.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  void Enable(SeededBug bug) { enabled_[Idx(bug)].store(true, std::memory_order_relaxed); }
  void Disable(SeededBug bug) { enabled_[Idx(bug)].store(false, std::memory_order_relaxed); }
  void DisableAll();
  bool IsEnabled(SeededBug bug) const {
    return enabled_[Idx(bug)].load(std::memory_order_relaxed);
  }

 private:
  static size_t Idx(SeededBug bug) { return static_cast<size_t>(bug); }
  std::array<std::atomic<bool>, kSeededBugCount> enabled_{};
};

// Convenience predicate used at injection sites:
//   if (BugEnabled(SeededBug::kReclaimOffByOnePageSize)) { ...buggy path... }
inline bool BugEnabled(SeededBug bug) { return FaultRegistry::Global().IsEnabled(bug); }

// RAII scope that enables a seeded bug for the duration of a test body and guarantees
// it cannot leak into later tests: the destructor disables the bug even if the test
// body exits early. Prefer this over raw Enable/Disable pairs in tests.
class ScopedBug {
 public:
  explicit ScopedBug(SeededBug bug) : bug_(bug) { FaultRegistry::Global().Enable(bug); }
  ~ScopedBug() { FaultRegistry::Global().Disable(bug_); }
  ScopedBug(const ScopedBug&) = delete;
  ScopedBug& operator=(const ScopedBug&) = delete;

 private:
  SeededBug bug_;
};

}  // namespace ss

#endif  // SS_FAULTS_FAULTS_H_
