#include "src/faults/faults.h"

namespace ss {
namespace {

struct BugInfo {
  std::string_view name;
  std::string_view component;
  std::string_view description;
};

constexpr std::array<BugInfo, kSeededBugCount> kBugInfo = {{
    {"#1 ReclaimOffByOnePageSize", "Chunk store",
     "Off-by-one error in reclamation for chunks of size close to PAGE_SIZE"},
    {"#2 CacheNotDrainedOnReset", "Buffer cache",
     "Cache was not correctly drained after resetting an extent"},
    {"#3 ShutdownMetadataSkipAfterReset", "Index",
     "Metadata was not flushed correctly during shutdown if an extent was reset"},
    {"#4 DiskRemovalLosesShards", "API",
     "Shards could be lost if a disk was removed from service and then later returned"},
    {"#5 ReclaimForgetsChunkOnReadError", "Chunk store",
     "Reclamation could forget chunks after a transient read IO error"},
    {"#6 SuperblockWrongOwnershipDep", "Superblock",
     "Superblock Dependency for extent ownership was incorrect after a reboot"},
    {"#7 SoftPointerNotResetPersisted", "Superblock",
     "Mismatch between soft and hard write pointers in a crash after an extent reset"},
    {"#8 WriteMissingSoftPointerDep", "Buffer cache",
     "Writes did not include a dependency on the soft write pointer update"},
    {"#9 RecoveryWritePointerPastCrash", "Chunk store",
     "Reference model was not updated correctly after a crash during reclamation"},
    {"#10 ReclaimUuidCollision", "Chunk store",
     "Reclamation could forget chunks after a crash and UUID collision"},
    {"#11 LocatorInvalidOnWriteFlushRace", "Chunk store",
     "Chunk locators could become invalid after a race between write and flush"},
    {"#12 BufferPoolDeadlock", "Superblock",
     "Buffer pool exhaustion could cause threads waiting for a superblock update to deadlock"},
    {"#13 ListRemoveRace", "API",
     "Race between control plane operations for listing and removal of shards"},
    {"#14 CompactReclaimMetadataRace", "Index",
     "Race between reclamation and LSM compaction could lose recent index entries"},
    {"#15 ModelLocatorReuse", "Chunk store",
     "Reference model could re-use chunk locators, which other code assumed were unique"},
    {"#16 BulkCreateRemoveRace", "API",
     "Race between control plane bulk operations for creating and removing shards"},
    {"#17 ReadRepairWrongValue", "Cluster",
     "Read repair paired the newest version with the first reply's value, corrupting replicas"},
    {"#18 DropTombstonesAboveBottom", "Index",
     "Partial level merges dropped tombstones above the bottom level, resurrecting shards"},
    {"#19 UnconditionalRouteCommit", "API",
     "Put/Delete committed their route unconditionally, clobbering a concurrent migration"},
}};

}  // namespace

std::string_view SeededBugName(SeededBug bug) {
  return kBugInfo[static_cast<size_t>(bug)].name;
}

std::string_view SeededBugDescription(SeededBug bug) {
  return kBugInfo[static_cast<size_t>(bug)].description;
}

std::string_view SeededBugComponent(SeededBug bug) {
  return kBugInfo[static_cast<size_t>(bug)].component;
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* instance = new FaultRegistry();
  return *instance;
}

void FaultRegistry::DisableAll() {
  for (auto& flag : enabled_) {
    flag.store(false, std::memory_order_relaxed);
  }
}

}  // namespace ss
