// Figure 1 walkthrough: ShardStore's on-disk layout before and after chunk
// reclamation. Builds the paper's state (a) — an extent holding a hole left by a
// deleted shard — runs reclamation, and prints state (b): live chunks evacuated, the
// extent reset for reuse, index updated.
//
//   $ ./build/examples/reclamation_demo

#include <cstdio>

#include "src/kv/shard_store.h"

using namespace ss;

namespace {

// Prints each data extent as a row of page cells, reconstructed with the chunk
// store's scanner and the index's reverse lookups (like Figure 1's boxes).
void PrintLayout(ShardStore& store, const char* title) {
  printf("%s\n", title);
  const DiskGeometry& geo = store.extents().geometry();
  for (ExtentId e = 1; e < geo.extent_count; ++e) {
    const ExtentOwner owner = store.extents().Owner(e);
    if (owner == ExtentOwner::kFree) {
      continue;
    }
    const uint32_t wp = store.extents().WritePointer(e);
    printf("  extent %-2u [%s] wp=%-2u |", e,
           owner == ExtentOwner::kLsmMetadata ? "lsm-meta " : "chunk-data", wp);
    if (owner == ExtentOwner::kLsmMetadata) {
      printf(" %u metadata page(s) |\n", wp);
      continue;
    }
    auto scanned_or = store.chunks().ScanExtent(e);
    if (!scanned_or.ok()) {
      printf(" <scan failed: %s>\n", scanned_or.status().ToString().c_str());
      continue;
    }
    for (const auto& chunk : scanned_or.value()) {
      // Reverse lookup: the index names who holds the chunk (its run list or a
      // shard), or nobody (garbage).
      auto holder_or = store.index().FindHolder(chunk.locator);
      if (!holder_or.ok() || !holder_or.value().has_value()) {
        printf(" GARBAGE@p%u |", chunk.locator.first_page);
      } else if (holder_or.value()->kind == LsmIndex::kRunListHolder) {
        printf(" LSM-run@p%u |", chunk.locator.first_page);
      } else {
        printf(" shard 0x%llx@p%u |",
               static_cast<unsigned long long>(holder_or.value()->id),
               chunk.locator.first_page);
      }
    }
    printf("\n");
  }
  printf("  (disk: %llu live pages per the superblock)\n\n",
         static_cast<unsigned long long>(store.disk().LivePages()));
}

}  // namespace

int main() {
  printf("== Figure 1: chunk reclamation walkthrough ==\n\n");

  InMemoryDisk disk(DiskGeometry{.extent_count = 12, .pages_per_extent = 8,
                                 .page_size = 256});
  auto store = std::move(ShardStore::Open(&disk).value());

  // Build state (a): three shards; then delete one, leaving an unreferenced chunk
  // ("hole") on its extent.
  for (ShardId id : {0x13, 0x28, 0x75}) {
    if (!store->Put(id, Bytes(300, static_cast<uint8_t>(id))).ok()) {
      printf("put failed\n");
      return 1;
    }
  }
  (void)store->FlushIndex();
  (void)store->Delete(0x28);
  (void)store->FlushIndex();
  (void)store->FlushAll();

  PrintLayout(*store, "state (a): shard 0x28 deleted; its chunk is now a hole");

  // Run reclamation over every reclaimable extent (what the background task does).
  int reclaimed = 0;
  for (ExtentId e : store->chunks().ReclaimableExtents()) {
    if (store->ReclaimExtent(e).ok()) {
      ++reclaimed;
    }
  }
  (void)store->FlushAll();

  printf("ran reclamation on %d extent(s): live chunks evacuated, index updated,\n"
         "write pointers reset once the moves were durable\n\n",
         reclaimed);
  PrintLayout(*store, "state (b): after reclamation");

  // Everything still readable.
  for (ShardId id : {0x13, 0x75}) {
    auto got = store->Get(id);
    printf("get shard 0x%llx -> %s\n", static_cast<unsigned long long>(id),
           got.ok() ? "ok" : got.status().ToString().c_str());
  }
  auto gone = store->Get(0x28);
  printf("get shard 0x28 -> %s (deleted)\n", gone.status().ToString().c_str());

  const MetricsSnapshot snap = store->metrics().Snapshot();
  printf("\nreclaimer stats: %llu evacuated, %llu dropped, %llu reclaim passes\n",
         static_cast<unsigned long long>(snap.counter("chunk.evacuated")),
         static_cast<unsigned long long>(snap.counter("chunk.dropped")),
         static_cast<unsigned long long>(snap.counter("chunk.reclaims")));
  return 0;
}
