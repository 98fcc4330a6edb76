// ShardStore: the per-disk key-value store (paper section 2).
//
// Composes the whole stack over one Disk backend:
//
//     ShardStore (shard put/get/delete, recovery, maintenance)
//       ├── LsmIndex        shard id -> ShardRecord (chunk locators)
//       ├── ChunkStore      chunk put/get + reclamation
//       ├── BufferCache     read-through page cache
//       ├── ExtentManager   append-only extents + soft write pointers + superblock
//       ├── IoScheduler     dependency-ordered writebacks
//       └── Disk            persistent image (owned by the caller, survives "crashes")
//
// A crash is simulated by IoScheduler::Crash() followed by destroying the ShardStore
// and calling Open() on the same disk — recovery is simply reconstruction from the
// persistent image, exactly as the paper's DirtyReboot harness does.

#ifndef SS_KV_SHARD_STORE_H_
#define SS_KV_SHARD_STORE_H_

#include <memory>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/chunk/chunk_store.h"
#include "src/dep/io_scheduler.h"
#include "src/disk/disk.h"
#include "src/lsm/lsm_index.h"
#include "src/obs/metrics.h"
#include "src/superblock/extent_manager.h"

namespace ss {

struct ShardStoreOptions {
  ChunkStoreOptions chunk;
  LsmOptions lsm;
  size_t cache_pages = 256;
  uint32_t buffer_permits = ExtentManager::kDefaultBufferPermits;
  // Largest accepted shard value (split across this many chunks at most).
  size_t max_chunks_per_shard = 16;
  // Transient-fault retry policy for the extent layer.
  common::RetryOptions retry;
};

// One live entry of a range scan: the shard id plus its fully assembled value.
struct ScanItem {
  ShardId id = 0;
  Bytes value;
};

// One mutation of a write: a put (value set) or a delete (value empty). The value is
// borrowed; it must outlive the Write call.
struct StoreWrite {
  ShardId id = 0;
  std::optional<ByteSpan> value;  // nullopt = delete
};

// The owning form of StoreWrite, for batches built from temporaries (ApplyBatch).
struct StoreBatchItem {
  ShardId id = 0;
  std::optional<Bytes> value;  // nullopt = delete
};

// Per-item outcome of a write. `dep` is trivially persistent for failed items.
struct StoreBatchItemResult {
  Status status;
  Dependency dep;
};

struct StoreBatchResult {
  std::vector<StoreBatchItemResult> items;  // input order
  Dependency dep;  // join of the successful items' dependencies
};

class ShardStore {
 public:
  // Opens (formatting a fresh disk, or recovering an existing image). The disk must
  // outlive the store.
  static Result<std::unique_ptr<ShardStore>> Open(Disk* disk,
                                                  ShardStoreOptions options = {});

  // --- Request plane ---------------------------------------------------------------------
  // Each operation takes an optional SpanScope: when active, the store records a
  // store.* child span with the full descendant chain (lsm.*, chunk.*, extent.*,
  // io.*, cache.*) under the caller's root span. The default inactive scope makes
  // tracing cost one branch.
  //
  // The one write routine: a group commit of `writes`. Each put's value is split into
  // chunks and staged; then every staged item enters the index in one LsmIndex::Insert,
  // behind one shared durability promise, so the whole group costs one metadata barrier
  // instead of one per item. A put is durable once its data chunks, its index entry and
  // the soft pointers covering the chunks are (Figure 2): poll the item's dependency.
  // Items fail independently (per-item Status; a failed put's chunks are unreferenced
  // garbage); the result's dependency is the join of the successful items. Crash
  // semantics: never a torn value or an index entry without its chunks, and since the
  // items share one barrier a crash persists none or all of those that reached the index.
  //
  // Two or more items stage inside one extent write batch: their appends share one
  // soft-pointer update per extent and coalesce into multi-page IO units, under
  // batch_mu_ (store.batch.* counts these group commits). A single item has no pointer
  // update to share, so it opens no batch and takes no batch lock: its IO and locks are
  // those of the plain per-page path. The span is "store.put" or "store.delete" for a
  // single item and "store.apply_batch" for a group.
  StoreBatchResult Write(const std::vector<StoreWrite>& writes, const SpanScope& scope = {});

  // One-item writes. Put stores `value` under `id`; Delete writes a tombstone (deleting
  // a missing shard is a no-op whose dependency persists with the next metadata flush).
  Result<Dependency> Put(ShardId id, ByteSpan value, const SpanScope& scope = {});
  Result<Dependency> Delete(ShardId id, const SpanScope& scope = {});

  // Write over owned values.
  StoreBatchResult ApplyBatch(const std::vector<StoreBatchItem>& items,
                              const SpanScope& scope = {});

  // Reads the current value. kNotFound if the shard does not exist.
  Result<Bytes> Get(ShardId id, const SpanScope& scope = {});

  // All live shards in the half-open window [start, end), in key order, each with its
  // assembled value — the LSM merge view (memtable and every level, newest shadows
  // oldest, tombstones suppress). Retries like Get when a concurrent reclamation moves
  // a chunk between the index scan and the value read.
  Result<std::vector<ScanItem>> Scan(ShardId start, ShardId end, const SpanScope& scope = {});

  // Live shard ids.
  Result<std::vector<ShardId>> List();

  // --- Maintenance -----------------------------------------------------------------------
  Status FlushIndex(const SpanScope& scope = {}) { return index_->Flush(scope); }
  Status CompactIndex() { return index_->Compact(); }
  // Partial index merge (background-eligible); see LsmIndex::CompactLevel.
  Status CompactIndexLevel(int level, const SpanScope& scope = {}) {
    return index_->CompactLevel(level, scope);
  }

  // Reclaims one specific extent / the first reclaimable extent (no-op if none). The
  // index is the reclaim client: it knows who references each chunk.
  Status ReclaimExtent(ExtentId extent);
  Status ReclaimAny();

  // Issues up to n pending writebacks.
  size_t PumpIo(size_t n) { return scheduler_->Pump(n); }

  // Clean shutdown: flush the index if needed, then drain all writebacks. After this,
  // every dependency ever returned must report persistent (the paper's forward-progress
  // property). Serialized against group commits: draining mid-batch would find records
  // gated on the batch's still-unresolved soft-pointer promises and misreport a
  // forward-progress violation.
  Status FlushAll(const SpanScope& scope = {});

  // --- Introspection ---------------------------------------------------------------------
  IoScheduler& scheduler() { return *scheduler_; }
  ExtentManager& extents() { return *extents_; }
  ChunkStore& chunks() { return *chunks_; }
  BufferCache& cache() { return *cache_; }
  LsmIndex& index() { return *index_; }
  Disk& disk() { return *disk_; }
  // The store-wide registry: every component of this store (cache, scheduler, extent
  // retry, LSM, chunk store, disk health) registers its metrics here, so one snapshot
  // covers the whole per-disk stack.
  MetricRegistry& metrics() { return *metrics_; }
  const MetricRegistry& metrics() const { return *metrics_; }

 private:
  ShardStore(Disk* disk, ShardStoreOptions options);

  Disk* disk_;
  ShardStoreOptions options_;
  std::unique_ptr<MetricRegistry> metrics_;  // declared before components so they can register
  std::unique_ptr<IoScheduler> scheduler_;
  std::unique_ptr<ExtentManager> extents_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<LsmIndex> index_;
  Counter* puts_;
  Counter* gets_;
  Counter* scans_;
  Counter* deletes_;
  Counter* reclaims_;
  Counter* batch_applies_;
  Counter* batch_items_;
  Counter* batch_flushes_;
  // Held across a multi-item Write (and FlushAll's drain): between BeginWriteBatch and
  // EndWriteBatch the scheduler holds records gated on promises only the batch itself
  // resolves, so a concurrent drain must wait.
  Mutex batch_mu_{MutexAttr{"kv.store.batch", lockrank::kStoreBatch}};
};

}  // namespace ss

#endif  // SS_KV_SHARD_STORE_H_
