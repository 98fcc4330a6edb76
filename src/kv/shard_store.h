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

// One mutation of a write batch: a put (value set) or a delete (value empty).
struct StoreBatchItem {
  ShardId id = 0;
  std::optional<Bytes> value;  // nullopt = delete
};

// Per-item outcome of ApplyBatch. `dep` is trivially persistent for failed items.
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
  // Stores `value` under `id`. Returns the operation's dependency: poll IsPersistent()
  // to learn when the put is durable (data chunks + index entry + soft pointers).
  Result<Dependency> Put(ShardId id, ByteSpan value, const SpanScope& scope = {});

  // Reads the current value. kNotFound if the shard does not exist.
  Result<Bytes> Get(ShardId id, const SpanScope& scope = {});

  // Removes the shard (tombstone). Returns the delete's dependency.
  Result<Dependency> Delete(ShardId id, const SpanScope& scope = {});

  // Group commit: stages every item's chunk writes inside one extent write-batch
  // scope (shared soft-pointer update per extent, coalesced data IO), then commits
  // all items under a single LSM batch insert — one durability barrier for the whole
  // batch instead of one per item. Items fail independently (per-item Status); the
  // batch dependency is the join of the successful items. Crash semantics: the batch
  // is atomic per item (never a torn value or an index entry without its chunks), and
  // a crash persists a prefix of the batch — with one shared metadata barrier that
  // prefix is in fact none-or-all of the items that reached the index.
  StoreBatchResult ApplyBatch(const std::vector<StoreBatchItem>& items,
                              const SpanScope& scope = {});

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
  // property). Serialized against ApplyBatch: draining mid-batch would find records
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
  // Held across ApplyBatch's staging window (and FlushAll's drain): between
  // BeginWriteBatch and EndWriteBatch the scheduler holds records gated on promises
  // only the batch itself resolves, so a concurrent drain must wait.
  Mutex batch_mu_{MutexAttr{"kv.store.batch", lockrank::kStoreBatch}};
};

}  // namespace ss

#endif  // SS_KV_SHARD_STORE_H_
