// Chunk store: PUT(data) -> locator / GET(locator) -> data over append-only extents,
// plus chunk reclamation (garbage collection) — paper section 2.1.
//
// The store owns a set of kChunkData extents. One is the *active* extent receiving new
// appends; when it fills, the store seals it and opens another (reusing a previously
// reclaimed extent or claiming a free one). Deletion is implicit: a chunk is garbage
// when no index reference to its locator remains, and Reclaim() recovers the space by
// scanning an extent, asking the ReclaimClient about each decoded chunk, evacuating the
// live ones, and resetting the extent — with the reset's dependency ordered after every
// evacuation write and reference update (section 2.2).
//
// Seeded bugs hosted here: #1 (scan advance off-by-one at page-size boundaries),
// #5 (transient read error treated as "unreferenced"), #10 (UUID-collision acceptance
// of a torn frame), #11 (locator computed from a racy write-pointer read), and the
// pinning that bug #14 bypasses.

#ifndef SS_CHUNK_CHUNK_STORE_H_
#define SS_CHUNK_CHUNK_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <map>
#include <set>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/chunk/chunk_format.h"
#include "src/chunk/locator.h"
#include "src/common/rng.h"
#include "src/dep/dependency.h"
#include "src/obs/metrics.h"
#include "src/superblock/extent_manager.h"
#include "src/sync/sync.h"

namespace ss {

struct ChunkPutResult {
  Locator locator;
  Dependency dep;
};

// Who holds the reference to a live chunk, in the reclaim client's own terms. The chunk
// store never looks inside: it hands the value back to UpdateReference.
struct ChunkHolder {
  uint32_t kind = 0;
  uint64_t id = 0;

  friend bool operator==(const ChunkHolder&, const ChunkHolder&) = default;
};

// How the reclaimer learns whether a chunk is live and how to repoint references.
class ReclaimClient {
 public:
  virtual ~ReclaimClient() = default;

  // Who still references `loc`; nullopt when nothing does (the chunk is garbage).
  virtual Result<std::optional<ChunkHolder>> FindHolder(const Locator& loc) = 0;

  // The chunk at `old_loc`, held by `holder` (FindHolder's answer), has been evacuated
  // to `new_loc` (whose write persists once `new_dep` does); update the reference and
  // return a dependency that is persistent once the updated reference — gated on the
  // evacuated data itself — is durable.
  virtual Result<Dependency> UpdateReference(const ChunkHolder& holder,
                                             const Locator& old_loc, const Locator& new_loc,
                                             const Dependency& new_dep) = 0;

  // Dependency that persists once the index state justifying "unreferenced" verdicts is
  // itself durable. Dropping a chunk is only safe after the delete/overwrite/compaction
  // that unreferenced it persists — otherwise a crash could recover an on-disk index
  // that still points into the reset extent. The reclaimer ANDs this into the reset's
  // input when it dropped anything.
  virtual Dependency DropGate() = 0;
};

struct ChunkStoreOptions {
  // Largest accepted payload per chunk; callers split larger values.
  size_t max_payload_bytes = 1024;
};

class ChunkStore {
 public:
  // Metrics land in `metrics` (chunk.*) when provided; otherwise the store owns a
  // private registry so direct construction keeps working in tests.
  ChunkStore(ExtentManager* extents, BufferCache* cache, ChunkStoreOptions options = {},
             MetricRegistry* metrics = nullptr);

  // Stores `data`, framing it and appending to the active extent. The returned
  // dependency covers the frame's pages and soft-pointer updates; it will not be issued
  // before `input` persists.
  //
  // Pinning protocol: Put atomically *pins* the destination extent (a counted pin), and
  // the caller must call Unpin(locator.extent) once the new chunk is referenced by an
  // index structure. Until then the pin keeps concurrent reclamation away from a chunk
  // it would otherwise judge unreferenced and destroy — the race behind the paper's
  // issue #14, whose seeded variant unpins before the metadata update.
  // `scope`, when active, receives a "chunk.write" child span (with extent.append /
  // io.submit descendants). With `batch`, the append joins that open extent write
  // batch (see ExtentManager::WriteBatch).
  Result<ChunkPutResult> Put(ByteSpan data, Dependency input, const SpanScope& scope = {},
                             const ExtentManager::WriteBatch* batch = nullptr);
  void Unpin(ExtentId extent);

  // Reads and validates the chunk at `loc`. `scope`, when active, receives a
  // "chunk.read" child span (with cache.hit / cache.miss descendants).
  Result<Bytes> Get(const Locator& loc, const SpanScope& scope = {});

  // Garbage-collects `extent`: evacuates referenced chunks, drops the rest, resets the
  // extent and drains its cache pages. Fails with kUnavailable if the extent is pinned
  // or already being reclaimed, and aborts with the underlying error on IO failures.
  Status Reclaim(ExtentId extent, ReclaimClient* client);

  // Sealed, unpinned, non-empty extents eligible for reclamation.
  std::vector<ExtentId> ReclaimableExtents() const;

  size_t max_payload_bytes() const { return options_.max_payload_bytes; }
  // The chunk.* counters live in the registry passed at construction (or the private
  // one): read them via MetricRegistry::Snapshot().
  const MetricRegistry& metrics() const;

  // A scanned frame, as Reclaim sees it. Exposed for tests of the scan logic.
  struct ScannedChunk {
    Locator locator;
    Bytes payload;
  };
  // Scans [0, write pointer) of `extent`, returning the decodable frames. Corrupt pages
  // are skipped with single-page resynchronization.
  Result<std::vector<ScannedChunk>> ScanExtent(ExtentId extent);

 private:
  // Picks (and possibly claims) an extent with room for `pages_needed`, updating the
  // active extent. Returns the chosen extent. Never returns `exclude`.
  Result<ExtentId> PickTargetLocked(uint32_t pages_needed, std::optional<ExtentId> exclude);

  Result<ChunkPutResult> PutInternal(ByteSpan data, Dependency input,
                                     std::optional<ExtentId> exclude,
                                     const SpanScope& scope = {},
                                     const ExtentManager::WriteBatch* batch = nullptr);

  ExtentManager* extents_;
  BufferCache* cache_;
  ChunkStoreOptions options_;

  mutable Mutex mu_{MutexAttr{"chunk.store", lockrank::kChunk}};  // allocator + pin-set state
  std::optional<ExtentId> active_;
  std::map<ExtentId, uint32_t> pin_counts_;
  std::set<ExtentId> reclaiming_;  // excluded from allocation while a reclaim runs
  Rng uuid_rng_;
  std::unique_ptr<MetricRegistry> owned_metrics_;
  MetricRegistry* metrics_ = nullptr;  // the registry in use (owned or caller's)
  Counter* puts_;
  Counter* gets_;
  Counter* reclaims_;
  Counter* chunks_evacuated_;
  Counter* chunks_dropped_;
  Counter* corrupt_frames_skipped_;

  Mutex reclaim_mu_{MutexAttr{"chunk.reclaim", lockrank::kChunkReclaim}};  // one reclamation at a time
};

}  // namespace ss

#endif  // SS_CHUNK_CHUNK_STORE_H_
