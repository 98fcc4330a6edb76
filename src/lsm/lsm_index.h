// Persistent LSM-tree index (paper section 2.1).
//
// Maps shard identifiers to shard records (the list of chunk locators holding the
// shard's data, WiscKey-style). Structure:
//   * a sorted in-memory memtable of recent mutations (values and tombstones),
//   * immutable sorted runs organized into levels (level 0 = freshest flushes, higher
//     levels = older, more-merged data), each run serialized into a single chunk written
//     through the chunk store (so the index's own storage is subject to reclamation),
//   * a metadata record — the run list with per-run levels + version — framed and
//     appended to one of two reserved metadata extents (ping-pong: when one fills, the
//     record moves to the other and the full one is reset once the move is durable).
//
// Every run chunk carries a header with the run's key range and a bloom filter, rebuilt
// into memory on recovery, so negative lookups and out-of-range scans skip the chunk
// read entirely.
//
// Tombstone lifetime rule: a partial merge (CompactLevel) may drop a tombstone ONLY
// when its output lands at the bottom level — otherwise an older version of the key in
// a deeper run would resurrect. Full merges see every run, so their output is by
// definition the bottom. See DESIGN.md "LSM read path".
//
// Dependency protocol (Figure 2): Put returns a *promise* dependency that resolves when
// a metadata record covering the entry persists. The run chunk's write is gated on the
// entries' data dependencies and the metadata record on the run write, so an index
// entry is never durable before the data it points to — which makes "visible after
// recovery" equivalent to "dependency reports persistent", the property the crash
// checker enforces.
//
// The index is the chunk store's one ReclaimClient: reclamation asks it who holds each
// chunk (the run list, or the shard whose live record lists it) and hands that answer
// back when the chunk moves.
//
// Seeded bugs hosted here: #3 (shutdown skips the flush when only internal mutations —
// e.g. reclamation relocations — are pending), #14 (flush/compaction write their run
// chunk without pinning its extent) and #18 (partial merges drop tombstones above the
// bottom level, resurrecting deleted shards).

#ifndef SS_LSM_LSM_INDEX_H_
#define SS_LSM_LSM_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/chunk/chunk_store.h"
#include "src/obs/metrics.h"
#include "src/chunk/locator.h"
#include "src/common/rng.h"
#include "src/dep/dependency.h"
#include "src/lsm/bloom.h"
#include "src/superblock/extent_manager.h"
#include "src/sync/sync.h"

namespace ss {

using ShardId = uint64_t;

// The index's value type: where a shard's data lives.
struct ShardRecord {
  uint64_t total_bytes = 0;
  std::vector<Locator> chunks;

  friend bool operator==(const ShardRecord& a, const ShardRecord& b) {
    return a.total_bytes == b.total_bytes && a.chunks == b.chunks;
  }
};

void SerializeShardRecord(const ShardRecord& record, Writer& w);
Result<ShardRecord> DeserializeShardRecord(Reader& r);

struct LsmOptions {
  // Flush automatically once the memtable holds this many entries (SIZE_MAX = manual
  // flushing only, which the deterministic test harnesses use).
  size_t memtable_flush_entries = SIZE_MAX;
  // Leveled compaction trigger: when > 0, a successful flush that leaves at least this
  // many level-0 runs kicks off CompactLevel(0) inline (still under flush_mu_),
  // cascading downward while any deeper level holds more than `level_fanout` runs.
  // 0 = manual compaction only, which keeps the deterministic harnesses in charge.
  size_t level0_compaction_trigger = 0;
  size_t level_fanout = 4;
};

// One mutation of an index insert (see LsmIndex::Insert).
struct LsmBatchItem {
  ShardId id = 0;
  std::optional<ShardRecord> record;  // nullopt = tombstone
  Dependency data_dep;                // trivially persistent for tombstones
};

struct LsmInsertResult {
  std::vector<Dependency> deps;  // per item, input order
  bool flushed = false;          // the insert filled the memtable and flushed it
};

// A run's read-path pruning metadata: key range + bloom filter, decoded from the run
// chunk's header (or rebuilt from it on recovery). Shared so snapshots are cheap.
struct RunFilter {
  ShardId min_key = 0;
  ShardId max_key = 0;
  BloomFilter bloom;

  bool MayContainKey(ShardId id) const {
    return id >= min_key && id <= max_key && bloom.MayContain(id);
  }
  // Whether the run's key range intersects the inclusive window [first, last].
  bool OverlapsRange(ShardId first, ShardId last) const {
    return min_key <= last && max_key >= first;
  }
};

// One live entry of a range scan, in key order.
struct LsmScanItem {
  ShardId id = 0;
  ShardRecord record;
};

class LsmIndex : public ReclaimClient {
 public:
  // Opens over existing on-disk state (recovering the metadata record with the highest
  // version from the reserved metadata extents, then rebuilding each run's bloom
  // filter from its chunk header) or formats a fresh index: claims two metadata
  // extents and starts empty.
  // Metrics land in `metrics` (lsm.*) when provided; otherwise the index owns a
  // private registry so direct construction keeps working in tests.
  static Result<std::unique_ptr<LsmIndex>> Open(ExtentManager* extents, ChunkStore* chunks,
                                                LsmOptions options = {},
                                                MetricRegistry* metrics = nullptr);

  // --- API ------------------------------------------------------------------------------
  // The one write routine: inserts every item (record or tombstone) under one mu_ hold
  // with consecutive sequence numbers and ONE promise registered at the highest of them,
  // so the whole group rides a single durability barrier (the next covering metadata
  // flush). A record's entry will not reach durable index storage before its `data_dep`
  // does. Returns each item's dependency (the shared promise ∧ its data_dep). When the
  // insert fills the memtable to LsmOptions::memtable_flush_entries, it flushes before
  // returning (best effort: errors surface on the next explicit flush). `scope`, when
  // active, receives an "lsm.insert" child span.
  LsmInsertResult Insert(std::vector<LsmBatchItem> items, const SpanScope& scope = {});

  // One-item inserts.
  Dependency Put(ShardId id, ShardRecord record, Dependency data_dep,
                 const SpanScope& scope = {}) {
    return Insert({LsmBatchItem{id, std::move(record), std::move(data_dep)}}, scope).deps[0];
  }
  Dependency Delete(ShardId id, const SpanScope& scope = {}) {
    return Insert({LsmBatchItem{id, std::nullopt, Dependency()}}, scope).deps[0];
  }

  // nullopt: no live mapping (never written, deleted, or tombstoned). `scope`, when
  // active, receives an "lsm.lookup" child span (with chunk.read descendants for runs
  // the bloom filters could not rule out).
  Result<std::optional<ShardRecord>> Get(ShardId id, const SpanScope& scope = {});

  // All live entries in the half-open key window [start, end), in key order: a merge
  // across the memtable and every level, newest shadows oldest, tombstones suppress.
  // Runs whose key range misses the window are skipped without a chunk read. An empty
  // window (start >= end) returns an empty result. `scope`, when active, receives an
  // "lsm.scan" child span.
  Result<std::vector<LsmScanItem>> Scan(ShardId start, ShardId end,
                                        const SpanScope& scope = {});

  // All live shard ids in key order: the live view over the whole key space,
  // UINT64_MAX included. Does not count as a scan in the lsm.scan* metrics.
  Result<std::vector<ShardId>> Keys();

  // --- Maintenance ------------------------------------------------------------------------
  // Writes the memtable as a new level-0 run + metadata record. No-op when clean.
  // `scope`, when active, receives an "lsm.flush" child span covering the run and
  // metadata writes. When LsmOptions::level0_compaction_trigger is set, a successful
  // flush may cascade into level compactions before returning.
  Status Flush(const SpanScope& scope = {});

  // Merges all runs into one bottom-level run, dropping tombstones and superseded
  // versions (a full merge sees every run, so dropping is safe).
  Status Compact();

  // Partial merge: folds every run at `level` and `level + 1` into new runs at
  // `level + 1`. Background-eligible: serialized under flush_mu_ like Flush/Compact,
  // safe to call concurrently with reads and writes. Tombstones are dropped only when
  // the output is the bottom level (no deeper runs remain) — the tombstone lifetime
  // rule. No-op when `level` holds no runs.
  Status CompactLevel(int level, const SpanScope& scope = {});

  // True when a shutdown must still flush (bug #3 consults the wrong flag here).
  bool NeedsShutdownFlush() const;

  // --- Reclamation (ReclaimClient) -------------------------------------------------------
  // A chunk's holder is the run list (kRunListHolder: the chunk is a run segment) or the
  // shard whose live record lists it (kShardHolder, id = the shard). Finding a shard
  // holder walks the live view, newest entries first; reclamation is a background task
  // and the paper's reverse lookup is also index-wide.
  static constexpr uint32_t kRunListHolder = 0;
  static constexpr uint32_t kShardHolder = 1;
  Result<std::optional<ChunkHolder>> FindHolder(const Locator& loc) override;

  // RelocateRunChunk for the run list, RelocateShardChunk for a shard.
  Result<Dependency> UpdateReference(const ChunkHolder& holder, const Locator& old_loc,
                                     const Locator& new_loc,
                                     const Dependency& new_dep) override;

  // Persists once the current in-memory index state (memtable included) is durable.
  Dependency DropGate() override;

  // Rewrites `owner`'s record to point at `new_loc` instead of `old_loc`: one point Get
  // and a locator compare. No-op with a trivially-persistent result if the record no
  // longer lists `old_loc` (a concurrent overwrite or delete). The entry is gated on
  // `new_dep`, the evacuated data's dependency.
  Result<Dependency> RelocateShardChunk(ShardId owner, const Locator& old_loc,
                                        const Locator& new_loc, const Dependency& new_dep);

  // Replaces run chunk `old_loc` with `new_loc` in the run list (level and filter are
  // preserved — the evacuated copy has identical content) and persists a new metadata
  // record gated on `new_dep`. Returns that record's dependency.
  Result<Dependency> RelocateRunChunk(const Locator& old_loc, const Locator& new_loc,
                                      const Dependency& new_dep);

  // --- Introspection -----------------------------------------------------------------------
  size_t MemtableEntries() const;
  size_t RunCount() const;
  size_t RunCountAtLevel(int level) const;
  // Per-run levels, oldest run first (levels are non-increasing along the list).
  std::vector<int> RunLevels() const;
  uint64_t MetadataVersion() const;
  std::vector<Locator> RunLocators() const;
  // The lsm.* counters live in the registry passed at Open (or the private one): read
  // them via MetricRegistry::Snapshot().
  const MetricRegistry& metrics() const { return *metrics_; }

 private:
  struct Entry {
    std::optional<ShardRecord> value;  // nullopt = tombstone
    Dependency data_dep;
    uint64_t seq = 0;
  };
  // A run's decoded content.
  using RunMap = std::map<ShardId, std::optional<ShardRecord>>;
  // A run's serialized form plus the pruning header it embeds.
  struct BuiltRun {
    Bytes payload;
    std::shared_ptr<const RunFilter> filter;
  };
  // A run decoded from its chunk: entries + the header's pruning metadata.
  struct LoadedRun {
    RunMap entries;
    std::shared_ptr<const RunFilter> filter;
  };
  // A live run: its chunk locator, the dependency under which that chunk (or its most
  // recent evacuated copy) becomes durable, its level, and the pruning filter decoded
  // from its header (null = filter unavailable, read the chunk). Metadata records are
  // gated on the conjunction of the deps, so a persisted metadata record never
  // references a run chunk that is not itself durable.
  struct RunRef {
    Locator loc;
    Dependency dep;
    int level = 0;
    std::shared_ptr<const RunFilter> filter;
  };
  // Installs freshly written runs and persists the metadata record. Called under mu_
  // with the new runs and the conjunction of their write dependencies.
  using RunCommit =
      std::function<Status(std::vector<RunRef> fresh, const Dependency& runs_dep)>;

  LsmIndex(ExtentManager* extents, ChunkStore* chunks, LsmOptions options,
           MetricRegistry* metrics);

  static BuiltRun BuildRun(const RunMap& entries);
  static Result<LoadedRun> DeserializeRun(ByteSpan payload);
  // Splits a run into segments that each fit one chunk (header included).
  static std::vector<RunMap> PartitionRun(const RunMap& entries, size_t max_payload);
  Result<LoadedRun> LoadRun(const Locator& loc, const SpanScope& scope = {});

  // The live view of the inclusive key window [first, last], in key order: each key's
  // newest entry across the memtable and every run, tombstones suppressed. The memtable
  // and the run list are snapshotted under one mu_ hold, so a racing flush (which moves
  // entries run-ward) cannot hide an entry from both copies. The walk goes newest
  // source first and reads a run only when it gets there; runs whose key range misses
  // the window are skipped without a chunk read. A run that fails to load (a
  // concurrent compaction or reclamation invalidated the snapshot) triggers a fresh
  // snapshot, up to four attempts. `stop`, when set, sees each live entry as the walk
  // decides it and ends the walk by returning true; the view returned is then partial.
  // A walk that ends this way never restarts, so `stop` may record its answer.
  using LiveStop = std::function<bool(ShardId, const ShardRecord&)>;
  Result<std::vector<LsmScanItem>> LiveView(ShardId first, ShardId last,
                                            const SpanScope& scope,
                                            const LiveStop& stop = nullptr);

  // The one run writer behind flush and compaction: partitions `entries` into
  // segments, writes each as a chunk gated on `input`, then runs `commit` under mu_
  // with the new runs at `level`. Each chunk's extent stays pinned until the commit
  // returns (seeded bug #14 unpins right after the write). Caller holds flush_mu_.
  Status WriteRun(const RunMap& entries, const Dependency& input, int level,
                  const SpanScope& scope, const RunCommit& commit);

  // Serializes and appends the metadata record (runs + counters). Caller holds mu_.
  // The record's write is gated on `input`.
  Result<Dependency> WriteMetadataLocked(Dependency input, const SpanScope& scope = {});

  // Resolves pending promises covered by `meta_dep` up to `max_seq`.
  void ResolvePromisesLocked(uint64_t max_seq, const Dependency& meta_dep);

  Status FlushLocked(const SpanScope& scope = {});  // caller holds flush_mu_ (not mu_)

  // The shared merge engine behind Compact and CompactLevel. Caller holds flush_mu_.
  // `level == nullopt` merges everything (full compaction); otherwise merges levels
  // {level, level+1} into level+1. Tombstones are dropped only when the output is the
  // bottom level (or unconditionally under the seeded bug).
  Status CompactInternal(std::optional<int> level, const SpanScope& scope);

  // Runs the level0_compaction_trigger / level_fanout cascade. Caller holds flush_mu_.
  void MaybeCompactLevelsLocked(const SpanScope& scope);

  ExtentManager* extents_;
  ChunkStore* chunks_;
  LsmOptions options_;
  Rng meta_rng_;

  mutable Mutex mu_{MutexAttr{"lsm.index", lockrank::kLsm}};      // memtable, runs, metadata state
  Mutex flush_mu_{MutexAttr{"lsm.flush", lockrank::kLsmFlush}};  // serializes Flush/Compact
  std::map<ShardId, Entry> memtable_;
  std::vector<RunRef> runs_;  // oldest first; levels non-increasing along the vector
  uint64_t version_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<std::pair<uint64_t, Dependency>> pending_promises_;
  Dependency last_meta_dep_;
  ExtentId meta_extents_[2] = {0, 0};
  int active_meta_ = 0;
  bool api_dirty_ = false;       // set by Insert only (the flag bug #3 trusts)
  bool internal_dirty_ = false;  // set by relocations and other internal mutations
  std::unique_ptr<MetricRegistry> owned_metrics_;
  MetricRegistry* metrics_ = nullptr;  // the registry in use (owned or caller's)
  Counter* puts_;
  Counter* deletes_;
  Counter* gets_;
  Counter* scans_;
  Counter* scan_items_;
  Counter* flushes_;
  Counter* compactions_;
  Counter* level_compactions_;
  Counter* tombstones_dropped_;
  Counter* metadata_writes_;
  Counter* batch_applies_;
  Counter* batch_items_;
  Counter* bloom_hits_;
  Counter* bloom_misses_;
  Counter* bloom_false_positives_;
};

}  // namespace ss

#endif  // SS_LSM_LSM_INDEX_H_
