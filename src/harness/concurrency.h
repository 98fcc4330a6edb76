// Concurrency scenario bodies for the stateless model checker (paper section 6).
//
// Each Make*Body() returns a closure suitable for ss::McExplore: it builds fresh state,
// spawns ss::Thread workers exercising the real ShardStore stack, and asserts with
// MC_CHECK. The Figure 4 harness (index read-after-write under concurrent reclamation
// and compaction) is MakeFig4IndexBody.

#ifndef SS_HARNESS_CONCURRENCY_H_
#define SS_HARNESS_CONCURRENCY_H_

#include <functional>

#include "src/mc/mc.h"

namespace ss {

// Figure 4: put/get read-after-write ∥ chunk reclamation ∥ LSM compaction. Catches the
// locator race (#11) and the compaction/reclamation metadata race (#14).
std::function<void()> MakeFig4IndexBody();

// Narrow variant of the Figure 4 scenario focused on the index-flush/reclamation
// window (#14): one thread flushes the memtable into a new run chunk while another
// sweeps reclamation over the data extents. Small enough for exhaustive-ish search.
std::function<void()> MakeFlushReclaimBody();

// Range scan ∥ index flush: a scan races a Put+FlushIndex of a key inside the window.
// Every key persisted before the race must appear in the scan with its exact value;
// the in-flight key may appear or not, but never with a torn value, and a previously
// deleted key must never resurrect mid-scan.
std::function<void()> MakeScanFlushBody();

// Range scan ∥ CompactLevel: compaction rewrites runs (including dropping tombstones
// at the bottom) while a scan merges across the levels. Compaction never changes the
// logical mapping, so the scan must equal the exact expected live set under every
// interleaving. Under seeded bug #18 the compactor drops tombstones above the bottom
// level, resurrecting a deleted key — the checker finds the interleaving.
std::function<void()> MakeScanCompactBody();

// CompactLevel ∥ chunk reclamation: a partial level merge writes new run chunks whose
// extents must stay pinned until the metadata references them, while a reclamation
// sweep relocates/drops chunks underneath it (the #14 window, now on the leveled path).
std::function<void()> MakeCompactLevelReclaimBody();

// Two concurrent appends against a two-permit buffer pool. The correct atomic
// acquisition serializes; the split acquisition of seeded bug #12 deadlocks.
std::function<void()> MakeBufferPoolBody();

// Control-plane listing concurrent with shard removal (#13): shards that exist
// throughout must appear in the listing.
std::function<void()> MakeListRemoveBody();

// Bulk create ∥ bulk remove of the same batch (#16): observers must see the batch
// applied atomically (all-or-nothing).
std::function<void()> MakeBulkAtomicityBody();

// Records a small concurrent history of puts/gets/deletes and checks it is
// linearizable with respect to the sequential KV model.
std::function<void()> MakeLinearizabilityBody();

// Request plane ∥ control plane routing commit: a Put racing a MigrateShard of the
// same shard. The shard must remain reachable afterwards (with either the old or the
// new value). Under seeded bug #19 the node uses the pre-fix unconditional directory
// commit, whose clobber leaves the directory pointing at the tombstoned source copy —
// the model checker finds the resulting kNotFound.
std::function<void()> MakePutMigrateBody();

// Same race through the evacuation path: a Put racing EvacuateDisk of the shard's
// owning disk.
std::function<void()> MakePutEvacuateBody();

// Batched variant of the routing-commit race: a PutBatch covering the migrating shard
// (plus a bystander) racing MigrateShard. Batch routing commits are always per-item
// and conditional (there is no legacy batch path), so every batch item must stay
// reachable afterwards, with a value some write produced.
std::function<void()> MakePutBatchMigrateBody();

}  // namespace ss

#endif  // SS_HARNESS_CONCURRENCY_H_
