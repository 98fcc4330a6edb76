// ExtentManager: append-only extent IO with soft write pointers (paper sections 2.1-2.2).
//
// This is the only layer that writes to the IoScheduler. It implements the paper's
// extent contract:
//   * writes within an extent are sequential at the write pointer; an extent must be
//     reset before its space is reused,
//   * reads beyond the (volatile) write pointer are forbidden,
//   * every append also updates the extent's *soft write pointer* in the superblock,
//     and the append's returned Dependency covers both the data pages and the soft
//     pointer update (Figure 2) — recovery only trusts data below the persisted soft
//     pointer, so an append may not report persistent before the pointer covering it is,
//   * resetting an extent persists a zero soft pointer, ordered after the caller's
//     input dependency (evacuations, index updates).
//
// The manager keeps a volatile image of all extents: reads during normal operation are
// served from it (the disk's persistent image only matters across a crash). A new
// ExtentManager constructed over a recovered disk rebuilds its image and write pointers
// from the superblock, which is exactly ShardStore recovery at this layer.
//
// Seeded bugs hosted here: #6 (ownership dependency omitted), #7 (soft-pointer tracking
// not reset), #8 (append dependency missing the soft-pointer update), #12 (split buffer
// pool acquisition that can deadlock).

#ifndef SS_SUPERBLOCK_EXTENT_MANAGER_H_
#define SS_SUPERBLOCK_EXTENT_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/retry_policy.h"
#include "src/common/status.h"
#include "src/dep/dependency.h"
#include "src/dep/io_scheduler.h"
#include "src/disk/disk.h"
#include "src/disk/disk_health.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sync/sync.h"

namespace ss {

struct AppendResult {
  uint32_t first_page = 0;
  uint32_t page_count = 0;
  // Persistent once the data pages and the covering soft-write-pointer update are
  // durable (and, for a freshly claimed extent, its ownership record).
  Dependency dep;
};

// The manager is the write path's TickSource: span latency is measured on its
// virtual retry-backoff clock (see SpanTicksNow below).
class ExtentManager : public TickSource {
 public:
  // Buffer-pool permits available for in-flight superblock/data staging. Two permits are
  // needed per append; the default leaves headroom, while concurrency tests shrink it to
  // surface bug #12.
  static constexpr uint32_t kDefaultBufferPermits = 64;

  // Builds the manager over (possibly freshly recovered) disk state: write pointers come
  // from the persisted superblock soft pointers, extent images from the disk pages.
  // Retry/health metrics land in `metrics` (extent.retry.*, disk.health.*) when
  // provided; otherwise the manager owns a private registry so direct construction
  // keeps working in tests.
  ExtentManager(Disk* disk, IoScheduler* scheduler,
                uint32_t buffer_permits = kDefaultBufferPermits, common::RetryOptions retry = {},
                MetricRegistry* metrics = nullptr);

  // --- Write batch (group commit) -----------------------------------------------------
  // Proof of an open write batch: only BeginWriteBatch makes one. Appends made through
  // it (Append's `batch` argument) defer their extent's soft-write-pointer update:
  // instead of one superblock update per page, the batch's appends to an extent share a
  // single update, enqueued at EndWriteBatch and gated on all the data pages it covers.
  // Each such append's result carries a promise for the shared update, resolved at End,
  // so no batch append can report persistent before its covering pointer does, exactly
  // as in the per-page path. The batch also opens the IoScheduler's coalescing window.
  //
  // Every append not made through the batch takes the per-page path, even while a batch
  // is open: a concurrent compaction run or reclaim evacuation that joined the shared
  // update could gate it behind its own later writes (DESIGN.md, Batched writes). The
  // two paths may touch the same extent: their updates share the extent's soft-wp FIFO
  // domain, and an update covering a batch page is gated on that page, so resolving the
  // shared promise to an already-enqueued covering update keeps the ordering. Batches
  // do not nest; the caller serializes them (ShardStore holds its batch mutex).
  class WriteBatch {
   private:
    friend class ExtentManager;
    WriteBatch() = default;
  };
  WriteBatch BeginWriteBatch();
  void EndWriteBatch(WriteBatch& batch);

  // --- Data path ----------------------------------------------------------------------
  // Appends `data` (1..extent-size bytes) at the write pointer. The write is staged
  // immediately (readable through Read) and scheduled for writeback; it will not be
  // issued to disk before `input` persists. `scope`, when active, receives an
  // "extent.append" child span (plus "extent.retry" / "io.submit" grandchildren). With
  // `batch`, the soft-pointer update is deferred to the batch's End (see WriteBatch).
  Result<AppendResult> Append(ExtentId extent, ByteSpan data, Dependency input,
                              const SpanScope& scope = {}, const WriteBatch* batch = nullptr);

  // Reads `page_count` pages starting at `first_page`. Fails with kInvalidArgument if
  // the range extends past the write pointer, kIoError under fault injection.
  Result<Bytes> Read(ExtentId extent, uint32_t first_page, uint32_t page_count,
                     const SpanScope& scope = {}) const;

  // Returns the write pointer (pages) to the start of the extent, making existing data
  // unreachable. The reset (and its zero soft pointer) is issued only after `input`
  // persists. Returns the reset's dependency.
  Dependency Reset(ExtentId extent, Dependency input);

  // --- Ownership ----------------------------------------------------------------------
  // Claims a free extent for `owner`, persisting the ownership record in the superblock.
  // Data appended to the extent will not persist before the ownership record does.
  Result<ExtentId> ClaimExtent(ExtentOwner owner);

  // True once the extent's most recent reset (if any) has reached the disk. Space freed
  // by a reset may only be reused for new allocations after this point: otherwise a
  // write on the reused extent is queued behind a reset whose input dependency can
  // reach *forward* to that very write's flush (a scheduling cycle, i.e. a
  // forward-progress violation).
  bool ResetSettled(ExtentId extent) const;

  // --- Introspection ------------------------------------------------------------------
  uint32_t WritePointer(ExtentId extent) const;
  ExtentOwner Owner(ExtentId extent) const;
  uint32_t PagesFree(ExtentId extent) const;
  std::vector<ExtentId> ExtentsOwnedBy(ExtentOwner owner) const;
  const DiskGeometry& geometry() const { return disk_->geometry(); }
  uint32_t PagesNeeded(size_t bytes) const;

  IoScheduler& scheduler() { return *scheduler_; }
  Disk& disk() { return *disk_; }

  // --- Failure domain -----------------------------------------------------------------
  // Error-budget tracker fed by the retry loop; NodeServer's routing policy reads it.
  DiskHealthTracker& health() { return health_; }
  const DiskHealthTracker& health() const { return health_; }
  // Current virtual time (ticks charged by retry backoff so far).
  uint64_t VirtualNow() const;

  // TickSource: lock-free mirror of the virtual clock. A relaxed atomic load, so span
  // timestamping deep in the write path never takes the ss::sync retry mutex — reading
  // the clock is invisible to the model checker and adds no scheduling points.
  uint64_t SpanTicksNow() const override {
    return clock_ticks_.load(std::memory_order_relaxed);
  }

  // The extent.* / disk.health.* counters live in the registry passed at construction
  // (or the private one): read them via MetricRegistry::Snapshot().
  const MetricRegistry& metrics() const { return *metrics_; }

 private:
  struct ExtentState {
    uint32_t wp = 0;                 // volatile write pointer (pages)
    uint32_t enqueued_soft_wp = 0;   // highest soft-wp value already enqueued
    ExtentOwner owner = ExtentOwner::kFree;
    Dependency ownership_dep;        // trivially persistent unless freshly claimed
    Dependency last_reset_dep;       // trivially persistent unless a reset is in flight
    Dependency last_soft_wp_dep;     // dependency of the newest enqueued soft-wp update
    std::vector<Bytes> image;        // volatile page contents
  };

  // A deferred (batched) soft-wp update for one extent: the highest page it must
  // cover, the data pages gating it, and the promise appends handed out for it.
  struct PendingSoftWp {
    uint32_t covered = 0;
    std::vector<Dependency> data_deps;
    Dependency promise;
  };

  Status CheckExtent(ExtentId extent) const;
  Dependency ResetLocked(ExtentId extent, Dependency input);
  // Enqueues (or skips) the deferred update for `extent` and resolves its promise.
  // Caller holds mu_.
  void SettlePendingSoftWpLocked(ExtentId extent);
  // Consults the fault injector for one logical IO on `extent`, retrying transient
  // faults up to the attempt budget with exponential virtual-clock backoff. Returns
  // Ok, kDiskFailed (permanent, no retries), or kIoError (budget exhausted). When
  // retries occurred and `scope` is active, records an "extent.retry" child span whose
  // duration is the backoff ticks the IO consumed.
  Status CheckIo(ExtentId extent, bool is_write, const SpanScope& scope = {}) const;

  Disk* disk_;
  IoScheduler* scheduler_;
  // Bounded retry of transient IO faults. Backoff is charged to a *virtual* clock
  // (a tick counter advanced by the backoff amount instead of sleeping), so harness
  // runs stay deterministic and instantaneous while tests can still assert that
  // escalation paid the full exponential schedule.
  const common::RetryPolicy retry_;
  mutable Mutex mu_{MutexAttr{"extent.manager", lockrank::kExtent}};
  std::vector<ExtentState> extents_;
  std::map<ExtentId, PendingSoftWp> pending_soft_wp_;  // guarded by mu_
  Semaphore buffer_pool_;
  std::unique_ptr<MetricRegistry> owned_metrics_;
  MetricRegistry* metrics_ = nullptr;  // the registry in use (owned or caller's)
  mutable DiskHealthTracker health_;
  Counter* batch_soft_wp_updates_;
  Counter* retry_attempts_;
  Counter* retry_transient_;
  Counter* retry_absorbed_;
  Counter* retry_exhausted_;
  Counter* retry_permanent_;
  // Ticks a single IO spent in backoff before resolving; recorded only for IOs that
  // actually retried, so clean traffic doesn't flood the zero bucket.
  Histogram* retry_backoff_ticks_;
  mutable Mutex retry_mu_{MutexAttr{"extent.clock", lockrank::kClock}};  // guards the virtual clock
  mutable uint64_t virtual_clock_ = 0;
  // Mirror of virtual_clock_, updated wherever the clock advances (still under
  // retry_mu_); SpanTicksNow reads it without locking.
  mutable std::atomic<uint64_t> clock_ticks_{0};
};

}  // namespace ss

#endif  // SS_SUPERBLOCK_EXTENT_MANAGER_H_
