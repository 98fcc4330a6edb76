// IO scheduler: orders writebacks to the disk according to the dependency graph.
//
// All persistence flows through here. Layers above enqueue writeback records; the
// scheduler issues a record to the Disk backend only when
//   (a) every input dependency of the record is already persistent, and
//   (b) all earlier records in the record's *sequence domain* have been issued.
// Sequence domains capture orderings the medium itself enforces: appends within one
// extent are sequential, and superblock updates for one extent apply in submission
// order (so soft write pointers move monotonically between resets).
//
// Crash simulation (paper section 5): Crash() applies a random dependency-closed,
// domain-FIFO-closed subset of the pending records to the disk and discards the rest —
// exactly the set of block-level crash states the dependency contract allows. Records
// dropped by a crash leave their dependency leaves unpersisted forever, which is what
// the persistence checker polls after recovery.

#ifndef SS_DEP_IO_SCHEDULER_H_
#define SS_DEP_IO_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dep/dep_lint.h"
#include "src/dep/dependency.h"
#include "src/disk/disk.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sync/sync.h"

namespace ss {

class IoScheduler {
 public:
  // Metrics land in `metrics` when provided; otherwise the scheduler owns a private
  // registry so direct construction keeps working in tests.
  explicit IoScheduler(Disk* disk, MetricRegistry* metrics = nullptr);

  // --- Enqueue (called by ExtentManager) ----------------------------------------------
  // Each call returns the leaf dependency of the new record. `scope`, when active,
  // receives an "io.submit" child span per new record ("io.coalesce" when the page
  // merged into an existing record instead).
  Dependency EnqueueDataPage(ExtentId extent, uint32_t page, Bytes data,
                             std::vector<Dependency> inputs, const SpanScope& scope = {});
  Dependency EnqueueSoftWp(ExtentId extent, uint32_t wp_pages, std::vector<Dependency> inputs,
                           const SpanScope& scope = {});
  Dependency EnqueueOwnership(ExtentId extent, ExtentOwner owner,
                              std::vector<Dependency> inputs);
  // A reset marker ordered within the extent's data domain. Issuing it has no direct
  // disk effect (the paired EnqueueSoftWp(extent, 0, ...) makes old data unreachable),
  // but FIFO ordering guarantees no post-reset append is issued before it.
  Dependency EnqueueReset(ExtentId extent, std::vector<Dependency> inputs);

  // --- Coalescing window (group commit) ------------------------------------------------
  // While at least one window is open, EnqueueDataPage merges a page into the newest
  // pending data record of the same extent when the pages are contiguous and the new
  // page's input is already persistent — adjacent appends from one batch become a
  // single multi-page IO unit (issued, or dropped by a crash, atomically). Merging is
  // restricted to persistent-input pages so the shared record never gains an input
  // that could cycle back through its own done leaf. Windows nest; ShardStore's
  // ApplyBatch brackets its staging phase with one.
  void BeginCoalescing();
  void EndCoalescing();

  // --- Issue ---------------------------------------------------------------------------
  // Issues up to `max_records` ready records in FIFO-scan order; returns how many were
  // issued. Records whose disk write fails are marked failed and dropped.
  size_t Pump(size_t max_records);

  // Pump until the queue drains. Fails with kInternal if no progress is possible while
  // records remain (an unresolved promise or dependency cycle — a forward-progress
  // violation), or with kIoError if a record failed. `scope`, when active, receives one
  // "io.barrier" child span covering the drain. When the dependency linter is enabled
  // (see dep_lint.h) the pending graph is linted first; a violation fails the flush
  // with kInternal after fanning the report out to the registered lint handlers and
  // bumping io.deplint.violations.
  Status FlushAll(const SpanScope& scope = {});

  // Soft-updates dependency lint over the pending queue (see dep_lint.h for the three
  // invariants). Read-only; callable at any point, not just barriers.
  DepLintReport Lint() const;

  // --- Crash ---------------------------------------------------------------------------
  // Simulates a fail-stop crash: persists a random allowed subset of pending records
  // (each candidate record survives with probability `persist_bias`), drops the rest,
  // and empties the queue. Deterministic given `rng` state.
  void Crash(Rng& rng, double persist_bias);

  // Convenience for tests: crash persisting nothing / everything eligible.
  void CrashDropAll();

  // Deterministic crash driven by a decision script instead of coin flips: decision i
  // persists (true) or cuts the domain of (false) the i-th candidate record, in the
  // same candidate order Crash() uses; an exhausted script drops everything remaining.
  // `decisions_used` (optional) reports how many decisions the crash consumed — the
  // branching factor an exhaustive enumerator needs (paper section 5's block-level
  // crash-state enumeration, in the style of BOB / CrashMonkey).
  void CrashScripted(const std::vector<bool>& plan, size_t* decisions_used = nullptr);

  size_t PendingCount() const;

  // Description of why the queue is stuck (for forward-progress diagnostics).
  std::string DescribeStuck() const;

  // Graphviz digraph of the pending queue's dependency structure: one labelled box per
  // unissued record pointing at the input dependency it is waiting on. `name_prefix`
  // (e.g. "disk0 ") distinguishes schedulers when several graphs are merged into one
  // flight-recorder artifact.
  std::string PendingDot(std::string_view name_prefix = "") const;

  // The io.* counters live in the registry passed at construction (or the private
  // one): read them via MetricRegistry::Snapshot().
  const MetricRegistry& metrics() const { return *metrics_; }

 private:
  enum class Kind : uint8_t { kDataPage, kSoftWp, kOwnership, kReset };

  struct Record {
    Kind kind;
    ExtentId extent;
    uint32_t page = 0;          // kDataPage: first page of the IO unit
    std::vector<Bytes> pages;   // kDataPage: one entry per page (coalescing grows this)
    uint32_t soft_wp = 0;   // kSoftWp
    ExtentOwner owner = ExtentOwner::kFree;  // kOwnership
    Dependency input;       // conjunction of the caller's input dependencies
    Dependency done;        // leaf marked persistent on issue
    uint64_t domain = 0;    // sequence domain key
    uint64_t seq = 0;       // global enqueue order (FIFO position within domain)
  };

  uint64_t DomainKey(Kind kind, ExtentId extent) const;
  // Human-readable record label shared by PendingDot and the lint messages.
  std::string LabelLocked(const Record& record) const;
  std::string PendingDotLocked(std::string_view name_prefix) const;
  Dependency EnqueueLocked(Record record);
  // True if `record` may be issued now: inputs persistent and it is the oldest
  // unissued record of its domain.
  bool ReadyLocked(const Record& record) const;
  // Removes an issued (hence domain-oldest) record from the queue.
  void EraseLocked(std::deque<Record>::iterator it);
  // The crash walk behind Crash and CrashScripted: repeatedly takes the first record in
  // queue order that could legally be the next to reach the disk and asks `persist`
  // whether it did (true) or whether the crash cut its domain first (false). Drops
  // everything left. Returns how many decisions the walk took.
  size_t CrashWalk(const std::function<bool()>& persist);
  // Applies the record's effect to the disk. Returns the disk status.
  Status IssueLocked(Record& record);

  mutable Mutex mu_{MutexAttr{"io.scheduler", lockrank::kIo}};
  Disk* disk_;
  std::deque<Record> queue_;
  // Pending seqs per domain, oldest first. Records leave a domain only once issued,
  // which requires being its oldest, so they always leave from the front.
  std::unordered_map<uint64_t, std::deque<uint64_t>> domain_seqs_;
  uint64_t next_seq_ = 0;
  uint32_t coalesce_depth_ = 0;
  std::unique_ptr<MetricRegistry> owned_metrics_;
  MetricRegistry* metrics_ = nullptr;  // the registry in use (owned or caller's)
  Counter* enqueued_;
  Counter* issued_;
  Counter* dropped_by_crash_;
  Counter* failed_io_;
  Counter* crashes_;
  Counter* coalesced_pages_;
  Counter* deplint_violations_;
};

}  // namespace ss

#endif  // SS_DEP_IO_SCHEDULER_H_
