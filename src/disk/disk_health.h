// Per-disk health state machine and error-budget tracking.
//
// The paper's failure-injection testing (section 4.4) checks that ShardStore degrades
// gracefully under injected IO faults; a production storage host additionally needs to
// *act* on those faults: classify them (transient vs permanent), spend a bounded error
// budget on retries, and take a disk that keeps misbehaving out of the write path
// before it can hurt new data. This module is the bookkeeping half of that machinery:
//
//   healthy ──(transient budget exhausted)──► degraded ──(budget exhausted again,
//       │                                         │        or any permanent error)
//       └──────────(any permanent error)──────────┴──────► failed
//
// Transitions are *sticky*: successes decay the error window (a disk that recovers
// stops burning budget) but never promote the state back toward healthy — returning a
// disk to service is an operator/control-plane decision (NodeServer::ResetDiskHealth),
// exactly like clearing a SMART trip in a real fleet. The tracker is fed by
// ExtentManager's retry loop and read by NodeServer's routing policy.

#ifndef SS_DISK_DISK_HEALTH_H_
#define SS_DISK_DISK_HEALTH_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/sync/sync.h"

namespace ss {

enum class DiskHealth : uint8_t {
  kHealthy = 0,
  // Read-only: the disk still serves Get (its data is intact) but new writes are
  // refused with kUnavailable so the blast radius stops growing; the control plane is
  // expected to evacuate it.
  kDegraded = 1,
  // No request-plane traffic at all.
  kFailed = 2,
};

// "healthy", "degraded", "failed".
std::string_view DiskHealthName(DiskHealth health);

class DiskHealthTracker {
 public:
  // Lifetime counters land in `metrics` (disk.health.*) when provided; otherwise the
  // tracker owns a private registry so direct construction keeps working.
  explicit DiskHealthTracker(MetricRegistry* metrics = nullptr);

  // Transient errors (after decay) that trip healthy -> degraded.
  static constexpr uint32_t kDegradeAfter = 8;
  // Transient errors (after decay) that trip degraded -> failed.
  static constexpr uint32_t kFailAfter = 24;
  // Consecutive successes that forgive one windowed transient error.
  static constexpr uint32_t kSuccessDecay = 4;

  // A transient IO fault was observed (each failed retry attempt counts: a disk that
  // needs three attempts per read is burning budget three times as fast).
  void RecordTransientError();
  // A permanent fault was observed; the disk fails immediately.
  void RecordPermanentError();
  // An IO completed successfully; decays the error window.
  void RecordSuccess();

  DiskHealth health() const;
  // Windowed (decayed) error count the next transition decision will use.
  uint32_t windowed_errors() const;
  // Transient errors remaining before the next state transition (0 once failed).
  uint32_t budget_remaining() const;
  // Lifetime counters, for diagnostics and benches.
  uint64_t transient_total() const;
  uint64_t permanent_total() const;

  // Operator action: return to healthy with a fresh error budget.
  void Reset();

 private:
  void RecordTransientLocked();

  mutable Mutex mu_{MutexAttr{"disk.health", lockrank::kHealth}};
  DiskHealth health_ = DiskHealth::kHealthy;
  uint32_t windowed_errors_ = 0;
  uint32_t success_streak_ = 0;
  std::unique_ptr<MetricRegistry> owned_metrics_;
  Counter* transient_total_;
  Counter* permanent_total_;
  Gauge* state_;  // DiskHealth as an integer, updated on every transition
};

}  // namespace ss

#endif  // SS_DISK_DISK_HEALTH_H_
