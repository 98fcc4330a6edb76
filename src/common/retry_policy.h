// Shared bounded-retry policy with deterministic virtual-clock backoff.
//
// Two layers retry transient failures: the extent layer (ExtentManager retries
// injected IO faults against one disk) and the cluster tier (ClusterCoordinator
// retries dropped or timed-out quorum RPCs against remote replicas). Both need the
// same semantics — a bounded attempt budget and exponential backoff charged to a
// *virtual* clock instead of a wall-clock sleep — so those semantics are defined once
// here and tested once (tests/cluster_test.cc, RetryPolicy* cases) instead of drifting
// apart per call site.
//
// Determinism contract: everything the policy decides (wait lengths, when to give up)
// is a pure function of RetryOptions and the attempt index. No wall clock,
// no global RNG — harness runs replay exactly from their seeds, and model-checked
// executions see identical retry behaviour on every explored schedule.

#ifndef SS_COMMON_RETRY_POLICY_H_
#define SS_COMMON_RETRY_POLICY_H_

#include <cstdint>
#include <functional>

#include "src/common/status.h"

namespace ss {
namespace common {

struct RetryOptions {
  // Total attempts per operation (1 initial + max_attempts-1 retries). 0 is treated
  // as 1: the policy always runs the operation at least once.
  uint32_t max_attempts = 3;
  // Virtual ticks charged before the first retry; doubles per subsequent retry
  // (1, 2, 4, ... times the base).
  uint64_t backoff_base_ticks = 1;
};

class RetryPolicy {
 public:
  explicit RetryPolicy(RetryOptions options);

  // The effective attempt budget (>= 1 even when options said 0).
  uint32_t max_attempts() const { return options_.max_attempts; }
  const RetryOptions& options() const { return options_; }

  // Backoff charged after `failed_attempts` attempts have failed (1-based: the wait
  // before retry k is BackoffTicks(k)): the exponential schedule, saturating at
  // UINT64_MAX. BackoffTicks(0) is 0.
  uint64_t BackoffTicks(uint32_t failed_attempts) const;

  struct RunResult {
    Status status;               // the final attempt's status (Ok on success)
    uint32_t attempts = 0;       // attempts actually made (>= 1)
    uint64_t backoff_ticks = 0;  // total ticks charged to `charge`
    // True when the attempt budget ran out while the failure was still transient.
    bool exhausted = false;
  };

  // Runs `attempt` (which receives the 0-based attempt index) until it succeeds,
  // fails non-retryably (Status::retryable() is false), or the attempts run out.
  // Between attempts the policy calls `charge(ticks)` so the caller can advance its
  // virtual clock; `charge` may be null when the caller does not track time.
  RunResult Run(const std::function<Status(uint32_t)>& attempt,
                const std::function<void(uint64_t)>& charge = nullptr) const;

 private:
  RetryOptions options_;
};

}  // namespace common
}  // namespace ss

#endif  // SS_COMMON_RETRY_POLICY_H_
