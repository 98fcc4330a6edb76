#include "src/common/retry_policy.h"

namespace ss {
namespace common {

RetryPolicy::RetryPolicy(RetryOptions options) : options_(options) {
  if (options_.max_attempts == 0) {
    options_.max_attempts = 1;
  }
}

uint64_t RetryPolicy::BackoffTicks(uint32_t failed_attempts) const {
  if (failed_attempts == 0 || options_.backoff_base_ticks == 0) {
    return 0;
  }
  // Exponential schedule: base << (failed_attempts - 1), saturating instead of
  // shifting past 63 bits.
  const uint32_t shift = failed_attempts - 1;
  uint64_t ticks = shift >= 63 ? UINT64_MAX : options_.backoff_base_ticks << shift;
  if (shift < 63 && (ticks >> shift) != options_.backoff_base_ticks) {
    ticks = UINT64_MAX;  // the shift overflowed
  }
  return ticks;
}

RetryPolicy::RunResult RetryPolicy::Run(const std::function<Status(uint32_t)>& attempt,
                                        const std::function<void(uint64_t)>& charge) const {
  RunResult result;
  for (uint32_t i = 0; i < options_.max_attempts; ++i) {
    result.status = attempt(i);
    ++result.attempts;
    if (result.status.ok() || !result.status.retryable()) {
      return result;
    }
    if (i + 1 >= options_.max_attempts) {
      result.exhausted = true;
      return result;
    }
    const uint64_t wait = BackoffTicks(i + 1);
    result.backoff_ticks += wait;
    if (charge != nullptr && wait > 0) {
      charge(wait);
    }
  }
  return result;  // unreachable: the loop always returns
}

}  // namespace common
}  // namespace ss
