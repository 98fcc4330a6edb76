#include "src/disk/disk_health.h"

namespace ss {

std::string_view DiskHealthName(DiskHealth health) {
  switch (health) {
    case DiskHealth::kHealthy:
      return "healthy";
    case DiskHealth::kDegraded:
      return "degraded";
    case DiskHealth::kFailed:
      return "failed";
  }
  return "?";
}

DiskHealthTracker::DiskHealthTracker(MetricRegistry* metrics) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  transient_total_ = &metrics->counter("disk.health.transient_total");
  permanent_total_ = &metrics->counter("disk.health.permanent_total");
  state_ = &metrics->gauge("disk.health.state");
  state_->Set(static_cast<int64_t>(health_));
}

void DiskHealthTracker::RecordTransientLocked() {
  transient_total_->Increment();
  success_streak_ = 0;
  ++windowed_errors_;
  if (health_ == DiskHealth::kHealthy && windowed_errors_ >= kDegradeAfter) {
    health_ = DiskHealth::kDegraded;
  } else if (health_ == DiskHealth::kDegraded && windowed_errors_ >= kFailAfter) {
    health_ = DiskHealth::kFailed;
  }
  state_->Set(static_cast<int64_t>(health_));
}

void DiskHealthTracker::RecordTransientError() {
  LockGuard lock(mu_);
  RecordTransientLocked();
}

void DiskHealthTracker::RecordPermanentError() {
  LockGuard lock(mu_);
  permanent_total_->Increment();
  success_streak_ = 0;
  health_ = DiskHealth::kFailed;
  state_->Set(static_cast<int64_t>(health_));
}

void DiskHealthTracker::RecordSuccess() {
  LockGuard lock(mu_);
  if (windowed_errors_ == 0) {
    return;
  }
  if (++success_streak_ >= kSuccessDecay) {
    success_streak_ = 0;
    --windowed_errors_;
  }
}

DiskHealth DiskHealthTracker::health() const {
  LockGuard lock(mu_);
  return health_;
}

uint32_t DiskHealthTracker::windowed_errors() const {
  LockGuard lock(mu_);
  return windowed_errors_;
}

uint32_t DiskHealthTracker::budget_remaining() const {
  LockGuard lock(mu_);
  switch (health_) {
    case DiskHealth::kHealthy:
      return windowed_errors_ >= kDegradeAfter ? 0 : kDegradeAfter - windowed_errors_;
    case DiskHealth::kDegraded:
      return windowed_errors_ >= kFailAfter ? 0 : kFailAfter - windowed_errors_;
    case DiskHealth::kFailed:
      return 0;
  }
  return 0;
}

uint64_t DiskHealthTracker::transient_total() const { return transient_total_->Value(); }

uint64_t DiskHealthTracker::permanent_total() const { return permanent_total_->Value(); }

void DiskHealthTracker::Reset() {
  LockGuard lock(mu_);
  health_ = DiskHealth::kHealthy;
  windowed_errors_ = 0;
  success_streak_ = 0;
  state_->Set(static_cast<int64_t>(health_));
}

}  // namespace ss
