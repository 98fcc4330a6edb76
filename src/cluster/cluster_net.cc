#include "src/cluster/cluster_net.h"

#include <memory>

namespace ss {
namespace cluster {

namespace {
// Seeds the drop, duplication and delay draws.
constexpr uint64_t kRngSeed = 1;
}  // namespace

ClusterNet::ClusterNet(ClusterNetOptions options, MetricRegistry* metrics)
    : options_(options),
      rng_(kRngSeed),
      owned_metrics_(metrics == nullptr ? std::make_unique<MetricRegistry>() : nullptr) {
  MetricRegistry* reg = owned_metrics_ != nullptr ? owned_metrics_.get() : metrics;
  delivered_ = &reg->counter("cluster.net.delivered");
  dropped_ = &reg->counter("cluster.net.dropped");
  duplicated_ = &reg->counter("cluster.net.duplicated");
  partitioned_ = &reg->counter("cluster.net.partitioned_sends");
  to_crashed_ = &reg->counter("cluster.net.to_crashed_sends");
  delay_ticks_hist_ = &reg->histogram("cluster.net.delay_ticks");
}

void ClusterNet::AddEndpoint(int id) {
  LockGuard lock(mu_);
  endpoints_.insert(id);
  crashed_.erase(id);
}

void ClusterNet::RemoveEndpoint(int id) {
  LockGuard lock(mu_);
  endpoints_.erase(id);
  crashed_.erase(id);
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (it->first == id || it->second == id) {
      it = partitions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ClusterNet::HasEndpoint(int id) const {
  LockGuard lock(mu_);
  return endpoints_.count(id) != 0;
}

void ClusterNet::SetCrashed(int id, bool crashed) {
  LockGuard lock(mu_);
  if (crashed) {
    crashed_.insert(id);
  } else {
    crashed_.erase(id);
  }
}

bool ClusterNet::Crashed(int id) const {
  LockGuard lock(mu_);
  return crashed_.count(id) != 0;
}

void ClusterNet::SetLossRates(double drop_rate, double duplicate_rate) {
  LockGuard lock(mu_);
  options_.drop_rate = drop_rate;
  options_.duplicate_rate = duplicate_rate;
}

void ClusterNet::PartitionLink(int a, int b) {
  if (a == b) {
    return;
  }
  LockGuard lock(mu_);
  partitions_.insert(LinkKey(a, b));
}

void ClusterNet::HealLink(int a, int b) {
  LockGuard lock(mu_);
  partitions_.erase(LinkKey(a, b));
}

void ClusterNet::HealAllLinks() {
  LockGuard lock(mu_);
  partitions_.clear();
}

bool ClusterNet::LinkPartitioned(int a, int b) const {
  LockGuard lock(mu_);
  return partitions_.count(LinkKey(a, b)) != 0;
}

size_t ClusterNet::partitioned_link_count() const {
  LockGuard lock(mu_);
  return partitions_.size();
}

void ClusterNet::AdvanceLocked(uint64_t ticks) {
  clock_ += ticks;
  clock_ticks_.store(clock_, std::memory_order_relaxed);
}

uint64_t ClusterNet::Now() const {
  LockGuard lock(mu_);
  return clock_;
}

void ClusterNet::AdvanceTicks(uint64_t ticks) {
  LockGuard lock(mu_);
  AdvanceLocked(ticks);
}

Status ClusterNet::Deliver(int from, int to, const std::function<void()>& handler,
                           uint64_t* delay_ticks) {
  return Deliver(from, to, TraceContext{},
                 [&handler](const TraceContext&) { handler(); }, delay_ticks);
}

Status ClusterNet::Deliver(int from, int to, const TraceContext& trace,
                           const std::function<void(const TraceContext&)>& handler,
                           uint64_t* delay_ticks) {
  bool duplicate = false;
  {
    // All fault decisions happen under the lock; the handler runs after it is
    // released so concurrent deliveries interleave under the model checker.
    LockGuard lock(mu_);
    uint64_t delay = options_.base_delay_ticks;
    if (options_.delay_jitter_ticks > 0) {
      delay += rng_.Below(options_.delay_jitter_ticks + 1);
    }
    if (delay > 0) {
      AdvanceLocked(delay);
      delay_ticks_hist_->Record(delay);
    }
    if (delay_ticks != nullptr) {
      *delay_ticks = delay;
    }
    if (to != kClientId && endpoints_.count(to) == 0) {
      return Status::Unavailable("net: no such endpoint");
    }
    if (crashed_.count(to) != 0 || crashed_.count(from) != 0) {
      to_crashed_->Increment();
      return Status::Unavailable("net: endpoint crashed");
    }
    if (partitions_.count(LinkKey(from, to)) != 0) {
      partitioned_->Increment();
      return Status::Unavailable("net: link partitioned");
    }
    if (options_.drop_rate > 0.0 && rng_.Chance(options_.drop_rate)) {
      dropped_->Increment();
      return Status::IoError("net: message dropped");
    }
    duplicate = options_.duplicate_rate > 0.0 && rng_.Chance(options_.duplicate_rate);
    delivered_->Increment();
    if (duplicate) {
      duplicated_->Increment();
    }
  }
  handler(trace);
  if (duplicate) {
    handler(trace);  // receivers see the same trace context twice — idempotence is
                     // theirs to provide; the duplicate's spans show up honestly
  }
  return Status::Ok();
}

}  // namespace cluster
}  // namespace ss
