#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/obs/json.h"

namespace ss {

namespace {

// FNV-1a; stable across platforms so shard assignment (and thus lock order within a
// single lookup) is deterministic.
size_t HashName(std::string_view name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace

Histogram::Histogram(std::vector<uint64_t> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t index = static_cast<size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<uint64_t> DefaultTickBuckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (bounds.empty()) {
    return sum / count;  // a single +inf bucket cannot resolve any quantile
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the quantile sample, 1-based: ceil(q * count), at least 1.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      return bounds[i];
    }
  }
  return bounds.back() + 1;  // overflow bucket
}

std::string HistogramSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("count").UInt(count);
  w.Key("sum").UInt(sum);
  w.Key("bounds").BeginArray();
  for (uint64_t b : bounds) {
    w.UInt(b);
  }
  w.EndArray();
  w.Key("counts").BeginArray();
  for (uint64_t c : counts) {
    w.UInt(c);
  }
  w.EndArray();
  w.Key("p50").UInt(ValueAtQuantile(0.5));
  w.Key("p99").UInt(ValueAtQuantile(0.99));
  w.Key("p999").UInt(ValueAtQuantile(0.999));
  w.EndObject();
  return w.str();
}

std::string HistogramSnapshot::ToString() const {
  std::ostringstream out;
  out << "count=" << count << " sum=" << sum << " |";
  for (size_t i = 0; i < bounds.size(); ++i) {
    out << " <=" << bounds[i] << ":" << counts[i];
  }
  if (!counts.empty()) {
    out << " +inf:" << counts.back();
  }
  return out.str();
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

uint64_t MetricsSnapshot::histogram_count(std::string_view name) const {
  const auto it = histograms.find(std::string(name));
  return it == histograms.end() ? 0 : it->second.count;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream out;
  out << "== counters ==\n";
  for (const auto& [name, value] : counters) {
    out << "  " << name << " = " << value << "\n";
  }
  if (!gauges.empty()) {
    out << "== gauges ==\n";
    for (const auto& [name, value] : gauges) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!histograms.empty()) {
    out << "== histograms ==\n";
    for (const auto& [name, hist] : histograms) {
      out << "  " << name << " " << hist.ToString() << "\n";
    }
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    w.Key(name).UInt(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) {
    w.Key(name).Int(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, hist] : histograms) {
    w.Key(name).Raw(hist.ToJson());
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;  // uint64 wraparound on overflow is intended
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
  for (const auto& [name, theirs] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, theirs);
    if (inserted) {
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.bounds == theirs.bounds && mine.counts.size() == theirs.counts.size()) {
      for (size_t i = 0; i < mine.counts.size(); ++i) {
        mine.counts[i] += theirs.counts[i];
      }
    }  // mismatched shapes keep this snapshot's buckets; only the totals fold in
    mine.count += theirs.count;
    mine.sum += theirs.sum;
  }
}

uint64_t CounterDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                      std::string_view name) {
  const uint64_t b = before.counter(name);
  const uint64_t a = after.counter(name);
  return a >= b ? a - b : 0;
}

MetricRegistry::Shard& MetricRegistry::ShardFor(std::string_view name) const {
  return shards_[HashName(name) % kShardCount];
}

Counter& MetricRegistry::counter(std::string_view name) {
  Shard& shard = ShardFor(name);
  LockGuard lock(shard.mu);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    it = shard.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  Shard& shard = ShardFor(name);
  LockGuard lock(shard.mu);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    it = shard.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name, std::vector<uint64_t> bounds) {
  Shard& shard = ShardFor(name);
  LockGuard lock(shard.mu);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms
             .emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot out;
  SnapshotInto(out);
  return out;
}

void MetricRegistry::SnapshotInto(MetricsSnapshot& out) const {
  for (const Shard& shard : shards_) {
    LockGuard lock(shard.mu);
    for (const auto& [name, counter] : shard.counters) {
      out.counters[name] += counter->Value();
    }
    for (const auto& [name, gauge] : shard.gauges) {
      out.gauges[name] += gauge->Value();
    }
    for (const auto& [name, hist] : shard.histograms) {
      HistogramSnapshot snap = hist->Snapshot();
      auto [it, inserted] = out.histograms.emplace(name, std::move(snap));
      if (!inserted) {
        HistogramSnapshot& merged = it->second;
        if (merged.bounds == hist->bounds()) {
          const HistogramSnapshot fresh = hist->Snapshot();
          for (size_t i = 0; i < merged.counts.size(); ++i) {
            merged.counts[i] += fresh.counts[i];
          }
          merged.count += fresh.count;
          merged.sum += fresh.sum;
        } else {
          // Different shapes can't merge bucket-wise; keep the first shape and fold
          // the totals so count/sum stay exact.
          merged.count += hist->Count();
          merged.sum += hist->Sum();
        }
      }
    }
  }
}

}  // namespace ss
