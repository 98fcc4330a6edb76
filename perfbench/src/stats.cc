#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

namespace {

// Zero-based nearest-rank index of quantile q over n samples.
size_t RankIndex(double q, size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t one_based = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(one_based, n) - 1;
}

}  // namespace

double Samples::Quantile(double q) const {
  Sort();
  return values_[RankIndex(q, values_.size())];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) {
    return 0;
  }
  return values_.size() - 1 - RankIndex(q, values_.size());
}

std::optional<Samples::Tail> Samples::HighestTail() const {
  static constexpr size_t kMinBeyond = 10;
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  if (values_.empty()) {
    return std::nullopt;
  }
  for (double q : kLadder) {
    const size_t beyond = Beyond(q);
    if (beyond >= kMinBeyond) {
      return Tail{q, Quantile(q), beyond};
    }
  }
  return std::nullopt;
}

uint64_t SpanLog::Begin(const char* name) {
  const uint64_t id = next_id_++;
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  const uint64_t root = stack_.empty() ? id : stack_.back().root;
  stack_.push_back(Open{name, id, parent, root, NowNs(), 0});
  return id;
}

void SpanLog::End(uint64_t id) {
  const Nanos end = NowNs();
  if (stack_.empty() || stack_.back().id != id) {
    return;  // unbalanced use; ScopedSpan never produces it
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const Nanos duration = end - open.start;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  auto it = aggregates_.find(open.name);
  if (it == aggregates_.end()) {
    it = aggregates_.emplace(open.name, Aggregate{}).first;
  }
  ++it->second.count;
  it->second.total_ns += duration;
  it->second.self_ns += duration - open.child_ns;
  if (records_.size() < max_records_) {
    records_.push_back(Record{open.name, open.id, open.parent, open.root, open.start, end});
  } else {
    ++dropped_;
  }
}

double SpanLog::MeanNs(std::string_view name) const {
  auto it = aggregates_.find(name);
  return it == aggregates_.end()
             ? 0.0
             : static_cast<double>(it->second.total_ns) / static_cast<double>(it->second.count);
}

void SpanLog::PrintSummary() const {
  for (const auto& [name, agg] : aggregates_) {
    std::printf("span %s: n=%llu mean %.0f ns, self %.0f ns\n", name.c_str(),
                static_cast<unsigned long long>(agg.count),
                static_cast<double>(agg.total_ns) / static_cast<double>(agg.count),
                static_cast<double>(agg.self_ns) / static_cast<double>(agg.count));
  }
}

bool SpanLog::WriteCsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "name,id,parent,root,start_ns,end_ns\n");
  for (const Record& r : records_) {
    std::fprintf(out, "%s,%llu,%llu,%llu,%lld,%lld\n", r.name,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.root), static_cast<long long>(r.start),
                 static_cast<long long>(r.end));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
