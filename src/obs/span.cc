#include "src/obs/span.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/obs/json.h"

namespace ss {

std::string SpanRecord::ToString() const {
  std::ostringstream out;
  out << "#" << id << " " << name << " parent=" << parent << " root=" << root
      << " ticks=" << duration_ticks << " status=" << StatusCodeName(status);
  if (shard != 0 || disk >= 0) {
    out << " shard=" << shard << " disk=" << disk;
  }
  if (remote_root != 0) {
    out << " remote_parent=" << remote_parent << " remote_root=" << remote_root;
  }
  if (open) {
    out << " (open)";
  }
  return out.str();
}

SpanTree::SpanTree(size_t capacity, MetricRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity), metrics_(metrics) {
  ring_.reserve(capacity_);
}

StartedSpan SpanTree::InsertLocked(SpanRecord record) {
  StartedSpan started{next_id_++, nullptr};
  if (metrics_ != nullptr) {
    auto it = histogram_cache_.find(record.name);
    if (it == histogram_cache_.end()) {
      it = histogram_cache_
               .emplace(record.name, &metrics_->histogram("span." + record.name + ".ticks"))
               .first;
    }
    started.histogram = it->second;
  }
  record.id = started.id;
  if (record.root == 0) {
    record.root = started.id;
  }
  const size_t slot = static_cast<size_t>((started.id - 1) % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(record);
  } else {
    ring_.push_back(std::move(record));
  }
  return started;
}

StartedSpan SpanTree::StartSpan(std::string_view name, uint64_t parent, uint64_t root,
                                uint64_t start_ticks) {
  LockGuard lock(mu_);
  SpanRecord record;
  record.parent = parent;
  record.root = root;
  record.name = std::string(name);
  record.start_ticks = start_ticks;
  return InsertLocked(std::move(record));
}

StartedSpan SpanTree::StartRemoteSpan(std::string_view name, TraceContext remote,
                                      uint64_t start_ticks) {
  LockGuard lock(mu_);
  SpanRecord record;
  record.remote_parent = remote.parent;
  record.remote_root = remote.root;
  record.name = std::string(name);
  record.start_ticks = start_ticks;
  return InsertLocked(std::move(record));  // locally rooted: parent/root stay 0/self
}

std::vector<uint64_t> SpanTree::RemoteTrees(uint64_t remote_root) const {
  LockGuard lock(mu_);
  std::vector<uint64_t> out;
  for (const SpanRecord& record : SpansLocked()) {
    if (record.id == record.root && record.remote_root == remote_root) {
      out.push_back(record.id);
    }
  }
  return out;
}

void SpanTree::EndSpan(StartedSpan span, StatusCode status, uint64_t duration_ticks,
                       uint64_t shard, int32_t disk) {
  if (span.histogram != nullptr) {
    span.histogram->Record(duration_ticks);
  }
  LockGuard lock(mu_);
  if (span.id == 0 || span.id >= next_id_) {
    return;
  }
  const size_t slot = static_cast<size_t>((span.id - 1) % capacity_);
  if (slot >= ring_.size() || ring_[slot].id != span.id) {
    return;  // overwritten by wraparound; the lifetime counter still covers it
  }
  SpanRecord& record = ring_[slot];
  record.status = status;
  record.duration_ticks = duration_ticks;
  record.shard = shard;
  record.disk = disk;
  record.open = false;
}

std::vector<SpanRecord> SpanTree::SpansLocked() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (const SpanRecord& record : ring_) {
    if (record.id != 0) {
      out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::vector<SpanRecord> SpanTree::Spans() const {
  LockGuard lock(mu_);
  return SpansLocked();
}

std::vector<SpanRecord> SpanTree::Tree(uint64_t root) const {
  std::vector<SpanRecord> all = Spans();
  std::erase_if(all, [root](const SpanRecord& record) { return record.root != root; });
  return all;
}

std::vector<SpanRecord> SpanTree::Roots() const {
  std::vector<SpanRecord> all = Spans();
  std::erase_if(all, [](const SpanRecord& record) { return record.id != record.root; });
  return all;
}

uint64_t SpanTree::total_started() const {
  LockGuard lock(mu_);
  return next_id_ - 1;
}

std::string SpanTree::ToString(uint64_t root) const {
  const std::vector<SpanRecord> spans = Tree(root);
  std::multimap<uint64_t, const SpanRecord*> children;
  const SpanRecord* root_record = nullptr;
  for (const SpanRecord& record : spans) {
    if (record.id == root) {
      root_record = &record;
    } else {
      children.emplace(record.parent, &record);
    }
  }
  std::ostringstream out;
  if (root_record == nullptr) {
    out << "span #" << root << " <not retained>\n";
    return out.str();
  }
  // Depth-first with an explicit stack; children sorted by id via the multimap.
  std::vector<std::pair<const SpanRecord*, int>> stack = {{root_record, 0}};
  while (!stack.empty()) {
    auto [record, depth] = stack.back();
    stack.pop_back();
    for (int i = 0; i < depth; ++i) {
      out << "  ";
    }
    out << record->ToString() << "\n";
    auto [lo, hi] = children.equal_range(record->id);
    std::vector<const SpanRecord*> kids;
    for (auto it = lo; it != hi; ++it) {
      kids.push_back(it->second);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  return out.str();
}

void SpanRecordToJson(const SpanRecord& record, JsonWriter& w) {
  w.BeginObject();
  w.Key("id").UInt(record.id);
  w.Key("parent").UInt(record.parent);
  w.Key("root").UInt(record.root);
  if (record.remote_root != 0) {
    w.Key("remote_parent").UInt(record.remote_parent);
    w.Key("remote_root").UInt(record.remote_root);
  }
  w.Key("name").String(record.name);
  w.Key("start_ticks").UInt(record.start_ticks);
  w.Key("duration_ticks").UInt(record.duration_ticks);
  w.Key("status").String(StatusCodeName(record.status));
  if (record.shard != 0 || record.disk >= 0) {
    w.Key("shard").UInt(record.shard);
    w.Key("disk").Int(record.disk);
  }
  w.Key("open").Bool(record.open);
  w.EndObject();
}

namespace {

std::string SpansJson(const std::vector<SpanRecord>& spans) {
  JsonWriter w;
  w.BeginArray();
  for (const SpanRecord& record : spans) {
    SpanRecordToJson(record, w);
  }
  w.EndArray();
  return w.str();
}

}  // namespace

std::string SpanTree::ToJson(uint64_t root) const { return SpansJson(Tree(root)); }

std::string SpanTree::ToJson() const { return SpansJson(Spans()); }

Span::Span(SpanTree* tree, const TickSource* clock, std::string_view name, uint64_t parent,
           uint64_t root)
    : tree_(tree), clock_(clock) {
  if (tree_ == nullptr) {
    return;
  }
  start_ = clock_ != nullptr ? clock_->SpanTicksNow() : 0;
  started_ = tree_->StartSpan(name, parent, root, start_);
  root_ = root == 0 ? started_.id : root;
  open_ = true;
}

Span::Span(SpanTree* tree, const TickSource* clock, std::string_view name, TraceContext remote)
    : tree_(tree), clock_(clock) {
  if (tree_ == nullptr) {
    return;
  }
  start_ = clock_ != nullptr ? clock_->SpanTicksNow() : 0;
  started_ = tree_->StartRemoteSpan(name, remote, start_);
  root_ = started_.id;  // locally rooted; the remote linkage lives in the record
  open_ = true;
}

Span::Span(Span&& other) noexcept { *this = std::move(other); }

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tree_ = other.tree_;
    clock_ = other.clock_;
    started_ = other.started_;
    root_ = other.root_;
    start_ = other.start_;
    ticks_ = other.ticks_;
    shard_ = other.shard_;
    disk_ = other.disk_;
    status_ = other.status_;
    open_ = other.open_;
    other.tree_ = nullptr;
    other.open_ = false;
  }
  return *this;
}

Span::~Span() { End(); }

uint64_t Span::End() {
  if (!open_) {
    return ticks_;
  }
  open_ = false;
  uint64_t duration = ticks_;
  if (clock_ != nullptr) {
    duration += clock_->SpanTicksNow() - start_;
  }
  ticks_ = duration;
  tree_->EndSpan(started_, status_, duration, shard_, disk_);
  return duration;
}

}  // namespace ss
