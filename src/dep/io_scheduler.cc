#include "src/dep/io_scheduler.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace ss {

IoScheduler::IoScheduler(Disk* disk, MetricRegistry* metrics) : disk_(disk) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  enqueued_ = &metrics->counter("io.enqueued");
  issued_ = &metrics->counter("io.issued");
  dropped_by_crash_ = &metrics->counter("io.dropped_by_crash");
  failed_io_ = &metrics->counter("io.failed");
  crashes_ = &metrics->counter("io.crashes");
  coalesced_pages_ = &metrics->counter("io.coalesced_pages");
  deplint_violations_ = &metrics->counter("io.deplint.violations");
}

uint64_t IoScheduler::DomainKey(Kind kind, ExtentId extent) const {
  // Data pages and reset markers share the extent's sequential-append domain; soft-wp
  // and ownership updates for an extent each form their own FIFO domain.
  switch (kind) {
    case Kind::kDataPage:
    case Kind::kReset:
      return uint64_t{extent} * 4 + 0;
    case Kind::kSoftWp:
      return uint64_t{extent} * 4 + 1;
    case Kind::kOwnership:
      return uint64_t{extent} * 4 + 2;
  }
  return 0;
}

Dependency IoScheduler::EnqueueLocked(Record record) {
  record.done = Dependency::MakeLeaf();
  record.seq = next_seq_++;
  domain_seqs_[record.domain].push_back(record.seq);
  Dependency done = record.done;
  queue_.push_back(std::move(record));
  enqueued_->Increment();
  return done;
}

Dependency IoScheduler::EnqueueDataPage(ExtentId extent, uint32_t page, Bytes data,
                                        std::vector<Dependency> inputs,
                                        const SpanScope& scope) {
  LockGuard lock(mu_);
  Dependency input = Dependency::AndAll(inputs);
  const uint64_t domain = DomainKey(Kind::kDataPage, extent);
  if (coalesce_depth_ > 0 && input.IsPersistent()) {
    // Merge into the newest pending data record of this extent when the page extends
    // it contiguously. The merged pages share one done leaf: they reach the disk (or
    // are dropped by a crash) as a single IO unit. Requiring the new page's input to
    // be persistent keeps the merge semantically neutral — the shared record's input
    // is unchanged, and the extra ordering it imposes on the new page is one the data
    // domain's FIFO already implies.
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      if (it->domain != domain) {
        continue;
      }
      if (it->kind == Kind::kDataPage &&
          it->page + it->pages.size() == uint64_t{page}) {
        it->pages.push_back(std::move(data));
        coalesced_pages_->Increment();
        if (scope.active()) {
          Span span = scope.Child("io.coalesce");
        }
        return it->done;
      }
      break;  // newest record in the domain is not mergeable
    }
  }
  if (scope.active()) {
    Span span = scope.Child("io.submit");
  }
  Record r;
  r.kind = Kind::kDataPage;
  r.extent = extent;
  r.page = page;
  r.pages.push_back(std::move(data));
  r.input = std::move(input);
  r.domain = domain;
  return EnqueueLocked(std::move(r));
}

void IoScheduler::BeginCoalescing() {
  LockGuard lock(mu_);
  ++coalesce_depth_;
}

void IoScheduler::EndCoalescing() {
  LockGuard lock(mu_);
  if (coalesce_depth_ > 0) {
    --coalesce_depth_;
  }
}

Dependency IoScheduler::EnqueueSoftWp(ExtentId extent, uint32_t wp_pages,
                                      std::vector<Dependency> inputs,
                                      const SpanScope& scope) {
  LockGuard lock(mu_);
  if (scope.active()) {
    Span span = scope.Child("io.submit");
  }
  Record r;
  r.kind = Kind::kSoftWp;
  r.extent = extent;
  r.soft_wp = wp_pages;
  r.input = Dependency::AndAll(inputs);
  r.domain = DomainKey(r.kind, extent);
  return EnqueueLocked(std::move(r));
}

Dependency IoScheduler::EnqueueOwnership(ExtentId extent, ExtentOwner owner,
                                         std::vector<Dependency> inputs) {
  LockGuard lock(mu_);
  Record r;
  r.kind = Kind::kOwnership;
  r.extent = extent;
  r.owner = owner;
  r.input = Dependency::AndAll(inputs);
  r.domain = DomainKey(r.kind, extent);
  return EnqueueLocked(std::move(r));
}

Dependency IoScheduler::EnqueueReset(ExtentId extent, std::vector<Dependency> inputs) {
  LockGuard lock(mu_);
  Record r;
  r.kind = Kind::kReset;
  r.extent = extent;
  r.input = Dependency::AndAll(inputs);
  r.domain = DomainKey(r.kind, extent);
  return EnqueueLocked(std::move(r));
}

bool IoScheduler::ReadyLocked(const Record& record) const {
  return record.input.IsPersistent() && domain_seqs_.at(record.domain).front() == record.seq;
}

void IoScheduler::EraseLocked(std::deque<Record>::iterator it) {
  auto domain = domain_seqs_.find(it->domain);
  domain->second.pop_front();
  if (domain->second.empty()) {
    domain_seqs_.erase(domain);
  }
  queue_.erase(it);
}

Status IoScheduler::IssueLocked(Record& record) {
  Status status = Status::Ok();
  switch (record.kind) {
    case Kind::kDataPage:
      for (size_t i = 0; i < record.pages.size(); ++i) {
        status = disk_->WritePage(record.extent, record.page + static_cast<uint32_t>(i),
                                  record.pages[i]);
        if (!status.ok()) {
          break;
        }
      }
      break;
    case Kind::kSoftWp:
      status = disk_->WriteSoftWp(record.extent, record.soft_wp);
      break;
    case Kind::kOwnership:
      status = disk_->WriteOwnership(record.extent, record.owner);
      break;
    case Kind::kReset:
      status = disk_->ResetExtentRegion(record.extent);
      break;
  }
  if (status.ok()) {
    record.done.MarkLeafPersistent();
    issued_->Increment();
  } else {
    record.done.MarkLeafFailed();
    failed_io_->Increment();
  }
  return status;
}

size_t IoScheduler::Pump(size_t max_records) {
  LockGuard lock(mu_);
  size_t issued = 0;
  while (issued < max_records) {
    bool progress = false;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (ReadyLocked(*it)) {
        IssueLocked(*it);  // Failed records are dropped; their deps report Failed().
        EraseLocked(it);
        ++issued;
        progress = true;
        break;
      }
    }
    if (!progress) {
      break;
    }
  }
  return issued;
}

Status IoScheduler::FlushAll(const SpanScope& scope) {
  Span span = scope.Child("io.barrier");
  if (DepLintEnabled()) {
    DepLintReport report = Lint();
    if (!report.ok()) {
      deplint_violations_->Increment(report.violations.size());
      NotifyDepLintHandlers(report);
      span.set_status(StatusCode::kInternal);
      return Status::Internal("dependency lint: " + report.Summary());
    }
  }
  // Bound iterations defensively; every Pump(1) that makes progress shrinks the queue.
  while (true) {
    {
      LockGuard lock(mu_);
      if (queue_.empty()) {
        return Status::Ok();
      }
    }
    if (Pump(1) == 0) {
      span.set_status(StatusCode::kInternal);
      return Status::Internal("io scheduler stuck: " + DescribeStuck());
    }
  }
}

size_t IoScheduler::CrashWalk(const std::function<bool()>& persist) {
  LockGuard lock(mu_);
  crashes_->Increment();
  std::set<uint64_t> stopped_domains;
  size_t decisions = 0;
  while (true) {
    auto candidate = std::find_if(queue_.begin(), queue_.end(), [&](const Record& r) {
      return stopped_domains.count(r.domain) == 0 && ReadyLocked(r);
    });
    if (candidate == queue_.end()) {
      break;
    }
    ++decisions;
    if (persist()) {
      IssueLocked(*candidate);
      EraseLocked(candidate);
    } else {
      // This IO (and everything behind it in its domain) never reached the disk.
      stopped_domains.insert(candidate->domain);
    }
  }
  dropped_by_crash_->Increment(queue_.size());
  // Dropped records leave their leaves unpersisted forever.
  queue_.clear();
  domain_seqs_.clear();
  return decisions;
}

void IoScheduler::Crash(Rng& rng, double persist_bias) {
  CrashWalk([&] { return rng.Chance(persist_bias); });
}

void IoScheduler::CrashScripted(const std::vector<bool>& plan, size_t* decisions_used) {
  size_t next = 0;
  const size_t used = CrashWalk([&] {
    const bool persist = next < plan.size() && plan[next];
    ++next;
    return persist;
  });
  if (decisions_used != nullptr) {
    *decisions_used = used;
  }
}

void IoScheduler::CrashDropAll() {
  LockGuard lock(mu_);
  crashes_->Increment();
  dropped_by_crash_->Increment(queue_.size());
  queue_.clear();
  domain_seqs_.clear();
}

size_t IoScheduler::PendingCount() const {
  LockGuard lock(mu_);
  return queue_.size();
}

std::string IoScheduler::LabelLocked(const Record& r) const {
  std::ostringstream label;
  switch (r.kind) {
    case Kind::kDataPage:
      label << "data ext=" << r.extent << " page=" << r.page << "+" << r.pages.size();
      break;
    case Kind::kSoftWp:
      label << "softwp ext=" << r.extent << " wp=" << r.soft_wp;
      break;
    case Kind::kOwnership:
      label << "own ext=" << r.extent;
      break;
    case Kind::kReset:
      label << "reset ext=" << r.extent;
      break;
  }
  label << " seq=" << r.seq;
  return label.str();
}

std::string IoScheduler::PendingDotLocked(std::string_view name_prefix) const {
  std::vector<std::pair<std::string, Dependency>> roots;
  for (const Record& r : queue_) {
    roots.emplace_back(std::string(name_prefix) + LabelLocked(r), r.input);
  }
  return Dependency::GraphDot(roots);
}

std::string IoScheduler::PendingDot(std::string_view name_prefix) const {
  LockGuard lock(mu_);
  return PendingDotLocked(name_prefix);
}

DepLintReport IoScheduler::Lint() const {
  DepLintReport report;
  LockGuard lock(mu_);
  const size_t n = queue_.size();
  if (n == 0) {
    return report;
  }

  // Record graph: edge i -> j means record i may not be issued before record j.
  // Dependency edges come from j's done leaf appearing in i's input closure; FIFO
  // edges from domain order. Soft-updates reasoning must use *this* graph — a
  // pointer update is ordered after a data page just as firmly by the softwp
  // domain's FIFO as by an explicit dependency.
  std::map<const void*, size_t> done_owner;
  for (size_t i = 0; i < n; ++i) {
    done_owner[queue_[i].done.raw()] = i;
  }
  std::vector<std::vector<size_t>> edges(n);
  std::vector<bool> input_unknown(n, false);  // input closure has an unresolved promise
  for (size_t i = 0; i < n; ++i) {
    std::vector<const void*> nodes;
    queue_[i].input.CollectNodes(nodes);
    for (const void* node : nodes) {
      auto it = done_owner.find(node);
      if (it != done_owner.end() && it->second != i) {
        edges[i].push_back(it->second);
      }
    }
    input_unknown[i] = queue_[i].input.HasUnresolvedPromise();
    for (size_t j = 0; j < n; ++j) {
      if (queue_[j].domain == queue_[i].domain && queue_[j].seq < queue_[i].seq) {
        edges[i].push_back(j);
      }
    }
  }

  // --- 1. Acyclicity -------------------------------------------------------------------
  // Colored DFS; on a back edge, the cycle is the stack suffix from the target.
  std::vector<uint8_t> color(n, 0);  // 0=white 1=on stack 2=done
  std::vector<size_t> stack;
  std::vector<size_t> cycle;
  std::function<bool(size_t)> dfs = [&](size_t v) {
    color[v] = 1;
    stack.push_back(v);
    for (size_t next : edges[v]) {
      if (color[next] == 1) {
        auto it = std::find(stack.begin(), stack.end(), next);
        cycle.assign(it, stack.end());
        return true;
      }
      if (color[next] == 0 && dfs(next)) {
        return true;
      }
    }
    color[v] = 2;
    stack.pop_back();
    return false;
  };
  for (size_t i = 0; i < n && cycle.empty(); ++i) {
    if (color[i] == 0) {
      stack.clear();
      dfs(i);
    }
  }
  if (!cycle.empty()) {
    std::ostringstream msg;
    msg << "record cycle (queue can never drain):";
    for (size_t idx : cycle) {
      msg << " [" << LabelLocked(queue_[idx]) << "] ->";
    }
    msg << " [" << LabelLocked(queue_[cycle.front()]) << "]";
    report.violations.push_back({DepLintViolation::Kind::kCycle, msg.str()});
  }

  // --- Per-extent epoch structure ------------------------------------------------------
  // A pending reset starts a new epoch for its extent: data enqueued before it is
  // deliberately being discarded (exempt from coverage), and pointer/data pairs are
  // only comparable within one epoch.
  std::set<ExtentId> extents;
  for (const Record& r : queue_) {
    extents.insert(r.extent);
  }
  auto epoch_of = [this](ExtentId extent, uint64_t seq) {
    size_t epoch = 0;
    for (const Record& r : queue_) {
      if (r.kind == Kind::kReset && r.extent == extent && r.seq < seq) {
        ++epoch;
      }
    }
    return epoch;
  };

  for (ExtentId extent : extents) {
    size_t last_epoch = 0;
    const Record* final_wp = nullptr;  // pending soft-wp with the highest seq
    for (const Record& r : queue_) {
      if (r.extent != extent) {
        continue;
      }
      if (r.kind == Kind::kReset) {
        ++last_epoch;
      }
      if (r.kind == Kind::kSoftWp) {
        final_wp = &r;  // queue_ is seq-ordered, so the last hit wins
      }
    }
    // The coverage every pointer update for this extent will have produced once the
    // queue drains: the last pending soft-wp (later FIFO entries overwrite earlier
    // ones), or the pointer already on disk when none is pending.
    const uint32_t final_cov =
        final_wp != nullptr ? final_wp->soft_wp : disk_->ReadSoftWp(extent);

    // --- 2. No orphan durable writes ---------------------------------------------------
    for (const Record& r : queue_) {
      if (r.kind != Kind::kDataPage || r.extent != extent) {
        continue;
      }
      if (epoch_of(extent, r.seq) != last_epoch) {
        continue;  // superseded: a pending reset discards this epoch's data
      }
      const uint64_t end_page = uint64_t{r.page} + r.pages.size();
      if (end_page > final_cov) {
        std::ostringstream msg;
        msg << "[" << LabelLocked(r) << "] persists pages the final write pointer ("
            << final_cov << ") never exposes: orphan durable write";
        report.violations.push_back({DepLintViolation::Kind::kOrphanData, msg.str()});
      }
    }

    // --- 3. Barrier-before-pointer -----------------------------------------------------
    // Every pending pointer update must be ordered (record-graph path) after every
    // same-epoch pending data page it exposes.
    for (size_t wi = 0; wi < n; ++wi) {
      const Record& w = queue_[wi];
      if (w.kind != Kind::kSoftWp || w.extent != extent) {
        continue;
      }
      const size_t w_epoch = epoch_of(extent, w.seq);
      // Reachability from w over the record graph.
      std::vector<bool> reach(n, false);
      std::vector<size_t> work = {wi};
      bool unknown = input_unknown[wi];
      while (!work.empty()) {
        const size_t v = work.back();
        work.pop_back();
        if (reach[v]) {
          continue;
        }
        reach[v] = true;
        unknown = unknown || input_unknown[v];
        for (size_t next : edges[v]) {
          work.push_back(next);
        }
      }
      for (size_t ri = 0; ri < n; ++ri) {
        const Record& r = queue_[ri];
        if (r.kind != Kind::kDataPage || r.extent != extent || r.seq >= w.seq ||
            r.page >= w.soft_wp || epoch_of(extent, r.seq) != w_epoch) {
          continue;
        }
        if (reach[ri]) {
          continue;
        }
        if (unknown) {
          continue;  // an unresolved promise may still supply the ordering
        }
        std::ostringstream msg;
        msg << "[" << LabelLocked(w) << "] can reach the disk before ["
            << LabelLocked(r) << "] it exposes: pointer before barrier";
        report.violations.push_back(
            {DepLintViolation::Kind::kPointerBeforeBarrier, msg.str()});
      }
    }
  }

  if (!report.ok()) {
    report.dot = PendingDotLocked("");
  }
  return report;
}

std::string IoScheduler::DescribeStuck() const {
  LockGuard lock(mu_);
  std::ostringstream out;
  out << queue_.size() << " pending record(s); head blocked records:";
  size_t shown = 0;
  for (const Record& r : queue_) {
    if (ReadyLocked(r)) {
      continue;
    }
    out << " [extent=" << r.extent << " kind=" << static_cast<int>(r.kind)
        << " input_persistent=" << (r.input.IsPersistent() ? "y" : "n") << "]";
    if (++shown == 4) {
      break;
    }
  }
  return out.str();
}

}  // namespace ss
