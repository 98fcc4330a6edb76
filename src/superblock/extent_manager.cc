#include "src/superblock/extent_manager.h"

#include "src/common/cover.h"
#include "src/faults/faults.h"

namespace ss {

ExtentManager::ExtentManager(Disk* disk, IoScheduler* scheduler, uint32_t buffer_permits,
                             common::RetryOptions retry, MetricRegistry* metrics)
    : disk_(disk),
      scheduler_(scheduler),
      retry_(retry),
      buffer_pool_(buffer_permits),
      owned_metrics_(metrics == nullptr ? std::make_unique<MetricRegistry>() : nullptr),
      health_(metrics == nullptr ? owned_metrics_.get() : metrics) {
  MetricRegistry* reg = owned_metrics_ != nullptr ? owned_metrics_.get() : metrics;
  metrics_ = reg;
  batch_soft_wp_updates_ = &reg->counter("extent.batch.soft_wp_updates");
  retry_attempts_ = &reg->counter("extent.retry.attempts");
  retry_transient_ = &reg->counter("extent.retry.transient_faults");
  retry_absorbed_ = &reg->counter("extent.retry.absorbed");
  retry_exhausted_ = &reg->counter("extent.retry.exhausted");
  retry_permanent_ = &reg->counter("extent.retry.permanent_failures");
  retry_backoff_ticks_ = &reg->histogram("extent.retry.backoff_ticks");
  const DiskGeometry& geo = disk_->geometry();
  extents_.resize(geo.extent_count);
  for (ExtentId e = 0; e < geo.extent_count; ++e) {
    ExtentState& state = extents_[e];
    state.wp = disk_->ReadSoftWp(e);
    state.enqueued_soft_wp = state.wp;
    state.owner = disk_->ReadOwnership(e);
    state.ownership_dep = Dependency();  // persisted state needs no further ordering
    // Copy the full persistent image, including pages beyond the write pointer: a real
    // disk retains stale bytes there too, which is what makes write-pointer bugs
    // (e.g. #7) observable as resurrected data.
    state.image.resize(geo.pages_per_extent);
    for (uint32_t p = 0; p < geo.pages_per_extent; ++p) {
      auto page = disk_->PeekPage(e, p);
      state.image[p] = page.ok() ? std::move(page).value() : Bytes(geo.page_size, 0);
    }
  }
}

Status ExtentManager::CheckExtent(ExtentId extent) const {
  if (extent == 0 || extent >= disk_->geometry().extent_count) {
    return Status::InvalidArgument("extent out of range (extent 0 is the superblock)");
  }
  return Status::Ok();
}

Status ExtentManager::CheckIo(ExtentId extent, bool is_write, const SpanScope& scope) const {
  DiskFaultInjector& faults = disk_->fault_injector();
  // Retries that consumed backoff show up as an "extent.retry" span whose duration is
  // exactly the ticks charged; clean IOs record nothing.
  const auto record_retry_span = [&](uint64_t ticks, StatusCode code) {
    if (scope.active() && ticks > 0) {
      Span span = scope.Child("extent.retry");
      span.set_status(code);
      span.AddTicks(ticks);
    }
  };
  // Permanent failures are classified before any attempt: retrying a dead extent only
  // wastes the error budget that the health machinery spends on real transients.
  if (faults.IsPermanentlyFailed(extent)) {
    retry_attempts_->Increment();
    retry_permanent_->Increment();
    health_.RecordPermanentError();
    return Status::DiskFailed(is_write ? "append: extent failed permanently"
                                       : "read: extent failed permanently");
  }
  // Attempt/backoff semantics live in the shared policy (the cluster tier's quorum
  // RPC retries run the same code); this layer contributes the per-attempt fault
  // consultation, health accounting, and metric increments.
  const common::RetryPolicy::RunResult run = retry_.Run(
      [&](uint32_t) {
        const bool failed =
            is_write ? faults.ShouldFailWrite(extent) : faults.ShouldFailRead(extent);
        retry_attempts_->Increment();
        if (failed) {
          retry_transient_->Increment();
          health_.RecordTransientError();
          return Status::IoError(is_write ? "append: transient write fault"
                                          : "read: transient read fault");
        }
        health_.RecordSuccess();
        return Status::Ok();
      },
      [&](uint64_t ticks) {
        // Deterministic exponential backoff on the virtual clock: 1, 2, 4, ... base
        // ticks. No wall-clock sleep — harness runs must stay instantaneous.
        LockGuard lock(retry_mu_);
        virtual_clock_ += ticks;
        clock_ticks_.store(virtual_clock_, std::memory_order_relaxed);
      });
  if (run.status.ok()) {
    if (run.attempts > 1) {
      retry_absorbed_->Increment();
      SS_COVER("extent_manager.retry_absorbed_fault");
      retry_backoff_ticks_->Record(run.backoff_ticks);
      record_retry_span(run.backoff_ticks, StatusCode::kOk);
    }
    return Status::Ok();
  }
  retry_exhausted_->Increment();
  retry_backoff_ticks_->Record(run.backoff_ticks);
  record_retry_span(run.backoff_ticks, StatusCode::kIoError);
  SS_COVER("extent_manager.retry_budget_exhausted");
  return Status::IoError(is_write ? "append: transient write faults outlasted retry budget"
                                  : "read: transient read faults outlasted retry budget");
}

uint64_t ExtentManager::VirtualNow() const {
  LockGuard lock(retry_mu_);
  return virtual_clock_;
}

uint32_t ExtentManager::PagesNeeded(size_t bytes) const {
  const uint32_t page_size = disk_->geometry().page_size;
  return static_cast<uint32_t>((bytes + page_size - 1) / page_size);
}

Result<AppendResult> ExtentManager::Append(ExtentId extent, ByteSpan data, Dependency input,
                                           const SpanScope& scope, const WriteBatch* batch) {
  Span span = scope.Child("extent.append");
  const SpanScope child_scope = span.scope();
  if (Status check = CheckExtent(extent); !check.ok()) {
    span.set_status(check.code());
    return check;
  }
  if (data.empty()) {
    span.set_status(StatusCode::kInvalidArgument);
    return Status::InvalidArgument("append of zero bytes");
  }
  const DiskGeometry& geo = disk_->geometry();
  const uint32_t pages_needed = PagesNeeded(data.size());

  // Stage buffers for the data pages and the superblock update. The correct code takes
  // both permits atomically; seeded bug #12 splits the acquisition, which deadlocks
  // when two appends race on a nearly-exhausted pool.
  if (BugEnabled(SeededBug::kBufferPoolDeadlock)) {
    buffer_pool_.Acquire(1);
    YieldThread();  // the preemption window the model checker exploits
    buffer_pool_.Acquire(1);
  } else {
    buffer_pool_.Acquire(2);
  }

  LockGuard lock(mu_);
  ExtentState& state = extents_[extent];
  if (state.owner == ExtentOwner::kFree) {
    buffer_pool_.Release(2);
    span.set_status(StatusCode::kInvalidArgument);
    return Status::InvalidArgument("append to unowned extent");
  }
  if (uint64_t{state.wp} + pages_needed > geo.pages_per_extent) {
    buffer_pool_.Release(2);
    span.set_status(StatusCode::kResourceExhausted);
    return Status::ResourceExhausted("extent full");
  }
  // Synchronous write-failure surface: a failed append reports the classified error
  // (kIoError past the retry budget, kDiskFailed for permanent faults) to the caller
  // and stages nothing (section 4.4 failure injection).
  if (Status io = CheckIo(extent, /*is_write=*/true, child_scope); !io.ok()) {
    buffer_pool_.Release(2);
    span.set_status(io.code());
    return io;
  }

  AppendResult result;
  result.first_page = state.wp;
  result.page_count = pages_needed;

  std::vector<Dependency> data_deps;
  std::vector<Dependency> soft_wp_deps;
  for (uint32_t i = 0; i < pages_needed; ++i) {
    const size_t off = size_t{i} * geo.page_size;
    const size_t len = std::min<size_t>(geo.page_size, data.size() - off);
    Bytes page(data.begin() + static_cast<ptrdiff_t>(off),
               data.begin() + static_cast<ptrdiff_t>(off + len));
    page.resize(geo.page_size, 0);

    // Stage into the volatile image so the write is immediately readable.
    state.image[state.wp + i] = page;

    std::vector<Dependency> inputs = {input};
    if (!BugEnabled(SeededBug::kSuperblockWrongOwnershipDep)) {
      // Data on a freshly claimed extent must not persist before its ownership record.
      inputs.push_back(state.ownership_dep);
    }
    Dependency page_dep = scheduler_->EnqueueDataPage(extent, state.wp + i, std::move(page),
                                                      std::move(inputs), child_scope);
    data_deps.push_back(page_dep);

    // Soft-write-pointer update covering this page. Two rules:
    //  * it is *gated on the data write it covers*: a pointer that reached the disk
    //    ahead of its data would make recovery expose stale (possibly stale-but-valid)
    //    bytes below the write pointer — the core soft-updates ordering;
    //  * it is skipped when an update with an equal or higher value is already
    //    enqueued — which never happens in correct execution because appends advance
    //    monotonically and Reset() rewinds the tracker. Seeded bug #7 breaks the
    //    rewind, making this skip fire and leaving the persisted pointer stale
    //    relative to the data.
    //
    // An append made through a write batch defers the update instead: the batch's
    // appends to this extent share one superblock update (enqueued at EndWriteBatch,
    // gated on all the pages it covers), and the append's dependency carries the
    // pending update's promise in its place.
    const uint32_t covered = state.wp + i + 1;
    if (batch != nullptr) {
      auto [pend_it, inserted] = pending_soft_wp_.try_emplace(extent);
      if (inserted) {
        pend_it->second.promise = Dependency::MakePromise();
      }
      pend_it->second.covered = std::max(pend_it->second.covered, covered);
      pend_it->second.data_deps.push_back(page_dep);
      soft_wp_deps.push_back(pend_it->second.promise);
    } else if (covered > state.enqueued_soft_wp) {
      Dependency soft_dep = scheduler_->EnqueueSoftWp(extent, covered, {page_dep}, child_scope);
      state.last_soft_wp_dep = soft_dep;
      soft_wp_deps.push_back(std::move(soft_dep));
      state.enqueued_soft_wp = covered;
    } else {
      SS_COVER("extent_manager.soft_wp_skip");
    }
  }
  state.wp += pages_needed;

  result.dep = Dependency::AndAll(data_deps);
  if (!BugEnabled(SeededBug::kWriteMissingSoftPointerDep)) {
    result.dep = result.dep.And(Dependency::AndAll(soft_wp_deps));
  }
  buffer_pool_.Release(2);
  return result;
}

Result<Bytes> ExtentManager::Read(ExtentId extent, uint32_t first_page, uint32_t page_count,
                                  const SpanScope& scope) const {
  SS_RETURN_IF_ERROR(CheckExtent(extent));
  SS_RETURN_IF_ERROR(CheckIo(extent, /*is_write=*/false, scope));
  LockGuard lock(mu_);
  const ExtentState& state = extents_[extent];
  if (uint64_t{first_page} + page_count > state.wp) {
    // Reads beyond the write pointer are forbidden (paper section 2.1).
    return Status::InvalidArgument("read beyond write pointer");
  }
  const DiskGeometry& geo = disk_->geometry();
  Bytes out;
  out.reserve(uint64_t{page_count} * geo.page_size);
  for (uint32_t i = 0; i < page_count; ++i) {
    const Bytes& page = state.image[first_page + i];
    out.insert(out.end(), page.begin(), page.end());
  }
  return out;
}

Dependency ExtentManager::Reset(ExtentId extent, Dependency input) {
  if (!CheckExtent(extent).ok()) {
    return Dependency();
  }
  LockGuard lock(mu_);
  return ResetLocked(extent, std::move(input));
}

void ExtentManager::SettlePendingSoftWpLocked(ExtentId extent) {
  auto it = pending_soft_wp_.find(extent);
  if (it == pending_soft_wp_.end()) {
    return;
  }
  ExtentState& state = extents_[extent];
  PendingSoftWp& pend = it->second;
  if (pend.covered > state.enqueued_soft_wp) {
    Dependency dep = scheduler_->EnqueueSoftWp(extent, pend.covered, pend.data_deps);
    state.enqueued_soft_wp = pend.covered;
    state.last_soft_wp_dep = dep;
    pend.promise.ResolvePromise(dep);
    batch_soft_wp_updates_->Increment();
  } else {
    // A covering update is already enqueued (an interleaved unbatched append, or a
    // stale tracker under bug #7). The data domain's FIFO guarantees that update is
    // gated behind the batch's pages, so resolving to it preserves the ordering.
    SS_COVER("extent_manager.batch_soft_wp_covered");
    pend.promise.ResolvePromise(state.last_soft_wp_dep);
  }
  pending_soft_wp_.erase(it);
}

ExtentManager::WriteBatch ExtentManager::BeginWriteBatch() {
  scheduler_->BeginCoalescing();
  return WriteBatch();
}

void ExtentManager::EndWriteBatch(WriteBatch& /*batch*/) {
  LockGuard lock(mu_);
  scheduler_->EndCoalescing();
  while (!pending_soft_wp_.empty()) {
    SettlePendingSoftWpLocked(pending_soft_wp_.begin()->first);
  }
}

Dependency ExtentManager::ResetLocked(ExtentId extent, Dependency input) {
  ExtentState& state = extents_[extent];
  // A deferred batch update for this extent must settle first: left pending, it would
  // later move the persisted pointer forward over pages the reset rewinds.
  SettlePendingSoftWpLocked(extent);
  Dependency marker = scheduler_->EnqueueReset(extent, {input});
  Dependency zero = scheduler_->EnqueueSoftWp(extent, 0, {input});
  state.last_soft_wp_dep = zero;
  state.wp = 0;
  if (!BugEnabled(SeededBug::kSoftPointerNotResetPersisted)) {
    state.enqueued_soft_wp = 0;
  } else {
    SS_COVER("extent_manager.bug7_stale_tracker");
  }
  // The volatile image retains old contents, as a physical reset would.
  Dependency dep = marker.And(zero);
  state.last_reset_dep = dep;
  return dep;
}

bool ExtentManager::ResetSettled(ExtentId extent) const {
  LockGuard lock(mu_);
  if (extent >= extents_.size()) {
    return false;
  }
  return extents_[extent].last_reset_dep.IsPersistent();
}

Result<ExtentId> ExtentManager::ClaimExtent(ExtentOwner owner) {
  LockGuard lock(mu_);
  const DiskGeometry& geo = disk_->geometry();
  for (ExtentId e = 1; e < geo.extent_count; ++e) {
    ExtentState& state = extents_[e];
    if (state.owner == ExtentOwner::kFree) {
      if (state.wp != 0) {
        // A free extent with a nonzero write pointer holds stale data from a previous
        // life (unreachable in correct execution: data never persists before its
        // ownership record, so a crash cannot leave owned data on an unowned extent).
        // Claiming resets it — which is what destroys persisted-but-unowned data when
        // the ownership dependency was wrong (seeded bug #6).
        SS_COVER("extent_manager.claim_resets_stale_extent");
        ResetLocked(e, Dependency());
      }
      state.owner = owner;
      Dependency dep = scheduler_->EnqueueOwnership(e, owner, {});
      state.ownership_dep = dep;
      return e;
    }
  }
  return Status::ResourceExhausted("no free extents");
}

uint32_t ExtentManager::WritePointer(ExtentId extent) const {
  LockGuard lock(mu_);
  return extent < extents_.size() ? extents_[extent].wp : 0;
}

ExtentOwner ExtentManager::Owner(ExtentId extent) const {
  LockGuard lock(mu_);
  return extent < extents_.size() ? extents_[extent].owner : ExtentOwner::kFree;
}

uint32_t ExtentManager::PagesFree(ExtentId extent) const {
  LockGuard lock(mu_);
  if (extent == 0 || extent >= extents_.size()) {
    return 0;
  }
  return disk_->geometry().pages_per_extent - extents_[extent].wp;
}

std::vector<ExtentId> ExtentManager::ExtentsOwnedBy(ExtentOwner owner) const {
  LockGuard lock(mu_);
  std::vector<ExtentId> out;
  for (ExtentId e = 1; e < extents_.size(); ++e) {
    if (extents_[e].owner == owner) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace ss
