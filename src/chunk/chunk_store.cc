#include "src/chunk/chunk_store.h"

#include "src/common/cover.h"
#include "src/faults/faults.h"

namespace ss {

namespace {
// Seeds the uuids of the chunk frames the store writes.
constexpr uint64_t kUuidSeed = 0x5eed;
}  // namespace

ChunkStore::ChunkStore(ExtentManager* extents, BufferCache* cache, ChunkStoreOptions options,
                       MetricRegistry* metrics)
    : extents_(extents), cache_(cache), options_(options), uuid_rng_(kUuidSeed) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  puts_ = &metrics->counter("chunk.puts");
  gets_ = &metrics->counter("chunk.gets");
  reclaims_ = &metrics->counter("chunk.reclaims");
  chunks_evacuated_ = &metrics->counter("chunk.evacuated");
  chunks_dropped_ = &metrics->counter("chunk.dropped");
  corrupt_frames_skipped_ = &metrics->counter("chunk.corrupt_frames_skipped");
}

Result<ExtentId> ChunkStore::PickTargetLocked(uint32_t pages_needed,
                                              std::optional<ExtentId> exclude) {
  // 1. The active extent, if it still has room.
  if (active_.has_value() && active_ != exclude && reclaiming_.count(*active_) == 0 &&
      extents_->ResetSettled(*active_) && extents_->PagesFree(*active_) >= pages_needed) {
    return *active_;
  }
  // 2. Any owned extent with room (reclaimed extents have wp == 0 and are reused
  //    here). Extents mid-reclamation are never allocation targets, nor are extents
  //    whose reset has not yet reached the disk (reusing them early would queue new
  //    data behind a reset that may depend on that data's own future flush — a
  //    scheduling cycle). Pinned extents are fine: pins exclude reclamation, not
  //    appends.
  for (ExtentId e : extents_->ExtentsOwnedBy(ExtentOwner::kChunkData)) {
    if (exclude == e || reclaiming_.count(e) != 0 || !extents_->ResetSettled(e)) {
      continue;
    }
    if (extents_->PagesFree(e) >= pages_needed) {
      active_ = e;
      return e;
    }
  }
  // 3. Claim a fresh extent.
  SS_ASSIGN_OR_RETURN(ExtentId fresh, extents_->ClaimExtent(ExtentOwner::kChunkData));
  active_ = fresh;
  return fresh;
}

Result<ChunkPutResult> ChunkStore::PutInternal(ByteSpan data, Dependency input,
                                               std::optional<ExtentId> exclude,
                                               const SpanScope& scope,
                                               const ExtentManager::WriteBatch* batch) {
  Span span = scope.Child("chunk.write");
  const SpanScope child_scope = span.scope();
  if (data.size() > options_.max_payload_bytes) {
    span.set_status(StatusCode::kInvalidArgument);
    return Status::InvalidArgument("chunk payload too large");
  }
  Bytes frame;
  uint32_t pages_needed = 0;
  {
    LockGuard lock(mu_);
    frame = EncodeChunkFrame(data, Uuid::Random(uuid_rng_));
    pages_needed = extents_->PagesNeeded(frame.size());
    puts_->Increment();
  }

  if (BugEnabled(SeededBug::kLocatorInvalidOnWriteFlushRace)) {
    // Buggy path: the locator is computed from a write-pointer read taken *before* the
    // append, with a preemption window in between. A concurrent append to the same
    // extent makes the locator point at the wrong pages.
    ExtentId target = 0;
    uint32_t stale_wp = 0;
    {
      LockGuard lock(mu_);
      SS_ASSIGN_OR_RETURN(target, PickTargetLocked(pages_needed, exclude));
      ++pin_counts_[target];
      stale_wp = extents_->WritePointer(target);
    }
    YieldThread();
    auto appended_or = extents_->Append(target, frame, input, child_scope, batch);
    if (!appended_or.ok()) {
      Unpin(target);
      span.set_status(appended_or.code());
      return appended_or.status();
    }
    ChunkPutResult result;
    result.locator = Locator{target, stale_wp, appended_or.value().page_count,
                             static_cast<uint32_t>(frame.size())};
    result.dep = appended_or.value().dep;
    return result;
  }

  LockGuard lock(mu_);
  SS_ASSIGN_OR_RETURN(ExtentId target, PickTargetLocked(pages_needed, exclude));
  ++pin_counts_[target];
  auto appended_or = extents_->Append(target, frame, input, child_scope, batch);
  if (!appended_or.ok()) {
    if (--pin_counts_[target] == 0) {
      pin_counts_.erase(target);
    }
    span.set_status(appended_or.code());
    return appended_or.status();
  }
  const AppendResult& appended = appended_or.value();
  if (extents_->PagesFree(target) == 0 && active_ == target) {
    // A filled extent is sealed: it stops receiving appends and becomes eligible for
    // reclamation once its pins drop.
    active_.reset();
  }
  ChunkPutResult result;
  result.locator = Locator{target, appended.first_page, appended.page_count,
                           static_cast<uint32_t>(frame.size())};
  result.dep = appended.dep;
  return result;
}

Result<ChunkPutResult> ChunkStore::Put(ByteSpan data, Dependency input,
                                       const SpanScope& scope,
                                       const ExtentManager::WriteBatch* batch) {
  return PutInternal(data, input, std::nullopt, scope, batch);
}

void ChunkStore::Unpin(ExtentId extent) {
  LockGuard lock(mu_);
  auto it = pin_counts_.find(extent);
  if (it == pin_counts_.end()) {
    return;
  }
  if (--it->second == 0) {
    pin_counts_.erase(it);
  }
}

Result<Bytes> ChunkStore::Get(const Locator& loc, const SpanScope& scope) {
  Span span = scope.Child("chunk.read");
  const SpanScope child_scope = span.scope();
  {
    LockGuard lock(mu_);
    gets_->Increment();
  }
  if (loc.frame_bytes < kChunkOverheadBytes ||
      loc.page_count != extents_->PagesNeeded(loc.frame_bytes)) {
    span.set_status(StatusCode::kCorruption);
    return Status::Corruption("locator inconsistent with frame size");
  }
  auto raw_or = cache_->ReadPages(loc.extent, loc.first_page, loc.page_count, child_scope);
  if (!raw_or.ok()) {
    span.set_status(raw_or.code());
    return raw_or.status();
  }
  const Bytes& raw = raw_or.value();
  if (loc.frame_bytes > raw.size()) {
    span.set_status(StatusCode::kCorruption);
    return Status::Corruption("locator frame larger than page span");
  }
  auto payload_or = DecodeChunkFrame(ByteSpan(raw.data(), loc.frame_bytes));
  if (!payload_or.ok()) {
    span.set_status(payload_or.code());
    return payload_or.status();
  }
  Bytes payload = std::move(payload_or).value();
  if (ChunkFrameBytes(payload.size()) != loc.frame_bytes) {
    span.set_status(StatusCode::kCorruption);
    return Status::Corruption("frame length disagrees with locator");
  }
  return payload;
}

Result<std::vector<ChunkStore::ScannedChunk>> ChunkStore::ScanExtent(ExtentId extent) {
  const uint32_t page_size = extents_->geometry().page_size;
  const uint32_t wp = extents_->WritePointer(extent);
  std::vector<ScannedChunk> found;
  uint32_t page = 0;
  while (page < wp) {
    auto head_or = cache_->ReadPages(extent, page, 1);
    if (!head_or.ok()) {
      if (head_or.code() == StatusCode::kIoError &&
          BugEnabled(SeededBug::kReclaimForgetsChunkOnReadError)) {
        // Buggy path: a transient read error makes the scan silently skip the page, so
        // any chunk that starts here is forgotten (and later destroyed by the reset).
        SS_COVER("chunk_store.bug5_skip_on_read_error");
        ++page;
        continue;
      }
      return head_or.status();  // correct: abort the reclaim, retry later
    }
    const Bytes& head = head_or.value();
    auto header_or = ParseChunkHeader(head);
    if (!header_or.ok()) {
      corrupt_frames_skipped_->Increment();
      ++page;
      continue;
    }
    const ChunkHeader& header = header_or.value();
    const size_t frame_bytes = ChunkFrameBytes(header.payload_len);
    const uint32_t frame_pages = extents_->PagesNeeded(frame_bytes);
    if (uint64_t{page} + frame_pages > wp) {
      corrupt_frames_skipped_->Increment();
      ++page;
      continue;
    }
    auto full_or = cache_->ReadPages(extent, page, frame_pages);
    if (!full_or.ok()) {
      if (full_or.code() == StatusCode::kIoError &&
          BugEnabled(SeededBug::kReclaimForgetsChunkOnReadError)) {
        SS_COVER("chunk_store.bug5_skip_on_read_error");
        ++page;
        continue;
      }
      return full_or.status();
    }
    const Bytes& full = full_or.value();

    // Validate trailer then CRC by hand so the seeded UUID-collision acceptance
    // (bug #10) has a precise injection point.
    ByteSpan trailer(full.data() + frame_bytes - kChunkTrailerBytes, kChunkTrailerBytes);
    bool trailer_ok = true;
    for (size_t i = 0; i < kChunkTrailerBytes; ++i) {
      if (trailer[i] != header.uuid.bytes[i]) {
        trailer_ok = false;
        break;
      }
    }
    bool accepted = false;
    Bytes payload;
    if (trailer_ok) {
      auto payload_or = DecodeChunkFrame(ByteSpan(full.data(), frame_bytes));
      if (payload_or.ok()) {
        payload = std::move(payload_or).value();
        accepted = true;
      }
    } else if (BugEnabled(SeededBug::kReclaimUuidCollision) &&
               trailer[0] == kChunkMagic0 && trailer[1] == kChunkMagic1) {
      // Buggy path: the trailing-UUID check is satisfied by bytes that merely *look
      // like* the start of a chunk (the magic), so a torn frame is accepted with its
      // claimed length and the scan strides over the live chunk that actually starts
      // inside that span (the paper's issue #10).
      SS_COVER("chunk_store.bug10_uuid_collision_accept");
      payload.assign(full.begin() + kChunkHeaderBytes,
                     full.begin() + static_cast<ptrdiff_t>(frame_bytes - kChunkTrailerBytes));
      accepted = true;
    }

    if (!accepted) {
      corrupt_frames_skipped_->Increment();
      ++page;
      continue;
    }

    found.push_back(ScannedChunk{
        Locator{extent, page, frame_pages, static_cast<uint32_t>(frame_bytes)},
        std::move(payload)});

    uint32_t advance = frame_pages;
    if (BugEnabled(SeededBug::kReclaimOffByOnePageSize)) {
      // Buggy path: classic off-by-one — when the frame ends exactly on a page
      // boundary the scan advances one page too far, skipping whatever starts there.
      advance = static_cast<uint32_t>((frame_bytes + page_size) / page_size);
      if (advance != frame_pages) {
        SS_COVER("chunk_store.bug1_overshoot");
      }
    }
    page += advance;
  }
  return found;
}

Status ChunkStore::Reclaim(ExtentId extent, ReclaimClient* client) {
  LockGuard reclaim_lock(reclaim_mu_);
  {
    LockGuard lock(mu_);
    if (extents_->Owner(extent) != ExtentOwner::kChunkData) {
      return Status::InvalidArgument("reclaim of extent not owned by chunk store");
    }
    if (pin_counts_.count(extent) != 0 || reclaiming_.count(extent) != 0) {
      return Status::Unavailable("extent is pinned or already being reclaimed");
    }
    reclaiming_.insert(extent);
    reclaims_->Increment();
  }
  // Ensure the reclamation marker is removed on every exit path. The lock acquisition
  // is fenced: under the model checker a poisoned teardown makes scheduling points
  // throw, and a destructor must never let that escape.
  struct ReclaimMarkGuard {
    ChunkStore* store;
    ExtentId extent;
    ~ReclaimMarkGuard() {
      try {
        LockGuard lock(store->mu_);
        store->reclaiming_.erase(extent);
      } catch (...) {
        // Model-checker teardown; the execution's state is being discarded anyway.
      }
    }
  } mark_guard{this, extent};

  SS_ASSIGN_OR_RETURN(std::vector<ScannedChunk> chunks, ScanExtent(extent));

  std::vector<Dependency> deps;
  bool dropped_any = false;
  for (ScannedChunk& chunk : chunks) {
    SS_ASSIGN_OR_RETURN(std::optional<ChunkHolder> holder, client->FindHolder(chunk.locator));
    if (!holder.has_value()) {
      dropped_any = true;
      LockGuard lock(mu_);
      chunks_dropped_->Increment();
      continue;
    }
    SS_COVER("chunk_store.evacuate");
    SS_ASSIGN_OR_RETURN(ChunkPutResult moved, PutInternal(chunk.payload, Dependency(), extent));
    auto update_or = client->UpdateReference(*holder, chunk.locator, moved.locator, moved.dep);
    Unpin(moved.locator.extent);
    if (!update_or.ok()) {
      return update_or.status();
    }
    deps.push_back(moved.dep);
    deps.push_back(update_or.value());
    LockGuard lock(mu_);
    chunks_evacuated_->Increment();
  }

  if (dropped_any) {
    // Space of dropped chunks may only be destroyed once the index state that
    // unreferenced them is durable (see ReclaimClient::DropGate).
    deps.push_back(client->DropGate());
  }
  // The reset — which makes everything on the extent unreadable — must not reach the
  // disk before the evacuated copies and their reference updates are durable.
  extents_->Reset(extent, Dependency::AndAll(deps));
  if (!BugEnabled(SeededBug::kCacheNotDrainedOnReset)) {
    cache_->DrainExtent(extent);
  } else {
    SS_COVER("chunk_store.bug2_skip_drain");
  }
  return Status::Ok();
}

std::vector<ExtentId> ChunkStore::ReclaimableExtents() const {
  LockGuard lock(mu_);
  std::vector<ExtentId> out;
  for (ExtentId e : extents_->ExtentsOwnedBy(ExtentOwner::kChunkData)) {
    if (active_ == e || pin_counts_.count(e) != 0 || reclaiming_.count(e) != 0) {
      continue;
    }
    if (extents_->WritePointer(e) > 0) {
      out.push_back(e);
    }
  }
  return out;
}

const MetricRegistry& ChunkStore::metrics() const { return *metrics_; }

}  // namespace ss
