#include "src/lsm/lsm_index.h"

#include <algorithm>

#include "src/chunk/chunk_format.h"
#include "src/common/cover.h"
#include "src/faults/faults.h"

namespace ss {

namespace {
// Run chunk payload format:
//   v1 (historic): [count u32][entries]
//   v2: [format u8][min_key u64][max_key u64][bloom][count u32][entries]
// The v2 header is the run's read-path pruning metadata; it is decoded without reading
// the entries on recovery (LoadRun returns both, callers use what they need).
constexpr uint8_t kRunFormatVersion = 2;
// Serialized header bytes excluding the bloom filter: format + min + max + count.
constexpr size_t kRunHeaderBaseBytes = 1 + 8 + 8 + 4;
// Seeds the uuids of the index's metadata chunks.
constexpr uint64_t kMetaUuidSeed = 0x1e7a;
}  // namespace

void SerializeShardRecord(const ShardRecord& record, Writer& w) {
  w.PutU64(record.total_bytes);
  w.PutU32(static_cast<uint32_t>(record.chunks.size()));
  for (const Locator& loc : record.chunks) {
    SerializeLocator(loc, w);
  }
}

Result<ShardRecord> DeserializeShardRecord(Reader& r) {
  ShardRecord record;
  SS_ASSIGN_OR_RETURN(record.total_bytes, r.GetU64());
  SS_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  if (uint64_t{count} * 16 > r.remaining()) {
    return Status::Corruption("shard record: chunk count exceeds input");
  }
  record.chunks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SS_ASSIGN_OR_RETURN(Locator loc, DeserializeLocator(r));
    record.chunks.push_back(loc);
  }
  return record;
}

LsmIndex::LsmIndex(ExtentManager* extents, ChunkStore* chunks, LsmOptions options,
                   MetricRegistry* metrics)
    : extents_(extents), chunks_(chunks), options_(options), meta_rng_(kMetaUuidSeed) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  puts_ = &metrics->counter("lsm.puts");
  deletes_ = &metrics->counter("lsm.deletes");
  gets_ = &metrics->counter("lsm.gets");
  scans_ = &metrics->counter("lsm.scans");
  scan_items_ = &metrics->counter("lsm.scan.items");
  flushes_ = &metrics->counter("lsm.flushes");
  compactions_ = &metrics->counter("lsm.compactions");
  level_compactions_ = &metrics->counter("lsm.level_compactions");
  tombstones_dropped_ = &metrics->counter("lsm.tombstones_dropped");
  metadata_writes_ = &metrics->counter("lsm.metadata_writes");
  batch_applies_ = &metrics->counter("lsm.batch.applies");
  batch_items_ = &metrics->counter("lsm.batch.items");
  bloom_hits_ = &metrics->counter("lsm.bloom.hit");
  bloom_misses_ = &metrics->counter("lsm.bloom.miss");
  bloom_false_positives_ = &metrics->counter("lsm.bloom.false_positive");
}

Result<std::unique_ptr<LsmIndex>> LsmIndex::Open(ExtentManager* extents, ChunkStore* chunks,
                                                 LsmOptions options, MetricRegistry* metrics) {
  std::unique_ptr<LsmIndex> index(new LsmIndex(extents, chunks, options, metrics));
  std::vector<ExtentId> meta = extents->ExtentsOwnedBy(ExtentOwner::kLsmMetadata);
  if (meta.size() > 2) {
    return Status::Corruption("more than two LSM metadata extents");
  }
  // Formatting is idempotent so it is crash-safe: a crash may persist zero, one, or two
  // of the metadata-extent ownership records, and recovery simply claims the missing
  // ones (any records on the surviving extents remain valid).
  while (meta.size() < 2) {
    SS_ASSIGN_OR_RETURN(ExtentId claimed, extents->ClaimExtent(ExtentOwner::kLsmMetadata));
    meta.push_back(claimed);
  }
  index->meta_extents_[0] = meta[0];
  index->meta_extents_[1] = meta[1];
  if (extents->WritePointer(meta[0]) == 0 && extents->WritePointer(meta[1]) == 0) {
    return index;  // nothing written yet: fresh (or crashed-before-first-flush) state
  }

  // Recovery: scan both metadata extents for framed records; adopt the highest version.
  bool found = false;
  uint64_t best_version = 0;
  for (int m = 0; m < 2; ++m) {
    const ExtentId e = index->meta_extents_[m];
    const uint32_t wp = extents->WritePointer(e);
    uint32_t page = 0;
    while (page < wp) {
      auto head_or = extents->Read(e, page, 1);
      if (!head_or.ok()) {
        return head_or.status();
      }
      auto header_or = ParseChunkHeader(head_or.value());
      if (!header_or.ok()) {
        ++page;
        continue;
      }
      const uint32_t frame_pages = extents->PagesNeeded(ChunkFrameBytes(header_or.value().payload_len));
      if (uint64_t{page} + frame_pages > wp) {
        ++page;
        continue;
      }
      auto full_or = extents->Read(e, page, frame_pages);
      if (!full_or.ok()) {
        return full_or.status();
      }
      auto payload_or = DecodeChunkFrame(
          ByteSpan(full_or.value().data(), ChunkFrameBytes(header_or.value().payload_len)));
      if (!payload_or.ok()) {
        ++page;
        continue;
      }
      // Parse the metadata record.
      Reader r(payload_or.value());
      auto version_or = r.GetU64();
      auto seq_or = r.GetU64();
      auto count_or = r.GetU32();
      if (version_or.ok() && seq_or.ok() && count_or.ok()) {
        std::vector<std::pair<Locator, int>> run_locs;
        bool parse_ok = true;
        for (uint32_t i = 0; i < count_or.value(); ++i) {
          auto loc_or = DeserializeLocator(r);
          if (!loc_or.ok()) {
            parse_ok = false;
            break;
          }
          auto level_or = r.GetU8();
          if (!level_or.ok()) {
            parse_ok = false;
            break;
          }
          run_locs.push_back({loc_or.value(), static_cast<int>(level_or.value())});
        }
        if (parse_ok && (!found || version_or.value() > best_version)) {
          found = true;
          best_version = version_or.value();
          index->version_ = version_or.value();
          index->next_seq_ = seq_or.value();
          index->runs_.clear();
          for (const auto& [loc, level] : run_locs) {
            // Recovered runs are durable by definition.
            index->runs_.push_back(RunRef{loc, Dependency(), level, nullptr});
          }
          index->active_meta_ = m;
        }
      }
      page += frame_pages;
    }
  }
  // Rebuild each recovered run's pruning filter from its chunk header. Best effort: a
  // run whose chunk cannot be read right now keeps a null filter (lookups fall back to
  // reading the chunk), so recovery itself never fails on the rebuild.
  for (RunRef& run : index->runs_) {
    auto run_or = index->LoadRun(run.loc);
    if (run_or.ok()) {
      run.filter = run_or.value().filter;
    }
  }
  SS_COVER(found ? "lsm.recover_with_metadata" : "lsm.recover_empty");
  return index;
}

LsmInsertResult LsmIndex::Insert(std::vector<LsmBatchItem> items, const SpanScope& scope) {
  LsmInsertResult result;
  if (items.empty()) {
    return result;
  }
  result.deps.reserve(items.size());
  Dependency promise = Dependency::MakePromise();
  bool want_flush = false;
  {
    Span span = scope.Child("lsm.insert");
    LockGuard lock(mu_);
    if (items.size() > 1) {
      batch_applies_->Increment();
      batch_items_->Increment(items.size());
    }
    for (LsmBatchItem& item : items) {
      (item.record.has_value() ? puts_ : deletes_)->Increment();
      Entry entry;
      entry.value = std::move(item.record);
      entry.data_dep = item.data_dep;
      entry.seq = next_seq_++;
      memtable_[item.id] = std::move(entry);
      result.deps.push_back(promise.And(item.data_dep));
    }
    // One promise at the group's highest sequence: the covering metadata flush
    // snapshots the whole memtable under mu_, so all of the group's entries — inserted
    // atomically above — resolve together at that single barrier.
    pending_promises_.push_back({next_seq_ - 1, promise});
    api_dirty_ = true;
    want_flush = memtable_.size() >= options_.memtable_flush_entries;
  }
  if (want_flush) {
    (void)Flush(scope);
    result.flushed = true;
  }
  return result;
}

LsmIndex::BuiltRun LsmIndex::BuildRun(const RunMap& entries) {
  auto filter = std::make_shared<RunFilter>();
  filter->bloom = BloomFilter::ForKeys(entries.size());
  if (!entries.empty()) {
    filter->min_key = entries.begin()->first;
    filter->max_key = entries.rbegin()->first;
  }
  for (const auto& [id, value] : entries) {
    filter->bloom.Add(id);
  }
  Writer w;
  w.PutU8(kRunFormatVersion);
  w.PutU64(filter->min_key);
  w.PutU64(filter->max_key);
  filter->bloom.Serialize(w);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [id, value] : entries) {
    w.PutU64(id);
    w.PutU8(value.has_value() ? 1 : 0);
    if (value.has_value()) {
      SerializeShardRecord(*value, w);
    }
  }
  return BuiltRun{std::move(w).Take(), std::move(filter)};
}

Result<LsmIndex::LoadedRun> LsmIndex::DeserializeRun(ByteSpan payload) {
  Reader r(payload);
  SS_ASSIGN_OR_RETURN(uint8_t format, r.GetU8());
  if (format != kRunFormatVersion) {
    return Status::Corruption("run: unknown format version");
  }
  auto filter = std::make_shared<RunFilter>();
  SS_ASSIGN_OR_RETURN(filter->min_key, r.GetU64());
  SS_ASSIGN_OR_RETURN(filter->max_key, r.GetU64());
  SS_ASSIGN_OR_RETURN(filter->bloom, BloomFilter::Deserialize(r));
  SS_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  if (uint64_t{count} * 9 > r.remaining()) {
    return Status::Corruption("run: entry count exceeds input");
  }
  LoadedRun run;
  for (uint32_t i = 0; i < count; ++i) {
    SS_ASSIGN_OR_RETURN(ShardId id, r.GetU64());
    SS_ASSIGN_OR_RETURN(uint8_t live, r.GetU8());
    if (live != 0) {
      SS_ASSIGN_OR_RETURN(ShardRecord record, DeserializeShardRecord(r));
      run.entries[id] = std::move(record);
    } else {
      run.entries[id] = std::nullopt;
    }
  }
  run.filter = std::move(filter);
  return run;
}

Result<LsmIndex::LoadedRun> LsmIndex::LoadRun(const Locator& loc, const SpanScope& scope) {
  SS_ASSIGN_OR_RETURN(Bytes payload, chunks_->Get(loc, scope));
  return DeserializeRun(payload);
}

Result<std::optional<ShardRecord>> LsmIndex::Get(ShardId id, const SpanScope& scope) {
  Span span = scope.Child("lsm.lookup");
  const SpanScope child_scope = span.scope();
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<std::pair<Locator, std::shared_ptr<const RunFilter>>> runs_snapshot;
    {
      LockGuard lock(mu_);
      gets_->Increment();
      auto it = memtable_.find(id);
      if (it != memtable_.end()) {
        return it->second.value;
      }
      for (const RunRef& run : runs_) {
        runs_snapshot.push_back({run.loc, run.filter});
      }
    }
    bool retry = false;
    for (auto rit = runs_snapshot.rbegin(); rit != runs_snapshot.rend(); ++rit) {
      const auto& [loc, filter] = *rit;
      if (filter != nullptr && !filter->MayContainKey(id)) {
        // Definitely not in this run: the chunk read is skipped entirely.
        bloom_misses_->Increment();
        continue;
      }
      auto run_or = LoadRun(loc, child_scope);
      if (!run_or.ok()) {
        // A concurrent compaction/reclamation may have invalidated the snapshot;
        // re-snapshot and retry.
        last_error = run_or.status();
        retry = true;
        break;
      }
      auto it = run_or.value().entries.find(id);
      if (it != run_or.value().entries.end()) {
        if (filter != nullptr) {
          bloom_hits_->Increment();
        }
        return it->second;
      }
      if (filter != nullptr) {
        bloom_false_positives_->Increment();
      }
    }
    if (!retry) {
      return std::optional<ShardRecord>(std::nullopt);
    }
    YieldThread();
  }
  span.set_status(last_error.code());
  return last_error;
}

Result<std::vector<LsmScanItem>> LsmIndex::Scan(ShardId start, ShardId end,
                                                const SpanScope& scope) {
  Span span = scope.Child("lsm.scan");
  scans_->Increment();
  if (start >= end) {
    return std::vector<LsmScanItem>{};  // empty window
  }
  auto items_or = LiveView(start, end - 1, span.scope());
  if (!items_or.ok()) {
    span.set_status(items_or.code());
    return items_or.status();
  }
  scan_items_->Increment(items_or.value().size());
  return items_or;
}

Result<std::vector<ShardId>> LsmIndex::Keys() {
  SS_ASSIGN_OR_RETURN(std::vector<LsmScanItem> items, LiveView(0, UINT64_MAX, {}));
  std::vector<ShardId> out;
  out.reserve(items.size());
  for (const LsmScanItem& item : items) {
    out.push_back(item.id);
  }
  return out;
}

Result<std::vector<LsmScanItem>> LsmIndex::LiveView(ShardId first, ShardId last,
                                                    const SpanScope& scope,
                                                    const LiveStop& stop) {
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<std::pair<Locator, std::shared_ptr<const RunFilter>>> runs_snapshot;
    RunMap memtable_slice;
    {
      LockGuard lock(mu_);
      for (const RunRef& run : runs_) {
        runs_snapshot.push_back({run.loc, run.filter});
      }
      for (auto it = memtable_.lower_bound(first); it != memtable_.end() && it->first <= last;
           ++it) {
        memtable_slice.emplace_hint(memtable_slice.end(), it->first, it->second.value);
      }
    }
    // Newest source first, so a key's first entry is its newest and shadows the rest
    // (tombstones included: they are kept here and suppress the key at the end).
    std::map<ShardId, std::optional<ShardRecord>> newest;
    auto take = [&](RunMap& entries) {
      for (auto it = entries.lower_bound(first); it != entries.end() && it->first <= last;
           ++it) {
        auto [slot, fresh] = newest.try_emplace(it->first, std::move(it->second));
        if (fresh && slot->second.has_value() && stop != nullptr &&
            stop(slot->first, *slot->second)) {
          return true;
        }
      }
      return false;
    };
    bool stopped = take(memtable_slice);
    bool retry = false;
    for (auto rit = runs_snapshot.rbegin(); !stopped && rit != runs_snapshot.rend(); ++rit) {
      const auto& [loc, filter] = *rit;
      if (filter != nullptr && !filter->OverlapsRange(first, last)) {
        continue;  // the run's key range misses the window: no chunk read
      }
      auto run_or = LoadRun(loc, scope);
      if (!run_or.ok()) {
        last_error = run_or.status();
        retry = true;
        break;
      }
      stopped = take(run_or.value().entries);
    }
    if (retry) {
      YieldThread();
      continue;
    }
    std::vector<LsmScanItem> out;
    for (auto& [id, value] : newest) {
      if (value.has_value()) {
        out.push_back(LsmScanItem{id, std::move(*value)});
      }
    }
    return out;
  }
  return last_error;
}

Result<Dependency> LsmIndex::WriteMetadataLocked(Dependency input, const SpanScope& scope) {
  ++version_;
  Writer w;
  w.PutU64(version_);
  w.PutU64(next_seq_);
  w.PutU32(static_cast<uint32_t>(runs_.size()));
  // The record must not reach the disk before every run chunk it references is durable;
  // gating only on the newest change is unsound because the two metadata extents do not
  // share a FIFO ordering across the ping-pong switch.
  for (const RunRef& run : runs_) {
    SerializeLocator(run.loc, w);
    w.PutU8(static_cast<uint8_t>(std::min(run.level, 255)));
    input = input.And(run.dep);
  }
  Bytes frame = EncodeChunkFrame(w.bytes(), Uuid::Random(meta_rng_));
  const uint32_t pages = extents_->PagesNeeded(frame.size());

  ExtentId target = meta_extents_[active_meta_];
  if (extents_->PagesFree(target) < pages) {
    // Ping-pong: write the record to the other extent, then reset this one once the
    // new record is durable.
    const ExtentId full = target;
    target = meta_extents_[1 - active_meta_];
    auto appended_or = extents_->Append(target, frame, input, scope);
    if (!appended_or.ok()) {
      // Nothing reached the disk: give the version number back so callers that roll
      // their state back (compaction) leave the index exactly as it was.
      --version_;
      return appended_or.status();
    }
    const AppendResult appended = appended_or.value();
    extents_->Reset(full, appended.dep);
    active_meta_ = 1 - active_meta_;
    metadata_writes_->Increment();
    last_meta_dep_ = appended.dep;
    api_dirty_ = false;
    internal_dirty_ = false;
    return appended.dep;
  }
  auto appended_or = extents_->Append(target, frame, input, scope);
  if (!appended_or.ok()) {
    --version_;
    return appended_or.status();
  }
  const AppendResult appended = appended_or.value();
  metadata_writes_->Increment();
  last_meta_dep_ = appended.dep;
  api_dirty_ = false;
  internal_dirty_ = false;
  return appended.dep;
}

void LsmIndex::ResolvePromisesLocked(uint64_t max_seq, const Dependency& meta_dep) {
  auto it = pending_promises_.begin();
  while (it != pending_promises_.end()) {
    if (it->first <= max_seq) {
      it->second.ResolvePromise(meta_dep);
      it = pending_promises_.erase(it);
    } else {
      ++it;
    }
  }
}

Status LsmIndex::Flush(const SpanScope& scope) {
  Span span = scope.Child("lsm.flush");
  LockGuard flush_lock(flush_mu_);
  Status status = FlushLocked(span.scope());
  if (status.ok() && options_.level0_compaction_trigger > 0) {
    MaybeCompactLevelsLocked(span.scope());
  }
  span.set_status(status.code());
  return status;
}

std::vector<LsmIndex::RunMap> LsmIndex::PartitionRun(const RunMap& entries,
                                                     size_t max_payload) {
  // Split a run into segments whose serialized form — header, bloom filter, and
  // entries — fits one chunk each. A segment always accepts at least one entry (a
  // single oversized entry is a configuration error caught by the chunk store).
  std::vector<RunMap> segments;
  RunMap current;
  size_t entry_bytes_sum = 0;
  auto projected_bytes = [](size_t count, size_t entry_sum) {
    return kRunHeaderBaseBytes + BloomFilter::SerializedBytesForKeys(count) + entry_sum;
  };
  for (const auto& [id, value] : entries) {
    size_t entry_bytes = 8 + 1;
    if (value.has_value()) {
      entry_bytes += 8 + 4 + value->chunks.size() * 16;
    }
    if (!current.empty() &&
        projected_bytes(current.size() + 1, entry_bytes_sum + entry_bytes) > max_payload) {
      segments.push_back(std::move(current));
      current = RunMap{};
      entry_bytes_sum = 0;
    }
    current[id] = value;
    entry_bytes_sum += entry_bytes;
  }
  if (!current.empty()) {
    segments.push_back(std::move(current));
  }
  return segments;
}

Status LsmIndex::WriteRun(const RunMap& entries, const Dependency& input, int level,
                          const SpanScope& scope, const RunCommit& commit) {
  // A run larger than the chunk store's max payload is split into segments. Put pins
  // each destination extent; the pins are held until the metadata references the runs.
  // Seeded bug #14 releases them immediately, reproducing the flush/compaction-vs-
  // reclamation race.
  const bool early_unpin = BugEnabled(SeededBug::kCompactReclaimMetadataRace);
  std::vector<ChunkPutResult> puts;
  std::vector<std::shared_ptr<const RunFilter>> filters;
  Status status = Status::Ok();
  for (const RunMap& segment : PartitionRun(entries, chunks_->max_payload_bytes())) {
    BuiltRun built = BuildRun(segment);
    auto put_or = chunks_->Put(std::move(built.payload), input, scope);
    if (!put_or.ok()) {
      status = put_or.status();
      break;
    }
    puts.push_back(put_or.value());
    filters.push_back(std::move(built.filter));
    if (early_unpin) {
      SS_COVER("lsm.bug14_early_unpin");
      chunks_->Unpin(put_or.value().locator.extent);
    }
  }
  if (status.ok()) {
    YieldThread();  // the preemption window behind bug #14 (paper's issue example)
    LockGuard lock(mu_);
    std::vector<RunRef> fresh;
    Dependency runs_dep;
    for (size_t i = 0; i < puts.size(); ++i) {
      fresh.push_back(RunRef{puts[i].locator, puts[i].dep, level, filters[i]});
      runs_dep = runs_dep.And(puts[i].dep);
    }
    status = commit(std::move(fresh), runs_dep);
  }
  if (!early_unpin) {
    for (const ChunkPutResult& put : puts) {
      chunks_->Unpin(put.locator.extent);
    }
  }
  return status;
}

Status LsmIndex::FlushLocked(const SpanScope& scope) {
  RunMap entries;
  std::vector<Dependency> data_deps;
  uint64_t max_seq = 0;
  {
    LockGuard lock(mu_);
    if (memtable_.empty()) {
      return Status::Ok();
    }
    for (const auto& [id, entry] : memtable_) {
      entries[id] = entry.value;
      data_deps.push_back(entry.data_dep);
      max_seq = std::max(max_seq, entry.seq);
    }
  }
  // No run chunk may persist before the data its entries point to (Figure 2's
  // ordering), hence the input dependency.
  return WriteRun(entries, Dependency::AndAll(data_deps), /*level=*/0, scope,
                  [&](std::vector<RunRef> fresh, const Dependency& runs_dep) {
                    runs_.insert(runs_.end(), fresh.begin(), fresh.end());
                    auto meta_or = WriteMetadataLocked(runs_dep, scope);
                    if (!meta_or.ok()) {
                      runs_.resize(runs_.size() - fresh.size());
                      return meta_or.status();
                    }
                    flushes_->Increment();
                    ResolvePromisesLocked(max_seq, meta_or.value());
                    // Drop only the entries the run covers; concurrent overwrites stay.
                    std::erase_if(memtable_, [max_seq](const auto& item) {
                      return item.second.seq <= max_seq;
                    });
                    return Status::Ok();
                  });
}

Status LsmIndex::Compact() {
  LockGuard flush_lock(flush_mu_);
  return CompactInternal(std::nullopt, {});
}

Status LsmIndex::CompactLevel(int level, const SpanScope& scope) {
  if (level < 0) {
    return Status::InvalidArgument("compact: negative level");
  }
  Span span = scope.Child("lsm.compact_level");
  LockGuard flush_lock(flush_mu_);
  Status status = CompactInternal(level, span.scope());
  span.set_status(status.code());
  return status;
}

void LsmIndex::MaybeCompactLevelsLocked(const SpanScope& scope) {
  constexpr int kMaxLevels = 8;  // bounds the cascade; fanout^8 runs is out of reach
  size_t level0 = 0;
  {
    LockGuard lock(mu_);
    for (const RunRef& run : runs_) {
      level0 += run.level == 0 ? 1 : 0;
    }
  }
  if (level0 < options_.level0_compaction_trigger) {
    return;
  }
  // Best effort: a failed background merge surfaces through metrics and the next
  // explicit compaction, never through the flush that triggered it.
  if (!CompactInternal(0, scope).ok()) {
    return;
  }
  for (int level = 1; level < kMaxLevels; ++level) {
    size_t at_level = 0;
    {
      LockGuard lock(mu_);
      for (const RunRef& run : runs_) {
        at_level += run.level == level ? 1 : 0;
      }
    }
    if (at_level <= options_.level_fanout) {
      break;
    }
    if (!CompactInternal(level, scope).ok()) {
      return;
    }
  }
}

Status LsmIndex::CompactInternal(std::optional<int> level, const SpanScope& scope) {
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 3; ++attempt) {
    size_t begin = 0;
    size_t count = 0;
    int out_level = 1;
    bool bottom = false;
    std::vector<Locator> input_locs;
    Dependency runs_durable;
    {
      LockGuard lock(mu_);
      if (level.has_value()) {
        // Levels are non-increasing along the oldest-first run list, so the runs at
        // {level, level+1} form one contiguous block; everything before it is deeper.
        while (begin < runs_.size() && runs_[begin].level > *level + 1) {
          ++begin;
        }
        size_t end = begin;
        size_t at_level = 0;
        while (end < runs_.size() && runs_[end].level >= *level) {
          at_level += runs_[end].level == *level ? 1 : 0;
          ++end;
        }
        if (at_level == 0) {
          return Status::Ok();  // nothing to merge at this level
        }
        count = end - begin;
        out_level = *level + 1;
        // The tombstone lifetime rule: dropping is safe only when no run deeper than
        // the merge's output remains to resurrect an older version.
        bottom = begin == 0;
      } else {
        if (runs_.size() <= 1) {
          return Status::Ok();
        }
        count = runs_.size();
        out_level = std::max(1, runs_.front().level);  // full merge: output is the bottom
        bottom = true;
      }
      for (size_t i = begin; i < begin + count; ++i) {
        input_locs.push_back(runs_[i].loc);
        runs_durable = runs_durable.And(runs_[i].dep);
      }
      runs_durable = runs_durable.And(last_meta_dep_);
    }
    RunMap merged;
    Status load_error = Status::Ok();
    for (const Locator& loc : input_locs) {  // oldest -> newest
      auto run_or = LoadRun(loc, scope);
      if (!run_or.ok()) {
        load_error = run_or.status();
        break;
      }
      for (auto& [id, value] : run_or.value().entries) {
        merged[id] = std::move(value);
      }
    }
    if (!load_error.ok()) {
      // A stale snapshot (reclamation moved or truncated a run under us) can surface as
      // almost any code — InvalidArgument, NotFound, Corruption — so those get a fresh
      // snapshot and another attempt. Only a permanently failed disk aborts
      // immediately, instead of burning the remaining attempts against dead hardware.
      // No chunk has been written yet on this path, so there are no pins or orphans to
      // clean up.
      if (load_error.code() == StatusCode::kDiskFailed) {
        return load_error;
      }
      last_error = load_error;
      YieldThread();
      continue;
    }
    if (bottom || BugEnabled(SeededBug::kDropTombstonesAboveBottom)) {
      if (!bottom) {
        SS_COVER("lsm.seeded_tombstone_drop_above_bottom");
      }
      size_t dropped = 0;
      auto it = merged.begin();
      while (it != merged.end()) {
        if (!it->second.has_value()) {
          it = merged.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      tombstones_dropped_->Increment(dropped);
    }
    return WriteRun(
        merged, runs_durable, out_level, scope,
        [&](std::vector<RunRef> fresh, const Dependency& runs_dep) {
          // Membership and order of runs_ are stable while flush_mu_ is held
          // (relocations may rewrite a locator/dep in place, which the merged content
          // does not depend on), so the snapshot's [begin, begin+count) block is still
          // the merge's input.
          std::vector<RunRef> replaced(runs_.begin() + begin, runs_.begin() + begin + count);
          runs_.erase(runs_.begin() + begin, runs_.begin() + begin + count);
          runs_.insert(runs_.begin() + begin, fresh.begin(), fresh.end());
          auto meta_or = WriteMetadataLocked(runs_dep, scope);
          if (!meta_or.ok()) {
            // The new run list never persisted. Roll the in-memory list back to the
            // runs the durable metadata still references: keeping the unreferenced new
            // runs would let reclamation treat the OLD chunks as garbage while a
            // post-crash recovery still points at them — silent data loss.
            runs_.erase(runs_.begin() + begin, runs_.begin() + begin + fresh.size());
            runs_.insert(runs_.begin() + begin, replaced.begin(), replaced.end());
            return meta_or.status();
          }
          (level.has_value() ? level_compactions_ : compactions_)->Increment();
          return Status::Ok();
        });
  }
  return last_error;
}

bool LsmIndex::NeedsShutdownFlush() const {
  LockGuard lock(mu_);
  if (BugEnabled(SeededBug::kShutdownMetadataSkipAfterReset)) {
    // Buggy path: trusts the API-mutation flag, missing memtables that only contain
    // internal mutations (e.g. reclamation relocations after an extent reset).
    SS_COVER("lsm.bug3_shutdown_flag");
    return api_dirty_;
  }
  return !memtable_.empty() || api_dirty_ || internal_dirty_;
}

Result<std::optional<ChunkHolder>> LsmIndex::FindHolder(const Locator& loc) {
  {
    LockGuard lock(mu_);
    for (const RunRef& run : runs_) {
      if (run.loc == loc) {
        return std::optional<ChunkHolder>(ChunkHolder{kRunListHolder, 0});
      }
    }
  }
  // A chunk listed only by a superseded record (or a tombstoned shard) is garbage: the
  // live view holds each shard's newest entry alone.
  std::optional<ChunkHolder> holder;
  auto lists_loc = [&](ShardId id, const ShardRecord& record) {
    if (std::find(record.chunks.begin(), record.chunks.end(), loc) == record.chunks.end()) {
      return false;
    }
    holder = ChunkHolder{kShardHolder, id};
    return true;
  };
  SS_RETURN_IF_ERROR(LiveView(0, UINT64_MAX, {}, lists_loc).status());
  return holder;
}

Result<Dependency> LsmIndex::UpdateReference(const ChunkHolder& holder, const Locator& old_loc,
                                             const Locator& new_loc,
                                             const Dependency& new_dep) {
  if (holder.kind == kRunListHolder) {
    return RelocateRunChunk(old_loc, new_loc, new_dep);
  }
  return RelocateShardChunk(holder.id, old_loc, new_loc, new_dep);
}

Result<Dependency> LsmIndex::RelocateShardChunk(ShardId owner, const Locator& old_loc,
                                                const Locator& new_loc,
                                                const Dependency& new_dep) {
  SS_ASSIGN_OR_RETURN(std::optional<ShardRecord> record_opt, Get(owner));
  if (!record_opt.has_value()) {
    return Dependency();  // deleted concurrently: nothing to update
  }
  ShardRecord record = std::move(*record_opt);
  bool replaced = false;
  for (Locator& c : record.chunks) {
    if (c == old_loc) {
      c = new_loc;
      replaced = true;
    }
  }
  if (!replaced) {
    return Dependency();  // overwritten concurrently: the old chunk is garbage now
  }
  Dependency promise = Dependency::MakePromise();
  {
    LockGuard lock(mu_);
    // The Get above took its own hold, so a write to `owner` may have landed since. A
    // put never reuses `old_loc` (its extent is being reclaimed) and a delete drops it,
    // so a memtable entry that no longer lists it means the chunk is garbage now:
    // writing the relocated record would overwrite that newer write.
    auto it = memtable_.find(owner);
    if (it != memtable_.end() &&
        (!it->second.value.has_value() ||
         std::find(it->second.value->chunks.begin(), it->second.value->chunks.end(),
                   old_loc) == it->second.value->chunks.end())) {
      SS_COVER("lsm.relocate_shard_chunk_overwritten");
      return Dependency();
    }
    Entry entry;
    entry.value = std::move(record);
    entry.data_dep = new_dep;
    entry.seq = next_seq_++;
    pending_promises_.push_back({entry.seq, promise});
    memtable_[owner] = std::move(entry);
    internal_dirty_ = true;  // deliberately *not* api_dirty_ (see bug #3)
  }
  SS_COVER("lsm.relocate_shard_chunk");
  return promise;
}

Result<Dependency> LsmIndex::RelocateRunChunk(const Locator& old_loc, const Locator& new_loc,
                                              const Dependency& new_dep) {
  LockGuard lock(mu_);
  bool replaced = false;
  for (RunRef& run : runs_) {
    if (run.loc == old_loc) {
      run.loc = new_loc;
      run.dep = new_dep;  // the evacuated copy is what the metadata now references
      replaced = true;
    }
  }
  if (!replaced) {
    return Dependency();
  }
  SS_COVER("lsm.relocate_run_chunk");
  // The new run list must be durable before the old chunk's extent is reset; the new
  // metadata record is gated on the evacuated copy.
  return WriteMetadataLocked(new_dep);
}

Dependency LsmIndex::DropGate() {
  LockGuard lock(mu_);
  if (memtable_.empty()) {
    return last_meta_dep_;
  }
  Dependency promise = Dependency::MakePromise();
  pending_promises_.push_back({next_seq_ - 1, promise});
  return promise.And(last_meta_dep_);
}

size_t LsmIndex::MemtableEntries() const {
  LockGuard lock(mu_);
  return memtable_.size();
}

size_t LsmIndex::RunCount() const {
  LockGuard lock(mu_);
  return runs_.size();
}

size_t LsmIndex::RunCountAtLevel(int level) const {
  LockGuard lock(mu_);
  size_t count = 0;
  for (const RunRef& run : runs_) {
    count += run.level == level ? 1 : 0;
  }
  return count;
}

std::vector<int> LsmIndex::RunLevels() const {
  LockGuard lock(mu_);
  std::vector<int> out;
  out.reserve(runs_.size());
  for (const RunRef& run : runs_) {
    out.push_back(run.level);
  }
  return out;
}

uint64_t LsmIndex::MetadataVersion() const {
  LockGuard lock(mu_);
  return version_;
}

std::vector<Locator> LsmIndex::RunLocators() const {
  LockGuard lock(mu_);
  std::vector<Locator> out;
  out.reserve(runs_.size());
  for (const RunRef& run : runs_) {
    out.push_back(run.loc);
  }
  return out;
}

}  // namespace ss
