#include "src/kv/shard_store.h"

#include "src/common/cover.h"

namespace ss {

ShardStore::ShardStore(Disk* disk, ShardStoreOptions options)
    : disk_(disk), options_(options) {
  metrics_ = std::make_unique<MetricRegistry>();
  scheduler_ = std::make_unique<IoScheduler>(disk_, metrics_.get());
  extents_ = std::make_unique<ExtentManager>(disk_, scheduler_.get(), options_.buffer_permits,
                                             options_.retry, metrics_.get());
  cache_ = std::make_unique<BufferCache>(extents_.get(), options_.cache_pages, metrics_.get());
  chunks_ = std::make_unique<ChunkStore>(extents_.get(), cache_.get(), options_.chunk,
                                         metrics_.get());
  puts_ = &metrics_->counter("store.puts");
  gets_ = &metrics_->counter("store.gets");
  scans_ = &metrics_->counter("store.scans");
  deletes_ = &metrics_->counter("store.deletes");
  reclaims_ = &metrics_->counter("store.reclaims");
  batch_applies_ = &metrics_->counter("store.batch.applies");
  batch_items_ = &metrics_->counter("store.batch.items");
  batch_flushes_ = &metrics_->counter("store.batch.flushes");
}

Result<std::unique_ptr<ShardStore>> ShardStore::Open(Disk* disk,
                                                     ShardStoreOptions options) {
  std::unique_ptr<ShardStore> store(new ShardStore(disk, options));
  SS_ASSIGN_OR_RETURN(store->index_,
                      LsmIndex::Open(store->extents_.get(), store->chunks_.get(), options.lsm,
                                     store->metrics_.get()));
  disk->BumpEpoch();
  return store;
}

Result<Dependency> ShardStore::Put(ShardId id, ByteSpan value, const SpanScope& scope) {
  Span span = scope.Child("store.put");
  const SpanScope child_scope = span.scope();
  puts_->Increment();
  const size_t max_payload = chunks_->max_payload_bytes();
  if (value.size() > max_payload * options_.max_chunks_per_shard) {
    span.set_status(StatusCode::kInvalidArgument);
    return Status::InvalidArgument("shard value too large");
  }
  ShardRecord record;
  record.total_bytes = value.size();
  std::vector<Dependency> data_deps;
  for (size_t off = 0; off < value.size(); off += max_payload) {
    const size_t len = std::min(max_payload, value.size() - off);
    auto chunk_or = chunks_->Put(value.subspan(off, len), Dependency(), child_scope);
    if (!chunk_or.ok()) {
      // Unpin the chunks already written; they are unreferenced garbage now and will
      // be reclaimed.
      for (const Locator& loc : record.chunks) {
        chunks_->Unpin(loc.extent);
      }
      span.set_status(chunk_or.code());
      return chunk_or.status();
    }
    record.chunks.push_back(chunk_or.value().locator);
    data_deps.push_back(chunk_or.value().dep);
  }
  std::vector<Locator> pinned = record.chunks;
  // A put is durable once the shard data and the index entry pointing at it are
  // (Figure 2): the index promise already implies the data, but we AND explicitly to
  // mirror the paper's dependency graph shape.
  Dependency data = Dependency::AndAll(data_deps);
  Dependency dep = index_->Put(id, std::move(record), data, child_scope).And(data);
  // The index now references the chunks; release their reclamation pins.
  for (const Locator& loc : pinned) {
    chunks_->Unpin(loc.extent);
  }
  return dep;
}

StoreBatchResult ShardStore::ApplyBatch(const std::vector<StoreBatchItem>& items,
                                        const SpanScope& scope) {
  StoreBatchResult result;
  result.items.resize(items.size());
  if (items.empty()) {
    return result;
  }
  Span span = scope.Child("store.apply_batch");
  const SpanScope child_scope = span.scope();
  LockGuard batch_lock(batch_mu_);
  batch_applies_->Increment();
  batch_items_->Increment(items.size());
  const size_t max_payload = chunks_->max_payload_bytes();

  // Stage every item's chunk writes inside one write-batch scope: appends to the same
  // extent coalesce into multi-page IO units and share one deferred soft-pointer
  // update. Items fail independently — a failed item's partial chunks are unpinned
  // (unreferenced garbage, reclaimed later) and the rest of the batch proceeds.
  struct Staged {
    size_t index = 0;
    LsmBatchItem lsm;
    std::vector<Locator> pinned;
  };
  std::vector<Staged> staged;
  staged.reserve(items.size());
  extents_->BeginWriteBatch();
  for (size_t i = 0; i < items.size(); ++i) {
    const StoreBatchItem& item = items[i];
    Staged s;
    s.index = i;
    s.lsm.id = item.id;
    if (!item.value.has_value()) {
      deletes_->Increment();
      staged.push_back(std::move(s));
      continue;
    }
    puts_->Increment();
    if (item.value->size() > max_payload * options_.max_chunks_per_shard) {
      result.items[i].status = Status::InvalidArgument("shard value too large");
      continue;
    }
    ShardRecord record;
    record.total_bytes = item.value->size();
    std::vector<Dependency> data_deps;
    Status status = Status::Ok();
    ByteSpan value(*item.value);
    for (size_t off = 0; off < value.size(); off += max_payload) {
      const size_t len = std::min(max_payload, value.size() - off);
      auto chunk_or = chunks_->Put(value.subspan(off, len), Dependency(), child_scope);
      if (!chunk_or.ok()) {
        status = chunk_or.status();
        break;
      }
      record.chunks.push_back(chunk_or.value().locator);
      data_deps.push_back(chunk_or.value().dep);
    }
    if (!status.ok()) {
      for (const Locator& loc : record.chunks) {
        chunks_->Unpin(loc.extent);
      }
      result.items[i].status = status;
      continue;
    }
    s.pinned = record.chunks;
    s.lsm.data_dep = Dependency::AndAll(data_deps);
    s.lsm.record = std::move(record);
    staged.push_back(std::move(s));
  }

  // Commit: one LSM batch insert — all items land in the same memtable generation and
  // resolve at one shared metadata barrier. The extent batch scope must close before
  // any flush so the deferred soft-pointer promises are resolved by the time the
  // metadata append depends on them.
  std::vector<LsmBatchItem> lsm_items;
  lsm_items.reserve(staged.size());
  for (Staged& s : staged) {
    lsm_items.push_back(std::move(s.lsm));
  }
  bool flush_wanted = false;
  std::vector<Dependency> deps =
      index_->ApplyBatch(std::move(lsm_items), &flush_wanted, child_scope);
  extents_->EndWriteBatch();
  std::vector<Dependency> ok_deps;
  for (size_t k = 0; k < staged.size(); ++k) {
    // Mirror Put: AND the item's data dependency explicitly (the promise implies it).
    Dependency dep = deps[k];
    result.items[staged[k].index].dep = dep;
    ok_deps.push_back(std::move(dep));
    for (const Locator& loc : staged[k].pinned) {
      chunks_->Unpin(loc.extent);
    }
  }
  result.dep = Dependency::AndAll(ok_deps);
  if (flush_wanted) {
    batch_flushes_->Increment();
    // Best-effort group flush, as in Put; errors surface on the next explicit flush.
    (void)index_->Flush(child_scope);
  }
  return result;
}

Result<Bytes> ShardStore::Get(ShardId id, const SpanScope& scope) {
  Span span = scope.Child("store.get");
  const SpanScope child_scope = span.scope();
  gets_->Increment();
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto record_or = index_->Get(id, child_scope);
    if (!record_or.ok()) {
      span.set_status(record_or.code());
      return record_or.status();
    }
    std::optional<ShardRecord> record = std::move(record_or).value();
    if (!record.has_value()) {
      span.set_status(StatusCode::kNotFound);
      return Status::NotFound("shard not found");
    }
    Bytes out;
    out.reserve(record->total_bytes);
    bool retry = false;
    for (const Locator& loc : record->chunks) {
      auto chunk_or = chunks_->Get(loc, child_scope);
      if (!chunk_or.ok()) {
        // A permanently failed extent cannot be read by trying again; surface it now
        // so the caller (and the health machinery above) can act on it.
        if (chunk_or.code() == StatusCode::kDiskFailed) {
          span.set_status(chunk_or.code());
          return chunk_or.status();
        }
        // A concurrent reclamation may have moved this chunk between the index lookup
        // and the read; refetch the record and try again. Persistent errors (injected
        // IO failures) surface after the retry budget.
        last_error = chunk_or.status();
        retry = true;
        break;
      }
      out.insert(out.end(), chunk_or.value().begin(), chunk_or.value().end());
    }
    if (retry) {
      YieldThread();
      continue;
    }
    if (out.size() != record->total_bytes) {
      span.set_status(StatusCode::kCorruption);
      return Status::Corruption("shard size mismatch across chunks");
    }
    return out;
  }
  SS_COVER("shard_store.get_retry_exhausted");
  span.set_status(last_error.code());
  return last_error;
}

Result<std::vector<ScanItem>> ShardStore::Scan(ShardId start, ShardId end,
                                               const SpanScope& scope) {
  Span span = scope.Child("store.scan");
  const SpanScope child_scope = span.scope();
  scans_->Increment();
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto items_or = index_->Scan(start, end, child_scope);
    if (!items_or.ok()) {
      span.set_status(items_or.code());
      return items_or.status();
    }
    std::vector<ScanItem> out;
    out.reserve(items_or.value().size());
    bool retry = false;
    for (const LsmScanItem& item : items_or.value()) {
      Bytes value;
      value.reserve(item.record.total_bytes);
      for (const Locator& loc : item.record.chunks) {
        auto chunk_or = chunks_->Get(loc, child_scope);
        if (!chunk_or.ok()) {
          // Same taxonomy as Get: a dead extent cannot be read by trying again, but a
          // chunk moved by concurrent reclamation can — rescan for the fresh locator.
          if (chunk_or.code() == StatusCode::kDiskFailed) {
            span.set_status(chunk_or.code());
            return chunk_or.status();
          }
          last_error = chunk_or.status();
          retry = true;
          break;
        }
        value.insert(value.end(), chunk_or.value().begin(), chunk_or.value().end());
      }
      if (retry) {
        break;
      }
      if (value.size() != item.record.total_bytes) {
        span.set_status(StatusCode::kCorruption);
        return Status::Corruption("shard size mismatch across chunks");
      }
      out.push_back(ScanItem{item.id, std::move(value)});
    }
    if (retry) {
      YieldThread();
      continue;
    }
    return out;
  }
  SS_COVER("shard_store.scan_retry_exhausted");
  span.set_status(last_error.code());
  return last_error;
}

Result<Dependency> ShardStore::Delete(ShardId id, const SpanScope& scope) {
  Span span = scope.Child("store.delete");
  deletes_->Increment();
  // Tombstone regardless of current existence: deleting a missing shard is a no-op
  // with a dependency that persists with the next metadata flush.
  return index_->Delete(id, span.scope());
}

Result<std::vector<ShardId>> ShardStore::List() { return index_->Keys(); }

Status ShardStore::ReclaimExtent(ExtentId extent) {
  reclaims_->Increment();
  return chunks_->Reclaim(extent, index_.get());
}

Status ShardStore::ReclaimAny() {
  std::vector<ExtentId> candidates = chunks_->ReclaimableExtents();
  if (candidates.empty()) {
    return Status::Ok();
  }
  Status status = ReclaimExtent(candidates.front());
  if (status.code() == StatusCode::kUnavailable) {
    return Status::Ok();  // raced with a pin; benign, retry later
  }
  return status;
}

Status ShardStore::FlushAll(const SpanScope& scope) {
  Span span = scope.Child("store.flush");
  const SpanScope child_scope = span.scope();
  LockGuard batch_lock(batch_mu_);
  if (index_->NeedsShutdownFlush()) {
    SS_RETURN_IF_ERROR(index_->Flush(child_scope));
  }
  Status status = scheduler_->FlushAll(child_scope);
  span.set_status(status.code());
  return status;
}

}  // namespace ss
