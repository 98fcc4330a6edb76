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

StoreBatchResult ShardStore::Write(const std::vector<StoreWrite>& writes,
                                   const SpanScope& scope) {
  StoreBatchResult result;
  result.items.resize(writes.size());
  if (writes.empty()) {
    return result;
  }
  const bool group = writes.size() > 1;
  Span span = scope.Child(group                       ? "store.apply_batch"
                          : writes[0].value.has_value() ? "store.put"
                                                        : "store.delete");
  const SpanScope child_scope = span.scope();
  std::optional<LockGuard> batch_lock;
  std::optional<ExtentManager::WriteBatch> batch;
  if (group) {
    batch_lock.emplace(batch_mu_);
    batch_applies_->Increment();
    batch_items_->Increment(writes.size());
    batch = extents_->BeginWriteBatch();
  }
  const ExtentManager::WriteBatch* batch_ptr = batch.has_value() ? &*batch : nullptr;
  const size_t max_payload = chunks_->max_payload_bytes();

  // Stage every put's chunk writes (through the batch, for a group). Items fail
  // independently: a failed item's partial chunks are unpinned (unreferenced garbage,
  // reclaimed later) and the rest proceed.
  std::vector<size_t> staged;  // positions of the items that reach the index
  std::vector<LsmBatchItem> inserts;
  std::vector<ExtentId> pinned;  // the staged chunks' extents
  for (size_t i = 0; i < writes.size(); ++i) {
    const StoreWrite& write = writes[i];
    if (!write.value.has_value()) {
      deletes_->Increment();
      staged.push_back(i);
      inserts.push_back({write.id, std::nullopt, Dependency()});
      continue;
    }
    puts_->Increment();
    const ByteSpan value = *write.value;
    if (value.size() > max_payload * options_.max_chunks_per_shard) {
      result.items[i].status = Status::InvalidArgument("shard value too large");
      continue;
    }
    ShardRecord record;
    record.total_bytes = value.size();
    std::vector<Dependency> data_deps;
    Status status = Status::Ok();
    for (size_t off = 0; off < value.size(); off += max_payload) {
      const size_t len = std::min(max_payload, value.size() - off);
      auto chunk_or = chunks_->Put(value.subspan(off, len), Dependency(), child_scope, batch_ptr);
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
    for (const Locator& loc : record.chunks) {
      pinned.push_back(loc.extent);
    }
    staged.push_back(i);
    inserts.push_back({write.id, std::move(record), Dependency::AndAll(data_deps)});
  }

  // Close the batch before the insert: the insert may flush, and a flush must not
  // snapshot an entry whose soft-pointer promise is still open.
  if (batch.has_value()) {
    extents_->EndWriteBatch(*batch);
  }
  LsmInsertResult inserted = index_->Insert(std::move(inserts), child_scope);
  // The index now references the chunks; release their reclamation pins.
  for (ExtentId extent : pinned) {
    chunks_->Unpin(extent);
  }
  if (group && inserted.flushed) {
    batch_flushes_->Increment();
  }
  for (size_t k = 0; k < staged.size(); ++k) {
    result.items[staged[k]].dep = inserted.deps[k];
  }
  result.dep = Dependency::AndAll(inserted.deps);
  for (const StoreBatchItemResult& item : result.items) {
    if (!item.status.ok()) {
      span.set_status(item.status.code());
      break;
    }
  }
  return result;
}

namespace {

Result<Dependency> OnlyItem(StoreBatchResult result) {
  StoreBatchItemResult& item = result.items[0];
  if (!item.status.ok()) {
    return item.status;
  }
  return std::move(item.dep);
}

}  // namespace

Result<Dependency> ShardStore::Put(ShardId id, ByteSpan value, const SpanScope& scope) {
  return OnlyItem(Write({{id, value}}, scope));
}

Result<Dependency> ShardStore::Delete(ShardId id, const SpanScope& scope) {
  return OnlyItem(Write({{id, std::nullopt}}, scope));
}

StoreBatchResult ShardStore::ApplyBatch(const std::vector<StoreBatchItem>& items,
                                        const SpanScope& scope) {
  std::vector<StoreWrite> writes;
  writes.reserve(items.size());
  for (const StoreBatchItem& item : items) {
    writes.push_back({item.id, item.value.has_value() ? std::optional<ByteSpan>(*item.value)
                                                      : std::nullopt});
  }
  return Write(writes, scope);
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
