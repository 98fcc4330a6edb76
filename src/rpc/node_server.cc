#include "src/rpc/node_server.h"

#include <algorithm>

#include "src/common/cover.h"
#include "src/common/rng.h"
#include "src/faults/faults.h"
#include "src/obs/json.h"

namespace ss {

namespace {

std::vector<StoreWrite> PutWrites(const std::vector<std::pair<ShardId, Bytes>>& items) {
  std::vector<StoreWrite> writes;
  writes.reserve(items.size());
  for (const auto& [id, value] : items) {
    writes.push_back({id, value});
  }
  return writes;
}

std::vector<StoreWrite> DeleteWrites(const std::vector<ShardId>& ids) {
  std::vector<StoreWrite> writes;
  writes.reserve(ids.size());
  for (ShardId id : ids) {
    writes.push_back({id, std::nullopt});
  }
  return writes;
}

}  // namespace

NodeServer::NodeServer(NodeServerOptions options)
    : options_(options),
      spans_(options.span_capacity, &metrics_) {
  put_ok_ = &metrics_.counter("rpc.put.ok");
  put_err_ = &metrics_.counter("rpc.put.err");
  get_ok_ = &metrics_.counter("rpc.get.ok");
  get_err_ = &metrics_.counter("rpc.get.err");
  scan_ok_ = &metrics_.counter("rpc.scan.ok");
  scan_err_ = &metrics_.counter("rpc.scan.err");
  delete_ok_ = &metrics_.counter("rpc.delete.ok");
  delete_err_ = &metrics_.counter("rpc.delete.err");
  batch_puts_ = &metrics_.counter("rpc.batch.puts");
  batch_deletes_ = &metrics_.counter("rpc.batch.deletes");
  batch_item_ok_ = &metrics_.counter("rpc.batch.item_ok");
  batch_item_err_ = &metrics_.counter("rpc.batch.item_err");
  list_shards_ = &metrics_.counter("rpc.list_shards");
  migrations_ = &metrics_.counter("rpc.migrations");
  evacuations_ = &metrics_.counter("rpc.evacuations");
  crash_recoveries_ = &metrics_.counter("rpc.crash_recoveries");
  stale_commit_skipped_ = &metrics_.counter("rpc.routing.stale_commit_skipped");
  placement_rerouted_ = &metrics_.counter("rpc.routing.placement_rerouted");
  lockorder_violations_ = &metrics_.counter("sync.lockorder.violations");
  op_ticks_ = &metrics_.histogram("rpc.op.backoff_ticks");
  lockorder_handler_ = std::make_unique<ScopedLockOrderHandler>(
      [this](const LockOrderReport&) { lockorder_violations_->Increment(); });
}

Result<std::unique_ptr<NodeServer>> NodeServer::Create(NodeServerOptions options) {
  if (options.disk_count < 1) {
    return Status::InvalidArgument("need at least one disk");
  }
  std::unique_ptr<NodeServer> node(new NodeServer(options));
  for (int d = 0; d < options.disk_count; ++d) {
    auto disk_or = MakeDisk(options.disk_backend, options.geometry, d);
    if (!disk_or.ok()) {
      return disk_or.status();
    }
    node->disks_.push_back(std::move(disk_or).value());
    auto store_or = ShardStore::Open(node->disks_.back().get(), options.store);
    if (!store_or.ok()) {
      return store_or.status();
    }
    node->stores_.push_back(std::shared_ptr<ShardStore>(std::move(store_or).value()));
    node->in_service_.push_back(true);
    node->health_.push_back(DiskHealth::kHealthy);
  }
  return node;
}

int NodeServer::DiskForLocked(ShardId id) const {
  auto it = directory_.find(id);
  if (it != directory_.end()) {
    return it->second;  // migrated / known placement
  }
  // Stable hash placement for shards without a directory entry. The hash only picks a
  // starting point: disks that are out of service are skipped in hash order, so a
  // removed disk does not make a deterministic 1/N slice of the key space unwritable.
  //
  // The fallback deliberately does NOT skip degraded or failed disks. Diverting the
  // hash route is only sound when the home disk cannot hold unguarded data, and only
  // removal from service (which follows evacuation) guarantees that. A sick disk may
  // still hold a flushed value whose delete tombstone is sitting in the memtable;
  // routing around it hides that copy from crash reconciliation, and the fault
  // harness finds the resurrection (minimized: Put, FlushAll, Delete, DegradeDisk,
  // CrashReboot — the crash drops the tombstone and the value returns as a phantom
  // once health resets). Sick-but-in-service homes therefore keep their hash route
  // and mutations surface kUnavailable until the operator evacuates or resets them.
  const int n = static_cast<int>(disks_.size());
  const int hashed = static_cast<int>((id * 0x9e3779b97f4a7c15ULL >> 32) % disks_.size());
  for (int k = 0; k < n; ++k) {
    const int d = (hashed + k) % n;
    if (in_service_[d]) {
      if (k > 0) {
        SS_COVER("rpc.placement_rerouted");
        placement_rerouted_->Increment();
      }
      return d;
    }
  }
  return hashed;  // no disk can take new shards; the caller surfaces kUnavailable
}

int NodeServer::DiskFor(ShardId id) const {
  LockGuard lock(mu_);
  return DiskForLocked(id);
}

bool NodeServer::InService(int disk) const {
  LockGuard lock(mu_);
  return disk >= 0 && disk < static_cast<int>(in_service_.size()) && in_service_[disk];
}

std::shared_ptr<ShardStore> NodeServer::store(int disk) const {
  LockGuard lock(mu_);
  if (disk < 0 || disk >= static_cast<int>(stores_.size())) {
    return nullptr;
  }
  return stores_[disk];
}

Result<std::shared_ptr<ShardStore>> NodeServer::Route(ShardId id, bool mutating,
                                                      int* disk_out) const {
  // Resolve and admission-check under one mu_ hold: resolving first and re-locking
  // would let a concurrent control-plane change invalidate the resolved disk.
  LockGuard lock(mu_);
  const int disk = DiskForLocked(id);
  if (disk_out != nullptr) {
    *disk_out = disk;
  }
  if (!in_service_[disk]) {
    return Status::Unavailable("disk out of service");
  }
  if (health_[disk] == DiskHealth::kFailed) {
    return Status::Unavailable("disk failed");
  }
  if (mutating && health_[disk] == DiskHealth::kDegraded) {
    // Read-only mode: the disk's data is intact and keeps serving, but new writes
    // would only grow the blast radius of a disk already burning error budget.
    return Status::Unavailable("disk degraded (read-only)");
  }
  return stores_[disk];
}

void NodeServer::AbsorbTrackerHealth(int disk, ShardStore& target) {
  const DiskHealth observed = target.extents().health().health();
  if (observed == DiskHealth::kHealthy) {
    return;
  }
  LockGuard lock(mu_);
  if (static_cast<int>(observed) > static_cast<int>(health_[disk])) {
    health_[disk] = observed;
    SS_COVER(observed == DiskHealth::kFailed ? "rpc.health_auto_failed"
                                             : "rpc.health_auto_degraded");
  }
}

std::vector<BatchItemResult> NodeServer::WriteItems(const std::vector<StoreWrite>& items,
                                                    Span& span, bool item_spans) {
  std::vector<BatchItemResult> out(items.size());
  std::vector<StartedSpan> started(item_spans ? items.size() : 0);
  auto finish = [&](size_t i) {
    if (item_spans) {
      spans_.EndSpan(started[i], out[i].status.code(), 0);
    }
  };

  // Route and admission-check every item, grouping the admitted ones by disk.
  struct Group {
    std::shared_ptr<ShardStore> store;
    std::vector<size_t> indices;  // positions in `items`
    std::vector<StoreWrite> writes;
  };
  std::map<int, Group> groups;
  for (size_t i = 0; i < items.size(); ++i) {
    out[i].id = items[i].id;
    if (item_spans) {
      started[i] = spans_.StartSpan("rpc.batch.item", span.id(), span.id());
      out[i].span_id = started[i].id;
    }
    auto routed = Route(items[i].id, /*mutating=*/true, &out[i].disk);
    if (!routed.ok()) {
      out[i].status = routed.status();
      finish(i);
      continue;
    }
    Group& group = groups[out[i].disk];
    group.store = std::move(routed).value();
    group.indices.push_back(i);
    group.writes.push_back(items[i]);
  }

  // Each disk's items commit as one store write (one LSM barrier for the group). The
  // store-layer children attach to the RPC root: per-item attribution inside a group
  // commit is not meaningful, the items share one barrier.
  const bool unconditional = BugEnabled(SeededBug::kUnconditionalRouteCommit);
  for (auto& [disk, group] : groups) {
    const uint64_t start_ticks = group.store->extents().VirtualNow();
    StoreBatchResult written = group.store->Write(group.writes, span.scope());
    AbsorbTrackerHealth(disk, *group.store);
    const uint64_t ticks = group.store->extents().VirtualNow() - start_ticks;
    span.AddTicks(ticks);
    op_ticks_->Record(ticks);
    bool any_ok = false;
    for (size_t k = 0; k < group.indices.size(); ++k) {
      BatchItemResult& item = out[group.indices[k]];
      item.status = written.items[k].status;
      item.dep = written.items[k].dep;
      finish(group.indices[k]);
      any_ok = any_ok || item.status.ok();
    }
    if (!any_ok) {
      continue;
    }
    if (unconditional) {
      // Seeded bug #19, the pre-fix routing commit: `disk` was resolved before the
      // store call, so a MigrateShard that committed in between gets its directory
      // entry overwritten (or erased) and later Gets route to the tombstoned copy. The
      // yield is the preemption window the fix closes.
      YieldThread();
    }
    LockGuard lock(mu_);
    for (size_t i : group.indices) {
      if (!out[i].status.ok()) {
        continue;
      }
      auto it = directory_.find(out[i].id);
      if (!unconditional && it != directory_.end() && it->second != disk) {
        // A concurrent migration committed new routing between our store write and
        // this commit. Overwriting it would point the directory back at a copy the
        // migration tombstones; erasing it would make the live copy unreachable.
        SS_COVER("rpc.stale_route_commit_skipped");
        stale_commit_skipped_->Increment();
      } else if (items[i].value.has_value()) {
        directory_[out[i].id] = disk;
      } else if (it != directory_.end()) {
        directory_.erase(it);
      }
    }
  }
  return out;
}

Result<BatchItemResult> NodeServer::WriteOne(std::string_view name, StoreWrite item,
                                             TraceContext remote, Counter* ok,
                                             Counter* err) {
  Span span = RootSpan(name, remote);
  span.set_shard(item.id);
  BatchItemResult result = std::move(WriteItems({item}, span, /*item_spans=*/false)[0]);
  span.set_disk(result.disk);
  if (!result.status.ok()) {
    err->Increment();
    span.set_status(result.status.code());
    return result.status;
  }
  ok->Increment();
  result.span_id = span.id();
  return result;
}

BatchResult NodeServer::WriteMany(std::string_view name, Counter* calls,
                                  const std::vector<StoreWrite>& items) {
  calls->Increment();
  Span span = RootSpan(name);
  BatchResult out;
  out.trace_id = span.id();
  out.items = WriteItems(items, span, /*item_spans=*/true);
  std::vector<Dependency> ok_deps;
  for (const BatchItemResult& item : out.items) {
    (item.status.ok() ? batch_item_ok_ : batch_item_err_)->Increment();
    if (item.status.ok()) {
      ok_deps.push_back(item.dep);
    }
  }
  out.dep = Dependency::AndAll(ok_deps);
  if (!out.all_ok()) {
    span.set_status(StatusCode::kUnavailable);
  }
  return out;
}

Result<PutResult> NodeServer::Put(ShardId id, ByteSpan value, TraceContext remote) {
  SS_ASSIGN_OR_RETURN(BatchItemResult item,
                      WriteOne("rpc.put", {id, value}, remote, put_ok_, put_err_));
  return PutResult{std::move(item.dep), item.disk, item.span_id};
}

Result<GetResult> NodeServer::Get(ShardId id, TraceContext remote) {
  Span span = RootSpan("rpc.get", remote);
  span.set_shard(id);
  int disk = -1;
  auto routed = Route(id, /*mutating=*/false, &disk);
  span.set_disk(disk);
  if (!routed.ok()) {
    get_err_->Increment();
    span.set_status(routed.code());
    return routed.status();
  }
  std::shared_ptr<ShardStore> target = std::move(routed).value();
  const uint64_t start_ticks = target->extents().VirtualNow();
  auto got = target->Get(id, span.scope());
  AbsorbTrackerHealth(disk, *target);
  const uint64_t ticks = target->extents().VirtualNow() - start_ticks;
  span.AddTicks(ticks);
  if (!got.ok()) {
    span.set_status(got.code());
  }
  op_ticks_->Record(ticks);
  (got.ok() ? get_ok_ : get_err_)->Increment();
  if (!got.ok()) {
    return got.status();
  }
  return GetResult{std::move(got).value(), disk, span.id()};
}

Result<ScanResult> NodeServer::Scan(ShardId start, ShardId end) {
  Span span = RootSpan("rpc.scan");
  span.set_shard(start);
  // Snapshot the scannable stores and the window's directory slice under one mu_
  // hold. Reads are allowed on degraded disks (same policy as Get's routing); failed
  // and out-of-service disks are invisible to scans, like they are to ListShards.
  std::vector<std::pair<int, std::shared_ptr<ShardStore>>> targets;
  std::map<ShardId, int> owners;
  {
    LockGuard lock(mu_);
    for (int d = 0; d < static_cast<int>(stores_.size()); ++d) {
      if (in_service_[d] && health_[d] != DiskHealth::kFailed && stores_[d] != nullptr) {
        targets.push_back({d, stores_[d]});
      }
    }
    for (auto it = directory_.lower_bound(start); it != directory_.end() && it->first < end;
         ++it) {
      owners[it->first] = it->second;
    }
  }
  uint64_t ticks = 0;
  std::map<ShardId, std::pair<int, Bytes>> merged;  // id -> (source disk, value)
  for (auto& [disk, target] : targets) {
    const uint64_t start_ticks = target->extents().VirtualNow();
    auto items_or = target->Scan(start, end, span.scope());
    AbsorbTrackerHealth(disk, *target);
    ticks += target->extents().VirtualNow() - start_ticks;
    if (!items_or.ok()) {
      span.AddTicks(ticks);
      span.set_status(items_or.code());
      span.set_disk(disk);
      op_ticks_->Record(ticks);
      scan_err_->Increment();
      return items_or.status();
    }
    for (ScanItem& item : items_or.value()) {
      auto it = merged.find(item.id);
      if (it == merged.end()) {
        merged.emplace(item.id, std::make_pair(disk, std::move(item.value)));
      } else {
        // The same shard can transiently live on two disks mid-migration (the copy
        // lands before the source's tombstone commits); the directory is the
        // authority on which replica the request plane should see.
        auto owner = owners.find(item.id);
        if (owner != owners.end() && owner->second == disk) {
          it->second = std::make_pair(disk, std::move(item.value));
        }
      }
    }
  }
  ScanResult result;
  result.trace_id = span.id();
  result.items.reserve(merged.size());
  for (auto& [id, entry] : merged) {
    result.items.push_back(ScanItem{id, std::move(entry.second)});
  }
  span.AddTicks(ticks);
  op_ticks_->Record(ticks);
  scan_ok_->Increment();
  return result;
}

Result<DeleteResult> NodeServer::Delete(ShardId id, TraceContext remote) {
  SS_ASSIGN_OR_RETURN(BatchItemResult item,
                      WriteOne("rpc.delete", {id, std::nullopt}, remote, delete_ok_, delete_err_));
  return DeleteResult{std::move(item.dep), item.disk, item.span_id};
}

BatchResult NodeServer::PutBatch(const std::vector<std::pair<ShardId, Bytes>>& items) {
  return WriteMany("rpc.put_batch", batch_puts_, PutWrites(items));
}

BatchResult NodeServer::DeleteBatch(const std::vector<ShardId>& ids) {
  return WriteMany("rpc.delete_batch", batch_deletes_, DeleteWrites(ids));
}

Result<std::vector<ShardId>> NodeServer::ListShards() {
  list_shards_->Increment();
  if (BugEnabled(SeededBug::kListRemoveRace)) {
    // Buggy path: the listing copies the directory in two batches, releasing the lock
    // in between and resuming *by element count*. A concurrent removal that deletes an
    // already-copied element shifts everything left, so the resume skips a live shard
    // (the paper's issue #13: list ∥ removal race).
    SS_COVER("rpc.bug13_chunked_list");
    std::vector<ShardId> out;
    size_t copied = 0;
    {
      LockGuard lock(mu_);
      const size_t half = directory_.size() / 2;
      for (const auto& [id, disk] : directory_) {
        if (copied >= half) {
          break;
        }
        if (in_service_[disk]) {
          out.push_back(id);
        }
        ++copied;
      }
    }
    YieldThread();  // the preemption window
    {
      LockGuard lock(mu_);
      size_t index = 0;
      for (const auto& [id, disk] : directory_) {
        if (index++ < copied) {
          continue;  // "already copied" — wrong if the map shifted underneath
        }
        if (in_service_[disk]) {
          out.push_back(id);
        }
      }
    }
    return out;
  }
  LockGuard lock(mu_);
  std::vector<ShardId> out;
  out.reserve(directory_.size());
  for (const auto& [id, disk] : directory_) {
    if (in_service_[disk]) {
      out.push_back(id);
    }
  }
  return out;
}

Status NodeServer::RemoveDiskFromService(int disk) {
  if (disk < 0 || disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  std::shared_ptr<ShardStore> target;
  {
    LockGuard lock(mu_);
    if (!in_service_[disk]) {
      return Status::Unavailable("already out of service");
    }
    target = stores_[disk];
  }
  Span span = RootSpan("rpc.remove_disk");
  span.set_disk(disk);
  if (BugEnabled(SeededBug::kDiskRemovalLosesShards)) {
    // Buggy path: the store is discarded without a clean shutdown, dropping the
    // unflushed memtable and pending writebacks — "shards could be lost if a disk was
    // removed from service and then later returned" (paper issue #4).
    SS_COVER("rpc.bug4_remove_without_flush");
  } else {
    const uint64_t start_ticks = target->extents().VirtualNow();
    Status flushed = target->FlushAll(span.scope());
    span.AddTicks(target->extents().VirtualNow() - start_ticks);
    if (!flushed.ok()) {
      span.set_status(flushed.code());
      return flushed;
    }
  }
  LockGuard lock(mu_);
  in_service_[disk] = false;
  stores_[disk].reset();
  return Status::Ok();
}

Status NodeServer::RestoreDisk(int disk) {
  if (disk < 0 || disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  {
    LockGuard lock(mu_);
    if (in_service_[disk]) {
      return Status::Unavailable("already in service");
    }
  }
  Span span = RootSpan("rpc.restore_disk");
  span.set_disk(disk);
  SS_ASSIGN_OR_RETURN(std::unique_ptr<ShardStore> reopened,
                      ShardStore::Open(disks_[disk].get(), options_.store));
  std::shared_ptr<ShardStore> shared(std::move(reopened));
  SS_ASSIGN_OR_RETURN(std::vector<ShardId> ids, shared->List());
  LockGuard lock(mu_);
  stores_[disk] = shared;
  in_service_[disk] = true;
  health_[disk] = DiskHealth::kHealthy;  // operator returned a repaired disk
  // Rebuild the directory entries this disk owns.
  for (ShardId id : ids) {
    directory_[id] = disk;
  }
  return Status::Ok();
}

Status NodeServer::MigrateShard(ShardId id, int to_disk) {
  if (to_disk < 0 || to_disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  Span span = RootSpan("rpc.migrate_shard");
  span.set_shard(id);
  span.set_disk(to_disk);
  LockGuard control(control_mu_);
  Status status = MigrateShardLocked(id, to_disk, span);
  span.set_status(status.code());
  return status;
}

Status NodeServer::MigrateShardLocked(ShardId id, int to_disk, Span& span) {
  const int from_disk = DiskFor(id);
  std::shared_ptr<ShardStore> source;
  std::shared_ptr<ShardStore> target;
  {
    LockGuard lock(mu_);
    if (!in_service_[from_disk] || !in_service_[to_disk]) {
      return Status::Unavailable("source or target disk out of service");
    }
    if (health_[from_disk] == DiskHealth::kFailed) {
      return Status::Unavailable("source disk failed; nothing readable to migrate");
    }
    if (from_disk != to_disk && health_[to_disk] != DiskHealth::kHealthy) {
      return Status::Unavailable("target disk is not healthy");
    }
    source = stores_[from_disk];
    target = stores_[to_disk];
  }
  if (from_disk == to_disk) {
    return Status::Ok();
  }
  // Sum the ticks both disks' virtual clocks consume: a migration's latency is the
  // source read + tombstone plus the target copy + flush.
  const uint64_t src_start = source->extents().VirtualNow();
  const uint64_t dst_start = target->extents().VirtualNow();
  const SpanScope scope = span.scope();
  auto add_ticks = [&] {
    span.AddTicks((source->extents().VirtualNow() - src_start) +
                  (target->extents().VirtualNow() - dst_start));
  };
  auto value_or = source->Get(id, scope);
  if (!value_or.ok()) {
    add_ticks();
    return value_or.status();
  }
  Bytes value = std::move(value_or).value();
  // Copy first, commit the routing change, then tombstone the source — in that order a
  // crash of this control-plane step never loses the shard (at worst both copies
  // exist, and the directory decides which one serves).
  auto copied = target->Put(id, value, scope);
  if (!copied.ok()) {
    add_ticks();
    return copied.status();
  }
  // The copy must be durable before routing commits: otherwise a crash of the target
  // disk could lose a shard whose original write was already acknowledged persistent.
  Status flushed = target->FlushAll(scope);
  if (!flushed.ok()) {
    add_ticks();
    return flushed;
  }
  {
    LockGuard lock(mu_);
    if (!in_service_[to_disk]) {
      add_ticks();
      return Status::Unavailable("target removed during migration");
    }
    directory_[id] = to_disk;
  }
  auto dropped = source->Delete(id, scope);
  if (!dropped.ok()) {
    add_ticks();
    return dropped.status();
  }
  // The tombstone must be durable too: left memtable-only, a later crash of the source
  // would resurrect the stale copy and recovery could re-register it.
  Status drained = source->FlushAll(scope);
  if (!drained.ok()) {
    add_ticks();
    return drained;
  }
  add_ticks();
  SS_COVER("rpc.migrate_shard");
  migrations_->Increment();
  return Status::Ok();
}

DiskHealth NodeServer::Health(int disk) const {
  LockGuard lock(mu_);
  if (disk < 0 || disk >= static_cast<int>(health_.size())) {
    return DiskHealth::kFailed;
  }
  return health_[disk];
}

Status NodeServer::MarkDiskDegraded(int disk) {
  if (disk < 0 || disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  LockGuard lock(mu_);
  if (!in_service_[disk]) {
    return Status::Unavailable("disk out of service");
  }
  if (health_[disk] == DiskHealth::kFailed) {
    return Status::Unavailable("disk already failed");
  }
  health_[disk] = DiskHealth::kDegraded;
  SS_COVER("rpc.mark_degraded");
  Span span = RootSpan("rpc.mark_degraded");
  span.set_disk(disk);
  return Status::Ok();
}

Status NodeServer::ResetDiskHealth(int disk) {
  if (disk < 0 || disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  LockGuard lock(mu_);
  if (!in_service_[disk]) {
    return Status::Unavailable("disk out of service");
  }
  health_[disk] = DiskHealth::kHealthy;
  stores_[disk]->extents().health().Reset();
  Span span = RootSpan("rpc.reset_health");
  span.set_disk(disk);
  return Status::Ok();
}

Status NodeServer::EvacuateDisk(int disk) {
  if (disk < 0 || disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  // One root for the whole evacuation: each shard's migration attaches its store-layer
  // children here, so the tree shows the full drain.
  Span span = RootSpan("rpc.evacuate_disk");
  span.set_disk(disk);
  LockGuard control(control_mu_);
  std::shared_ptr<ShardStore> source;
  {
    LockGuard lock(mu_);
    if (!in_service_[disk]) {
      return Status::Unavailable("disk out of service");
    }
    if (health_[disk] == DiskHealth::kFailed) {
      return Status::Unavailable("disk failed; nothing readable to evacuate");
    }
    source = stores_[disk];
  }
  SS_ASSIGN_OR_RETURN(std::vector<ShardId> ids, source->List());
  std::vector<int> peers;
  {
    LockGuard lock(mu_);
    for (int d = 0; d < static_cast<int>(disks_.size()); ++d) {
      if (d != disk && in_service_[d] && health_[d] == DiskHealth::kHealthy) {
        peers.push_back(d);
      }
    }
  }
  size_t next_peer = 0;
  for (ShardId id : ids) {
    if (DiskFor(id) != disk) {
      continue;  // the directory already routes this shard elsewhere
    }
    if (peers.empty()) {
      return Status::Unavailable("no healthy peer to evacuate onto");
    }
    // Round-robin over healthy peers; a full peer is skipped, any other failure
    // aborts the evacuation (each migrated shard has already committed, so stopping
    // midway leaves the node consistent — the disk is just not fully drained yet).
    Status last = Status::Ok();
    bool moved = false;
    for (size_t k = 0; k < peers.size(); ++k) {
      const int target = peers[(next_peer + k) % peers.size()];
      last = MigrateShardLocked(id, target, span);
      if (last.ok()) {
        next_peer = (next_peer + k + 1) % peers.size();
        moved = true;
        break;
      }
      if (last.code() != StatusCode::kResourceExhausted) {
        break;
      }
    }
    if (!moved) {
      span.set_status(last.code());
      return Status(last.code(), "evacuation stopped at shard " + std::to_string(id) +
                                     ": " + last.message());
    }
  }
  SS_COVER("rpc.evacuate_disk");
  evacuations_->Increment();
  return Status::Ok();
}

Status NodeServer::CrashAndRecoverDisk(int disk, uint64_t crash_seed) {
  if (disk < 0 || disk >= static_cast<int>(disks_.size())) {
    return Status::InvalidArgument("no such disk");
  }
  std::shared_ptr<ShardStore> target;
  {
    LockGuard lock(mu_);
    if (!in_service_[disk]) {
      return Status::Unavailable("disk out of service");
    }
    target = stores_[disk];
    stores_[disk].reset();
    in_service_[disk] = false;
  }
  Rng crash_rng(crash_seed);
  target->scheduler().Crash(crash_rng, /*persist_bias=*/0.6);
  target.reset();
  // Power-cut semantics for buffered backends: writebacks the crash issued but whose
  // covering barrier never fired are lost with the page cache (no-op for the
  // in-memory image, where issue == durable).
  disks_[disk]->DropUnsynced();
  // The reboot clears armed injector faults: they model conditions of the running
  // controller, and the recovery read path (PeekPage) is not subject to injection.
  disks_[disk]->fault_injector().Clear();
  auto reopened = ShardStore::Open(disks_[disk].get(), options_.store);
  if (!reopened.ok()) {
    return reopened.status();
  }
  std::shared_ptr<ShardStore> shared(std::move(reopened).value());
  SS_ASSIGN_OR_RETURN(std::vector<ShardId> ids, shared->List());
  LockGuard lock(mu_);
  stores_[disk] = shared;
  in_service_[disk] = true;
  health_[disk] = DiskHealth::kHealthy;
  // Directory reconciliation: entries for shards the crash lost are dropped (so later
  // puts fall back to hash placement), survivors re-registered.
  for (auto it = directory_.begin(); it != directory_.end();) {
    if (it->second == disk &&
        std::find(ids.begin(), ids.end(), it->first) == ids.end()) {
      it = directory_.erase(it);
    } else {
      ++it;
    }
  }
  // Survivors need no re-registration: their entries were kept above, and a survivor
  // *without* an entry is a deleted shard the crash resurrected (its tombstone lived
  // in the dropped memtable, with routing either already erased or pointing at the
  // disk that now owns the delete). Re-adding an entry would hand the stale copy the
  // routing back.
  SS_COVER("rpc.crash_recover_disk");
  crash_recoveries_->Increment();
  Span span = RootSpan("rpc.crash_recover_disk");
  span.set_disk(disk);
  return Status::Ok();
}

std::vector<Status> NodeServer::BulkCreate(const std::vector<std::pair<ShardId, Bytes>>& items) {
  return Bulk("rpc.put_batch", batch_puts_, PutWrites(items));
}

std::vector<Status> NodeServer::BulkRemove(const std::vector<ShardId>& ids) {
  return Bulk("rpc.delete_batch", batch_deletes_, DeleteWrites(ids));
}

std::vector<Status> NodeServer::Bulk(std::string_view name, Counter* calls,
                                     const std::vector<StoreWrite>& items) {
  std::vector<Status> statuses;
  statuses.reserve(items.size());
  if (BugEnabled(SeededBug::kBulkCreateRemoveRace)) {
    // Buggy path (paper issue #16), preserved as seeded: items go through the request
    // plane one by one with no control-plane lock, so another bulk operation can
    // interleave between them and observers see a half-applied batch.
    SS_COVER("rpc.bug16_unlocked_bulk");
    for (const StoreWrite& item : items) {
      statuses.push_back(item.value.has_value() ? Put(item.id, *item.value).status()
                                                : Delete(item.id).status());
      YieldThread();
    }
    return statuses;
  }
  // Fixed path: the control-plane lock provides the documented none-or-all visibility
  // relative to other bulk operations; the batch pipeline underneath turns the items
  // into per-disk group commits.
  LockGuard guard(control_mu_);
  for (const BatchItemResult& item : WriteMany(name, calls, items).items) {
    statuses.push_back(item.status);
  }
  return statuses;
}

Status NodeServer::FlushAllDisks() {
  Span span = RootSpan("rpc.flush_all");
  for (int d = 0; d < disk_count(); ++d) {
    std::shared_ptr<ShardStore> target = store(d);
    if (target != nullptr) {
      const uint64_t start_ticks = target->extents().VirtualNow();
      Status flushed = target->FlushAll(span.scope());
      span.AddTicks(target->extents().VirtualNow() - start_ticks);
      if (!flushed.ok()) {
        span.set_status(flushed.code());
        return flushed;
      }
    }
  }
  return Status::Ok();
}

MetricsSnapshot NodeServer::MetricsSnapshot() const {
  ss::MetricsSnapshot out;
  metrics_.SnapshotInto(out);
  std::vector<std::shared_ptr<ShardStore>> stores;
  {
    LockGuard lock(mu_);
    for (int d = 0; d < static_cast<int>(stores_.size()); ++d) {
      if (stores_[d] != nullptr) {
        stores.push_back(stores_[d]);
      }
      const std::string prefix = "rpc.disk." + std::to_string(d);
      out.gauges[prefix + ".health"] = static_cast<int64_t>(health_[d]);
      out.gauges[prefix + ".in_service"] = in_service_[d] ? 1 : 0;
    }
  }
  // Store registries are read outside mu_: metric objects are leaf state, and the
  // shared_ptr keeps each store alive even if it is removed from service meanwhile.
  // Counters with the same name sum across disks, so the snapshot covers the whole
  // per-disk stack (cache, scheduler, extent retry, LSM, chunk store, disk health).
  for (const std::shared_ptr<ShardStore>& s : stores) {
    s->metrics().SnapshotInto(out);
  }
  return out;
}

std::string NodeServer::DumpMetrics() const {
  constexpr size_t kMaxRoots = 16;
  const std::vector<SpanRecord> roots = spans_.Roots();
  const size_t first = roots.size() > kMaxRoots ? roots.size() - kMaxRoots : 0;
  std::string out = MetricsSnapshot().ToString() + "== root spans (last " +
                    std::to_string(roots.size() - first) + " of " +
                    std::to_string(roots.size()) + " retained) ==\n";
  for (size_t i = first; i < roots.size(); ++i) {
    out += "  " + roots[i].ToString() + "\n";
  }
  return out;
}

std::string NodeServer::DumpMetricsJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("metrics");
  w.Raw(MetricsSnapshot().ToJson());
  w.Key("spans");
  w.Raw(spans_.ToJson());
  w.EndObject();
  return w.str();
}

}  // namespace ss
