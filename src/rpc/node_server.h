// NodeServer: the storage host's RPC surface (paper section 2.1).
//
// A storage host runs one independent ShardStore per disk; the shared RPC layer steers
// request-plane calls (put/get/delete) to the owning disk by shard id and offers the
// control-plane operations S3 uses for migration and repair: listing shards, taking a
// disk out of service / returning it, and bulk create/remove.
//
// Disk failure domain: each disk additionally carries a health state
// (healthy -> degraded -> failed) merged from its store's error-budget tracker and
// from explicit control-plane marks. Degraded disks are read-only — Get still serves,
// Put/Delete fail with kUnavailable — and EvacuateDisk drains their shards onto
// healthy peers with the same crash-safe commit order as MigrateShard (copy, commit
// the routing change, tombstone the source). Failed disks serve nothing.
//
// Seeded bugs hosted here: #4 (removal skips the clean shutdown, so a removed-and-
// returned disk loses recent shards), #13 (the shard listing releases its lock midway
// and resumes by element count, missing entries that a concurrent removal shifted), and
// #16 (bulk create/remove skip the control-plane lock that makes them atomic units),
// plus #19 (writes commit their route unconditionally after the store call,
// clobbering a concurrent migration's routing commit).

#ifndef SS_RPC_NODE_SERVER_H_
#define SS_RPC_NODE_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/disk/file_disk.h"
#include "src/kv/shard_store.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ss {

struct NodeServerOptions {
  int disk_count = 4;
  DiskGeometry geometry;
  // Which ss::disk::Disk implementation backs each store: the deterministic in-memory
  // image (default) or the durable file-backed log (kFile needs a non-empty
  // file_root; disk i lives under <file_root>/disk-<i>/). Everything above the disk
  // seam — stores, routing, crash recovery, conformance oracles — is backend-blind.
  DiskBackendConfig disk_backend;
  ShardStoreOptions store;
  // Retained span records (see SpanTree); lifetime totals are unaffected.
  size_t span_capacity = SpanTree::kDefaultCapacity;
};

// Typed request-plane envelopes: every mutating RPC returns the operation's durability
// dependency plus the routing and tracing context the node resolved for it — the disk
// the write landed on and the id of the operation's root span in the node's SpanTree
// (SpanTree::Tree(trace_id) yields the full causal tree; the root record itself is
// the operation's event, carrying its shard, disk and status).
struct PutResult {
  Dependency dep;
  int disk = -1;
  uint64_t trace_id = 0;
};

struct DeleteResult {
  Dependency dep;
  int disk = -1;
  uint64_t trace_id = 0;
};

// Read envelope: the assembled value plus the disk the read was served from and the
// root span id.
struct GetResult {
  Bytes value;
  int disk = -1;
  uint64_t trace_id = 0;
};

// Result envelope of a range scan: the merged, key-ordered live shards in the window
// plus the scan's root span id (SpanTree::Tree(trace_id) shows the per-disk store.scan
// and lsm.scan children).
struct ScanResult {
  std::vector<ScanItem> items;  // key order
  uint64_t trace_id = 0;
};

// Per-item outcome of a batched request-plane call. Failed items carry their status;
// their dependency is trivially persistent. `span_id` is the item's "rpc.batch.item"
// child span under the batch's root (0 when spans were not recorded for the item).
struct BatchItemResult {
  ShardId id = 0;
  Status status;
  Dependency dep;
  int disk = -1;
  uint64_t span_id = 0;
};

struct BatchResult {
  std::vector<BatchItemResult> items;  // input order
  Dependency dep;                      // join of the successful items' dependencies
  uint64_t trace_id = 0;

  bool all_ok() const {
    for (const BatchItemResult& item : items) {
      if (!item.status.ok()) {
        return false;
      }
    }
    return true;
  }
};

class NodeServer {
 public:
  // Creates `disk_count` fresh disks and opens a store on each.
  static Result<std::unique_ptr<NodeServer>> Create(NodeServerOptions options = {});

  // --- Request plane -------------------------------------------------------------------
  // `remote` is the optional cross-node trace context (a cluster coordinator's
  // root/parent span ids): when active, the RPC's root span records it as remote
  // linkage so the cluster trace assembler can stitch this node's subtree under
  // the coordinator's trace. Local callers leave it defaulted.
  Result<PutResult> Put(ShardId id, ByteSpan value, TraceContext remote = {});
  Result<GetResult> Get(ShardId id, TraceContext remote = {});
  Result<DeleteResult> Delete(ShardId id, TraceContext remote = {});

  // Merged range scan: every live shard with id in the half-open window [start, end),
  // in key order, fanned out across all in-service disks (a shard that transiently
  // exists on two disks mid-migration resolves to the directory's owner). Fails whole
  // if any disk's scan fails — a silent partial result would defeat the conformance
  // oracle. An empty window (start >= end) returns an empty result.
  Result<ScanResult> Scan(ShardId start, ShardId end);

  // Batched writes with group commit, through the same write step as Put/Delete: items
  // are routed and admission-checked individually, grouped by owning disk, and each
  // per-disk sub-batch commits through one ShardStore::Write under one LSM barrier and
  // one shared soft-pointer update per extent. Items fail independently; the batch
  // dependency is the join of the successful items. Routing commits are per-item and
  // conditional, so a concurrent MigrateShard is never clobbered.
  BatchResult PutBatch(const std::vector<std::pair<ShardId, Bytes>>& items);
  BatchResult DeleteBatch(const std::vector<ShardId>& ids);

  // --- Control plane -------------------------------------------------------------------
  // All shards currently stored on in-service disks.
  Result<std::vector<ShardId>> ListShards();

  // Cleanly shuts the disk's store down and takes it out of service; requests for its
  // shards fail with kUnavailable until RestoreDisk.
  Status RemoveDiskFromService(int disk);

  // Reopens the store from the disk's persistent image and puts it back in service.
  Status RestoreDisk(int disk);

  // Migrates one shard to another in-service disk (the control plane's repair /
  // rebalance primitive): copy to the target, commit the routing change, tombstone the
  // source. Both disks must be in service; the target must additionally be healthy
  // (never migrate onto a disk already burning error budget), while the source may be
  // degraded — that is exactly the evacuation path. Migrating to the current owner is
  // a no-op.
  Status MigrateShard(ShardId id, int to_disk);

  // --- Disk failure domain -------------------------------------------------------------
  // Current health of a disk (kFailed for out-of-range disks).
  DiskHealth Health(int disk) const;

  // Control-plane mark: healthy -> degraded (read-only). Idempotent on an already
  // degraded disk; refuses on a failed one.
  Status MarkDiskDegraded(int disk);

  // Operator action after repair: back to healthy with a fresh error budget (also
  // resets the store's tracker). The disk must be in service.
  Status ResetDiskHealth(int disk);

  // Drains every shard this disk owns onto healthy in-service peers (round-robin,
  // skipping peers that report full). The source must be readable (in service, not
  // failed); this is the expected follow-up to a degraded mark. Built on the
  // MigrateShard commit order, so a crash mid-evacuation never loses a shard.
  Status EvacuateDisk(int disk);

  // Dirty per-disk reboot: crashes the store's IO scheduler at a dependency-allowed
  // crash state drawn from `crash_seed`, then recovers from the persistent image.
  // Armed injector faults are cleared (they model conditions of the running
  // controller), health returns to healthy, and the routing directory is reconciled:
  // entries for shards the crash lost are dropped, survivors re-registered.
  Status CrashAndRecoverDisk(int disk, uint64_t crash_seed);

  // Atomic bulk operations: observers see either none or all of the batch applied
  // (relative to other bulk operations). Built on the batched write pipeline; each
  // item reports its own status (index i mirrors input item i).
  std::vector<Status> BulkCreate(const std::vector<std::pair<ShardId, Bytes>>& items);
  std::vector<Status> BulkRemove(const std::vector<ShardId>& ids);

  // Clean shutdown of every in-service disk; afterwards all dependencies persist.
  Status FlushAllDisks();

  // --- Observability -------------------------------------------------------------------
  // Point-in-time snapshot across the whole node: the node-level rpc.* registry plus
  // every in-service store's registry (counters sum across disks), with per-disk
  // rpc.disk.<d>.health / .in_service gauges mixed in. Harness oracles and benches
  // assert on deltas between two snapshots.
  ss::MetricsSnapshot MetricsSnapshot() const;
  // Human-readable snapshot + the newest retained root spans (one per RPC).
  std::string DumpMetrics() const;
  // Machine-readable node state: {"metrics": ..., "spans": [...]}.
  // This is the exit the flight recorder and external tooling scrape.
  std::string DumpMetricsJson() const;
  MetricRegistry& metrics() { return metrics_; }
  // The node-wide span tree: one root span per request-plane and control-plane RPC
  // (its kind, shard, disk, status and ticks) plus the store-layer children recorded
  // under it. Span duration histograms ("span.<name>.ticks") land in metrics().
  SpanTree& spans() { return spans_; }
  const SpanTree& spans() const { return spans_; }

  // The disk currently owning `id`: its directory entry if present (which migration
  // moves), otherwise the stable hash placement used for new shards — skipping disks
  // that cannot accept new data (out of service / degraded / failed).
  int DiskFor(ShardId id) const;
  int disk_count() const { return static_cast<int>(disks_.size()); }
  bool InService(int disk) const;
  // Per-disk access for tests/examples (nullptr when out of service).
  std::shared_ptr<ShardStore> store(int disk) const;
  // The disk's persistent image + fault injector (valid even when out of service),
  // typed as the backend-blind interface.
  Disk& disk(int disk) { return *disks_[disk]; }
  // Test-only escape hatch: the concrete in-memory image, or nullptr when this node
  // runs a different backend. Production-path code must stay on disk().
  InMemoryDisk* in_memory_image(int disk) {
    return dynamic_cast<InMemoryDisk*>(disks_[disk].get());
  }

 private:
  explicit NodeServer(NodeServerOptions options);

  // DiskFor body; caller holds mu_.
  int DiskForLocked(ShardId id) const;

  // Snapshot the store for a shard under one mu_ hold, checking service state and
  // health (a degraded disk refuses mutating requests, a failed disk refuses
  // everything). `disk_out`, when set, receives the resolved disk even on failure.
  Result<std::shared_ptr<ShardStore>> Route(ShardId id, bool mutating,
                                            int* disk_out = nullptr) const;

  // Merge the store's error-budget tracker into the disk's health state (transitions
  // are sticky: the merge only ever moves health toward failed).
  void AbsorbTrackerHealth(int disk, ShardStore& target);

  // The write step shared by Put, Delete, PutBatch and DeleteBatch. Routes and
  // admission-checks each item; each disk's admitted items go to its store as one
  // ShardStore::Write, whose retry ticks are charged to `span`; the disk's health
  // absorbs the store's tracker; then each successful item's routing entry is
  // committed (put) or erased (delete), conditionally, so a migration that moved the
  // item meanwhile keeps its entry. With `item_spans`, each item gets an
  // "rpc.batch.item" child of `span`. Returns one result per item, in input order.
  std::vector<BatchItemResult> WriteItems(const std::vector<StoreWrite>& items, Span& span,
                                          bool item_spans);
  // A single-key write RPC under a root span `name`: its outcome (span_id = the root's
  // id), counted in `ok` or `err`.
  Result<BatchItemResult> WriteOne(std::string_view name, StoreWrite item, TraceContext remote,
                                   Counter* ok, Counter* err);
  // A batch write RPC under a root span `name`, counted in `calls`.
  BatchResult WriteMany(std::string_view name, Counter* calls,
                        const std::vector<StoreWrite>& items);
  // BulkCreate/BulkRemove: WriteMany under the control-plane lock, or (seeded bug #16)
  // one Put/Delete per item without it.
  std::vector<Status> Bulk(std::string_view name, Counter* calls,
                           const std::vector<StoreWrite>& items);

  // MigrateShard body; caller holds control_mu_. Store-layer children and the
  // virtual-clock ticks the migration consumed are recorded into `span` (the
  // "rpc.migrate_shard" root, or EvacuateDisk's "rpc.evacuate_disk" root).
  Status MigrateShardLocked(ShardId id, int to_disk, Span& span);

  // Opens a root span for one RPC (null clock: durations accumulate via AddTicks of
  // per-store virtual-clock deltas, since the owning disk is not known yet).
  Span RootSpan(std::string_view name, TraceContext remote = {}) {
    return remote.active() ? Span(&spans_, nullptr, name, remote)
                           : Span(&spans_, nullptr, name);
  }

  NodeServerOptions options_;
  std::vector<std::unique_ptr<Disk>> disks_;

  // Node-level observability. Leaf-mode locks / relaxed atomics inside: recording is
  // never a model-checker scheduling point.
  MetricRegistry metrics_;
  SpanTree spans_;
  Counter* put_ok_;
  Counter* put_err_;
  Counter* get_ok_;
  Counter* get_err_;
  Counter* scan_ok_;
  Counter* scan_err_;
  Counter* delete_ok_;
  Counter* delete_err_;
  Counter* batch_puts_;
  Counter* batch_deletes_;
  Counter* batch_item_ok_;
  Counter* batch_item_err_;
  Counter* list_shards_;
  Counter* migrations_;
  Counter* evacuations_;
  Counter* crash_recoveries_;
  Counter* stale_commit_skipped_;
  Counter* placement_rerouted_;
  Counter* lockorder_violations_;
  Histogram* op_ticks_;
  // Feeds each lock-order witness report into the node's metrics (constructed after
  // metrics_, destroyed before it).
  std::unique_ptr<ScopedLockOrderHandler> lockorder_handler_;

  // service state + health + directory
  mutable Mutex mu_{MutexAttr{"rpc.node", lockrank::kNode}};
  std::vector<std::shared_ptr<ShardStore>> stores_;
  std::vector<bool> in_service_;
  std::vector<DiskHealth> health_;
  std::map<ShardId, int> directory_;  // live shards -> owning disk

  // serializes bulk control-plane operations
  Mutex control_mu_{MutexAttr{"rpc.control", lockrank::kControl}};
};

}  // namespace ss

#endif  // SS_RPC_NODE_SERVER_H_
