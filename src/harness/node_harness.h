// Node-level conformance harness: one NodeServer against one KvStoreModel, driven by
// one alphabet that interleaves the request plane (Get/Put/Delete/PutBatch), the
// control plane of paper section 2.1 (List, taking disks out of service and returning
// them, shard migration, flushing) and the disk failure domain of section 4.4 (arming
// transient read/write bursts — some shorter than the extent layer's retry budget,
// absorbed, and some longer, surfaced — arming permanent extent failures,
// degrade/evacuate/health-reset, clearing injectors, and whole-disk crash-reboots).
// Failure injection adds operations to the alphabet; it is not a second harness.
// Seeded bug #4 (a removed-and-returned disk loses shards) is this harness's Figure 5
// row. Properties:
//
//   * Conformance: an operation that succeeded must be readable with exactly the
//     model's value; the listing equals the model's shards on in-service disks; a
//     migrated shard keeps its value.
//   * Every accepted error names its cause in the pre-op state. A request routed to
//     an out-of-service disk must fail with kUnavailable — a success there is a
//     violation. Otherwise kUnavailable needs a health gate on the routed disk (failed,
//     or degraded for mutations), kIoError/kDiskFailed an armed injector, and "full"
//     the one full rule of checks.h. A healthy, un-faulted disk behaves exactly like
//     the model. Control-plane errors are judged the same way against the disks the
//     operation touches.
//   * Forward progress: after the sequence, every injector is cleared, every disk is
//     restored and its health reset, and everything is flushed. Then every surviving
//     dependency must report persistent and every touched key must match the model
//     exactly — faults may deny service while present, never after they clear.
//   * Metrics: every request-plane call the harness issues shows up as exactly one
//     rpc.<op>.{ok,err} increment and one span.rpc.<op>.ticks sample.
//
// Crash-reboots collapse the model per key with the post-crash adoption sweep of
// checks.h, restricted to keys the crashed disk owned. Dependencies recorded for a
// crashed disk are dropped from the forward-progress log (their writebacks died with
// the scheduler).

#ifndef SS_HARNESS_NODE_HARNESS_H_
#define SS_HARNESS_NODE_HARNESS_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/model/models.h"
#include "src/pbt/pbt.h"
#include "src/rpc/node_server.h"

namespace ss {

class FlightRecorder;

enum class NodeOpKind : uint8_t {
  kGet = 0,
  kPut,
  kDelete,
  kList,
  kPumpIo,             // pump one disk's IO scheduler (model no-op)
  kFlushAll,           // flush every in-service disk (model no-op)
  kClearFaults,        // clear one disk's injector
  kResetHealth,        // operator: health back to healthy, fresh error budget
  kArmTransientRead,   // burst of read faults on one extent; may absorb or surface
  kArmTransientWrite,  // burst of write faults on one extent
  kArmPermanent,       // FailAlways on one extent: kDiskFailed until cleared
  kRemoveDisk,         // operator: clean shutdown, out of service
  kRestoreDisk,        // operator: reopen from the persistent image, back in service
  kMigrate,            // move a shard to another disk (model no-op)
  kDegradeDisk,        // operator: mark read-only
  kEvacuateDisk,       // drain onto healthy peers
  kCrashReboot,        // crash the disk's scheduler, recover, reconcile routing
  kPutBatch,           // batched puts through the group-commit pipeline
};

struct NodeOp {
  NodeOpKind kind = NodeOpKind::kGet;
  ShardId id = 0;
  Bytes value;         // kPut payload
  uint32_t disk = 0;   // target disk for fault/control actions and kMigrate
  uint32_t extent = 1; // target extent for arm actions
  uint32_t count = 1;  // burst length (kArmTransient*) / pump count
  uint64_t seed = 0;   // kCrashReboot crash state seed
  std::vector<std::pair<ShardId, Bytes>> batch;  // kPutBatch items
  std::string ToString() const;
};

struct NodeHarnessOptions {
  NodeServerOptions node{.disk_count = 3,
                         .geometry = {.extent_count = 16, .pages_per_extent = 16,
                                      .page_size = 256}};
  uint64_t key_bound = 16;
  size_t max_value_bytes = 600;
  // When set, any violation captures a flight-recorder artifact from the node (metric
  // snapshot, rpc.* span trees, per-disk dependency DOT and
  // persisted-vs-volatile extents). Arm only for the one-shot re-run of a minimized
  // counterexample, not during search/shrinking.
  FlightRecorder* recorder = nullptr;
};

// What the pre-op state licenses for one request-plane call (a Get, Put, Delete or
// batch item), read off the disk the shard routes to.
struct RouteState {
  bool in_service = true;
  bool gated = false;  // failed, or degraded for a mutation
  bool armed = false;  // the disk's injector has a fault armed
};

// The request-plane oracle: nullopt when the pre-op state licenses `status`, else the
// violation. A call routed to an out-of-service disk must return kUnavailable, and
// anything else — a success included — is a violation. Otherwise success is legal,
// "full" is legal where `may_fill` (a put) under the full rule, kUnavailable needs
// `gated` and kIoError/kDiskFailed need `armed`.
std::optional<std::string> JudgeRequest(const Status& status, const RouteState& route,
                                        bool may_fill);

class NodeConformanceHarness
    : public PbtHarness<NodeConformanceHarness, NodeOp, NodeHarnessOptions> {
 public:
  using PbtHarness::PbtHarness;
  static NodeOp Gen(Rng& rng, const std::vector<NodeOp>& prefix,
                    const NodeHarnessOptions& options);
  static std::vector<NodeOp> Shrink(const NodeOp& op);
  std::optional<std::string> Run(const std::vector<NodeOp>& ops);
};

}  // namespace ss

#endif  // SS_HARNESS_NODE_HARNESS_H_
