// Fault-alphabet conformance harness for the disk failure domain (paper section 4.2's
// failure-injection mode, lifted to the node level).
//
// The alphabet interleaves KV operations with fault actions: arming transient
// read/write bursts (some shorter than the extent layer's retry budget — absorbed —
// and some longer — surfaced), arming permanent extent failures, control-plane
// degrade/evacuate/health-reset, clearing injectors, and whole-disk crash-reboots.
// Three properties are checked:
//
//   * No lost acknowledged writes: an operation that succeeded must be readable with
//     exactly the model's value; kNotFound against a model-present key is a violation
//     except where the crash extension explicitly allows it.
//   * Fault-aware conformance: request-plane errors are only legal when the oracle can
//     point at a cause — kUnavailable when the routed disk is out of service, failed,
//     or (for mutations) degraded; kIoError/kDiskFailed only while the routed disk has
//     injector faults armed. A healthy, un-faulted disk must behave exactly like the
//     model.
//   * Forward progress: after the sequence, every injector is cleared, every disk is
//     restored and its health reset, and everything is flushed. Then every surviving
//     dependency must report persistent and every touched key must match the model
//     exactly — faults may deny service while present, never after they clear.
//
// Crash-reboots collapse the model per key via KvStoreModel::AdoptPostCrash, the same
// persistence property the single-store harness checks, restricted to keys the crashed
// disk owned. Dependencies recorded for a crashed disk are dropped from the
// forward-progress log (their writebacks died with the scheduler).

#ifndef SS_HARNESS_FAILURE_HARNESS_H_
#define SS_HARNESS_FAILURE_HARNESS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/model/models.h"
#include "src/pbt/pbt.h"
#include "src/rpc/node_server.h"

namespace ss {

class FlightRecorder;

// Ordered by increasing complexity so the minimizer prefers simpler operations.
enum class FailureOpKind : uint8_t {
  kGet = 0,
  kPut,
  kDelete,
  kPumpIo,        // pump one disk's IO scheduler (model no-op)
  kFlushAll,      // flush every in-service disk (model no-op)
  kClearFaults,   // clear one disk's injector
  kResetHealth,   // operator: health back to healthy, fresh error budget
  kArmTransientRead,   // burst of read faults on one extent; may absorb or surface
  kArmTransientWrite,  // burst of write faults on one extent
  kArmPermanent,       // FailAlways on one extent: kDiskFailed until cleared
  kDegradeDisk,        // operator: mark read-only
  kEvacuateDisk,       // drain onto healthy peers
  kCrashReboot,        // crash the disk's scheduler, recover, reconcile routing
  kPutBatch,           // batched puts through the group-commit pipeline
};

struct FailureOp {
  FailureOpKind kind = FailureOpKind::kGet;
  ShardId id = 0;
  Bytes value;         // kPut payload
  uint32_t disk = 0;   // target disk for fault/control actions
  uint32_t extent = 1; // target extent for arm actions
  uint32_t count = 1;  // burst length (kArmTransient*) / pump count
  uint64_t seed = 0;   // kCrashReboot crash state seed
  std::vector<std::pair<ShardId, Bytes>> batch;  // kPutBatch items
  std::string ToString() const;
};

struct FailureHarnessOptions {
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

FailureOp GenFailureOp(Rng& rng, const std::vector<FailureOp>& prefix,
                       const FailureHarnessOptions& options);
std::vector<FailureOp> ShrinkFailureOp(const FailureOp& op);

class FailureConformanceHarness {
 public:
  explicit FailureConformanceHarness(FailureHarnessOptions options) : options_(options) {}
  std::optional<std::string> Run(const std::vector<FailureOp>& ops);
  PbtRunner<FailureOp> MakeRunner(PbtConfig config) const;

 private:
  FailureHarnessOptions options_;
};

}  // namespace ss

#endif  // SS_HARNESS_FAILURE_HARNESS_H_
