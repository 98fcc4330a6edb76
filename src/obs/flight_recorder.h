// Failure flight recorder: replayable counterexample artifacts (the observability
// tentpole's second half, next to span.h).
//
// When a harness oracle trips — conformance mismatch, lost acknowledged write,
// forward-progress violation, MC_CHECK failure — the raw failure string names the op
// that tripped, but diagnosing it needs the state the run died with: which writebacks
// were still pending and on what dependencies, what the disks had actually persisted
// versus what the volatile layers believed, which spans the failing operation
// recorded, and — above all — the two integers that re-create the run exactly
// (PBT case seed, or the model checker's schedule).
//
// The recorder bundles all of that into one JSON artifact per violation. Harness
// options carry an optional `FlightRecorder*`; the intended protocol is to leave it
// null during search and minimization (a shrink pass re-runs the property thousands
// of times and would spam one artifact per failing candidate), then re-run the
// minimized sequence once with the recorder armed. Artifacts land in a directory
// resolved as: constructor argument, else $SS_FLIGHT_DIR, else "flight" — CI points
// this at build/flight and uploads it when a test job fails.
//
// Replaying an artifact:
//   * PBT harnesses: `runner.Generate(case_seed)` regenerates the original op
//     sequence; the `ops` array is the minimized sequence, re-runnable through the
//     harness's Run directly.
//   * Model-checked bodies: `McReplay(body, mc_schedule)` re-executes the exact
//     failing interleaving.

#ifndef SS_OBS_FLIGHT_RECORDER_H_
#define SS_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dep/dep_lint.h"
#include "src/mc/mc.h"
#include "src/sync/witness.h"

namespace ss {

class NodeServer;
class ShardStore;

// One counterexample artifact. String members holding "_json" are pre-serialized
// JSON fragments spliced into the artifact verbatim (empty = field omitted);
// `dependency_dot` is a Graphviz document and is escaped as a JSON string.
struct FlightRecord {
  std::string harness;    // which harness tripped ("kv_conformance", "mc", ...)
  std::string violation;  // the oracle's failure message
  std::vector<std::string> ops;  // rendered (minimized) op sequence, one op per entry
  uint64_t case_seed = 0;        // PbtRunner::Generate(case_seed) -> original sequence
  std::vector<uint32_t> mc_schedule;  // McReplay schedule (MC failures only)
  std::string metrics_json;   // MetricsSnapshot::ToJson() at the moment of violation
  std::string spans_json;     // SpanTree::ToJson() — the run's causal span trees
                              // (for a node: one root span per retained RPC)
  std::string dependency_dot; // DOT graph of unpersisted writes (IoScheduler queue)
  std::string disks_json;     // persisted-vs-volatile extent summary per disk
  std::string analysis_json;  // static/dynamic analysis report (lock-order witness
                              // LockOrderReport::ToJson(), dep linter
                              // DepLintReport::ToJson())
  std::string cluster_json;        // ClusterCoordinator::ClusterSnapshotJson() — ring,
                                   // FD states, hints, pending moves, aggregated metrics
  std::string cluster_trace_json;  // ClusterTrace::ToJson() — the failing op's
                                   // assembled cross-node trace
};

// Fills `record` from a live single-disk store: metric snapshot, pending-writeback
// dependency DOT, and the persisted (superblock) vs volatile (ExtentManager) view of
// every non-free extent. Span JSON is the caller's to provide (the store itself owns
// no SpanTree; harnesses thread their own).
void CaptureStore(ShardStore& store, FlightRecord& record);

// Fills `record` from a live node: node-wide metric snapshot, the node's span tree,
// and per-disk dependency DOTs and extent summaries (out-of-service disks contribute
// their persisted side only).
void CaptureNode(NodeServer& node, FlightRecord& record);

// Builds a record for a failed model-checking result: the error message and the
// replayable schedule. `name` labels the body (e.g. "put_migrate_race").
FlightRecord MakeMcFlightRecord(const McResult& result, std::string_view name);

// Builds a record for a lock-order witness violation: the report (both acquisition
// stacks) lands in `analysis_json`.
FlightRecord MakeLockOrderFlightRecord(const LockOrderReport& report);

// Builds a record for a dependency-lint failure: the violation list lands in
// `analysis_json` and the offending pending graph in `dependency_dot`.
FlightRecord MakeDepLintFlightRecord(const DepLintReport& report);

// Writes artifacts. Not thread-safe; arm one recorder per (re-)run.
class FlightRecorder {
 public:
  // Directory resolution: `dir` if non-empty, else $SS_FLIGHT_DIR, else "flight".
  explicit FlightRecorder(std::string dir = "");

  // Annotates subsequent writes whose record carries no case seed of its own; set by
  // the driver before re-running a minimized PBT sequence (the harness capturing the
  // violation does not know which seed generated it).
  void set_case_seed(uint64_t seed) { case_seed_ = seed; }

  // Serializes `record` to <dir>/flight-<n>-<harness>.json (creating the directory)
  // and returns the path.
  Result<std::string> Write(const FlightRecord& record);

  const std::string& dir() const { return dir_; }
  size_t written() const { return written_; }

 private:
  std::string dir_;
  uint64_t case_seed_ = 0;
  size_t written_ = 0;
};

// RAII sink: while alive, every lock-order witness violation detected on a native run
// is written to `recorder` as a flight artifact. Harnesses arm one next to the
// recorder itself.
class ScopedLockOrderFlightSink {
 public:
  explicit ScopedLockOrderFlightSink(FlightRecorder* recorder);

 private:
  std::unique_ptr<ScopedLockOrderHandler> handler_;
};

// RAII sink: while alive, every dependency-lint failure reported at a flush/barrier
// is written to `recorder` as a flight artifact.
class ScopedDepLintFlightSink {
 public:
  explicit ScopedDepLintFlightSink(FlightRecorder* recorder);

 private:
  std::unique_ptr<ScopedDepLintHandler> handler_;
};

}  // namespace ss

#endif  // SS_OBS_FLIGHT_RECORDER_H_
