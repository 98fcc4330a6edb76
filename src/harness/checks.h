// Oracle plumbing shared by the PBT harnesses: the one path every harness reports a
// violation through, the one check of a read against the reference model, the one
// rule for when "full" is a legal answer, and the one post-crash adoption sweep.

#ifndef SS_HARNESS_CHECKS_H_
#define SS_HARNESS_CHECKS_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/dep/dep_lint.h"
#include "src/model/models.h"
#include "src/obs/flight_recorder.h"
#include "src/rpc/node_server.h"

namespace ss {

// The violation path. Every violation reads "op#<i> <op>: <what>", where <op> is the
// rendered ops[i], or "<end>" for a check after the last op (i == ops.size()).
//
// With a recorder armed — the one-shot re-run of a minimized sequence, never search or
// shrinking, which re-run the property thousands of times — each violation also writes
// a flight artifact: harness name, violation, rendered op list, plus whatever the
// harness's capture adds (store, node or cluster state). While the recorder is armed
// the dependency linter also checks every barrier the run crosses, and lock-order and
// dep-lint reports land as artifacts of their own. Construct Violations before the
// system under test, so the analysis covers its whole life.
template <typename Op>
class Violations {
 public:
  Violations(std::string harness, const std::vector<Op>& ops,
             FlightRecorder* recorder = nullptr)
      : harness_(std::move(harness)), ops_(ops), recorder_(recorder) {
    if (recorder_ != nullptr) {
      lint_.emplace(true);
      lockorder_sink_.emplace(recorder_);
      deplint_sink_.emplace(recorder_);
    }
  }

  // Adds the harness's own state to every artifact; runs only with a recorder armed.
  void set_capture(std::function<void(FlightRecord&)> capture) {
    capture_ = std::move(capture);
  }

  // Formats and records the violation; returns it for the harness's Run to fail with.
  std::optional<std::string> operator()(size_t i, const std::string& what) const {
    std::string message = "op#" + std::to_string(i) + " " +
                          (i < ops_.size() ? ops_[i].ToString() : std::string("<end>")) +
                          ": " + what;
    if (recorder_ != nullptr) {
      FlightRecord record;
      record.harness = harness_;
      record.violation = message;
      record.ops.reserve(ops_.size());
      for (const Op& op : ops_) {
        record.ops.push_back(op.ToString());
      }
      if (capture_ != nullptr) {
        capture_(record);
      }
      (void)recorder_->Write(record);
    }
    return message;
  }

 private:
  std::string harness_;
  const std::vector<Op>& ops_;
  FlightRecorder* recorder_;
  std::function<void(FlightRecord&)> capture_;
  std::optional<ScopedDepLint> lint_;
  std::optional<ScopedLockOrderFlightSink> lockorder_sink_;
  std::optional<ScopedDepLintFlightSink> deplint_sink_;
};

// Judges an error that is neither success nor NotFound: nullopt when the caller's
// fault state licenses it, else the violation.
using ErrorOracle = std::function<std::optional<std::string>(const Status&)>;

// The read oracle: one read of shard `id` against the model's value (nullopt =
// absent). Data for an absent shard, wrong data, and NotFound for a present shard are
// violations. Any other error goes to `on_error`; without one it is a violation.
std::optional<std::string> CheckRead(ShardId id, const std::optional<Bytes>& expected,
                                     const Result<Bytes>& got,
                                     const ErrorOracle& on_error = nullptr);
std::optional<std::string> CheckRead(ShardId id, const std::optional<Bytes>& expected,
                                     const Result<GetResult>& got,
                                     const ErrorOracle& on_error = nullptr);

// The one "full" rule: whether an oracle accepts `status` as the system legitimately
// running out of space. Today any kResourceExhausted is accepted; a space-liveness
// property (full only when live data nears capacity) is a change to this function.
inline bool IsLegallyFull(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted;
}

// Reads one shard for the post-crash sweep: its value, or the read's error.
using CrashRead = std::function<Result<Bytes>(ShardId)>;

// The post-crash adoption sweep (section 5): reads each of `keys` through `read`, and
// collapses the model onto what survived with KvStoreModel::AdoptPostCrash. NotFound
// observes the key absent. Any other error is a violation, and so is an observation
// outside the crash-allowed set: a value older than the last persisted mutation, or a
// persisted mutation lost.
std::optional<std::string> AdoptPostCrashSweep(KvStoreModel& model,
                                               const std::vector<ShardId>& keys,
                                               const CrashRead& read);

}  // namespace ss

#endif  // SS_HARNESS_CHECKS_H_
