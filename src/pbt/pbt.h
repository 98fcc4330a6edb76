// Property-based testing engine (paper section 4).
//
// The harness author supplies three callbacks over an operation type `Op`:
//   * gen(rng, prefix)  — draw the next operation, seeing the ops generated so far
//                         (this is where argument *biasing* lives: e.g. prefer keys
//                         that were Put earlier, sizes near the page size),
//   * run(ops)          — execute the whole sequence from a fresh system, returning a
//                         failure description or nullopt (must be deterministic),
//   * shrink_op(op)     — strictly simpler candidate replacements for one op.
//
// The runner draws `num_cases` random sequences (each from a per-case seed derived from
// the base seed, so any failure replays from two integers), and on failure minimizes:
// delta-debugging removal of operation chunks, then per-op simplification, to a local
// fixpoint — the same heuristics the paper describes ("remove an operation", "shrink an
// integer towards zero", prefer earlier enum variants; section 4.3).

#ifndef SS_PBT_PBT_H_
#define SS_PBT_PBT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace ss {

struct PbtConfig {
  uint64_t seed = 1;
  size_t num_cases = 200;
  size_t min_ops = 1;
  size_t max_ops = 60;
  // Cap on minimization executions (each shrink attempt re-runs the property).
  size_t max_shrink_runs = 4000;
  // Optional registry to mirror pbt.* progress counters into (cases, ops, failures,
  // shrink runs), so harness totals show up in the same snapshot as system metrics.
  MetricRegistry* metrics = nullptr;
};

template <typename Op>
struct PbtFailure {
  std::vector<Op> minimized;
  std::vector<Op> original;
  std::string message;            // failure from the minimized sequence
  std::string original_message;   // failure from the first failing sequence
  uint64_t case_seed = 0;
  size_t case_index = 0;
  size_t shrink_runs = 0;
};

template <typename Op>
struct PbtStats {
  size_t cases_run = 0;
  uint64_t ops_run = 0;
};

template <typename Op>
class PbtRunner {
 public:
  using GenFn = std::function<Op(Rng&, const std::vector<Op>&)>;
  using RunFn = std::function<std::optional<std::string>(const std::vector<Op>&)>;
  using ShrinkFn = std::function<std::vector<Op>(const Op&)>;

  PbtRunner(PbtConfig config, GenFn gen, RunFn run, ShrinkFn shrink_op = nullptr)
      : config_(config), gen_(std::move(gen)), run_(std::move(run)),
        shrink_op_(std::move(shrink_op)) {}

  // Runs all cases; returns the first failure (minimized) or nullopt.
  std::optional<PbtFailure<Op>> Run() {
    Rng seeder(config_.seed);
    for (size_t i = 0; i < config_.num_cases; ++i) {
      const uint64_t case_seed = seeder.Next();
      std::vector<Op> ops = Generate(case_seed);
      ++stats_.cases_run;
      stats_.ops_run += ops.size();
      if (config_.metrics != nullptr) {
        config_.metrics->counter("pbt.cases_run").Increment();
        config_.metrics->counter("pbt.ops_run").Increment(ops.size());
      }
      std::optional<std::string> error = run_(ops);
      if (error.has_value()) {
        PbtFailure<Op> failure;
        failure.original = ops;
        failure.original_message = *error;
        failure.case_seed = case_seed;
        failure.case_index = i;
        Minimize(ops, *error, failure);
        if (config_.metrics != nullptr) {
          config_.metrics->counter("pbt.failures").Increment();
          config_.metrics->counter("pbt.shrink_runs").Increment(failure.shrink_runs);
        }
        return failure;
      }
    }
    return std::nullopt;
  }

  // Deterministically regenerates the op sequence for a case seed.
  std::vector<Op> Generate(uint64_t case_seed) {
    Rng rng(case_seed);
    const size_t len = static_cast<size_t>(rng.Range(config_.min_ops, config_.max_ops));
    std::vector<Op> ops;
    ops.reserve(len);
    for (size_t k = 0; k < len; ++k) {
      ops.push_back(gen_(rng, ops));
    }
    return ops;
  }

  const PbtStats<Op>& stats() const { return stats_; }

 private:
  // Still failing? Counts against the shrink budget.
  bool Fails(const std::vector<Op>& ops, std::string* message, size_t* budget) {
    if (*budget == 0) {
      return false;
    }
    --*budget;
    std::optional<std::string> error = run_(ops);
    if (error.has_value()) {
      *message = *error;
      return true;
    }
    return false;
  }

  void Minimize(std::vector<Op> ops, std::string message, PbtFailure<Op>& failure) {
    size_t budget = config_.max_shrink_runs;
    bool progress = true;
    while (progress && budget > 0) {
      progress = false;
      // Phase 1: delta-debugging removal, halving chunk sizes down to single ops.
      for (size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
        for (size_t start = 0; start + chunk <= ops.size();) {
          std::vector<Op> candidate;
          candidate.reserve(ops.size() - chunk);
          candidate.insert(candidate.end(), ops.begin(), ops.begin() + start);
          candidate.insert(candidate.end(), ops.begin() + start + chunk, ops.end());
          std::string msg;
          if (!candidate.empty() && Fails(candidate, &msg, &budget)) {
            ops = std::move(candidate);
            message = std::move(msg);
            progress = true;
            // Re-test the same start offset against the shorter sequence.
          } else {
            start += chunk;
          }
          if (budget == 0) {
            break;
          }
        }
        if (chunk == 1 || budget == 0) {
          break;
        }
      }
      // Phase 2: per-op simplification.
      if (shrink_op_ != nullptr) {
        for (size_t i = 0; i < ops.size() && budget > 0; ++i) {
          for (const Op& simpler : shrink_op_(ops[i])) {
            std::vector<Op> candidate = ops;
            candidate[i] = simpler;
            std::string msg;
            if (Fails(candidate, &msg, &budget)) {
              ops = std::move(candidate);
              message = std::move(msg);
              progress = true;
              break;  // re-shrink this op from its new value on the next sweep
            }
          }
        }
      }
    }
    failure.minimized = std::move(ops);
    failure.message = std::move(message);
    failure.shrink_runs = config_.max_shrink_runs - budget;
  }

  PbtConfig config_;
  GenFn gen_;
  RunFn run_;
  ShrinkFn shrink_op_;
  PbtStats<Op> stats_;
};

// --- Harness engine -------------------------------------------------------------------

// The one engine every PBT harness runs on. A harness derives from
// PbtHarness<Self, Op, Options> and supplies only its alphabet and its property:
//   static Op Gen(Rng& rng, const std::vector<Op>& prefix, const Options& options);
//   static std::vector<Op> Shrink(const Op& op);
//   std::optional<std::string> Run(const std::vector<Op>& ops);
// MakeRunner wires the three into a PbtRunner. Every case, and every shrink attempt,
// runs on a fresh harness over a copy of the options.
template <typename Self, typename OpT, typename OptionsT>
class PbtHarness {
 public:
  using Op = OpT;
  using Options = OptionsT;

  explicit PbtHarness(Options options) : options_(std::move(options)) {}

  PbtRunner<Op> MakeRunner(PbtConfig config) const {
    return PbtRunner<Op>(
        config,
        [options = options_](Rng& rng, const std::vector<Op>& prefix) {
          return Self::Gen(rng, prefix, options);
        },
        [options = options_](const std::vector<Op>& ops) { return Self(options).Run(ops); },
        [](const Op& op) { return Self::Shrink(op); });
  }

 protected:
  Options options_;
};

// --- Biasing helpers (section 4.2) ----------------------------------------------------

// Sizes biased toward "interesting" byte counts: mostly small, sometimes near multiples
// of the page size adjusted for the chunk frame overhead (the corner the paper calls
// out as a frequent source of bugs), occasionally large.
size_t BiasedValueSize(Rng& rng, uint32_t page_size, size_t frame_overhead, size_t max_size);

// Key biased toward reuse: with probability `reuse_p` picks one of `used` (if any),
// otherwise uniform in [0, fresh_bound).
uint64_t BiasedKey(Rng& rng, const std::vector<uint64_t>& used, double reuse_p,
                   uint64_t fresh_bound);

}  // namespace ss

#endif  // SS_PBT_PBT_H_
