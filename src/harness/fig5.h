// Figure 5 reproduction harness: for each of the paper's 16 catalogued issues (and the
// registry's rows #17-#19 after them), enable the corresponding seeded bug and run the
// checker class the paper credits with preventing it (property-based conformance
// testing, crash-consistency checking with dirty reboots, failure injection, or
// stateless model checking). A bug counts as
// detected when the checker reports a failure within its budget; the harness also
// records the minimization statistics the paper highlights in section 4.3.

#ifndef SS_HARNESS_FIG5_H_
#define SS_HARNESS_FIG5_H_

#include <string>

#include "src/faults/faults.h"

namespace ss {

struct Fig5Detection {
  SeededBug bug = SeededBug::kReclaimOffByOnePageSize;
  bool detected = false;
  std::string checker;        // which checker class caught it
  std::string message;        // failure description (truncated)
  size_t cases_or_execs = 0;  // PBT cases / MC executions until detection
  size_t original_ops = 0;    // failing sequence length before minimization (PBT only)
  size_t minimized_ops = 0;   // after minimization (PBT only)
  size_t shrink_runs = 0;     // property executions the minimizer spent
};

// Budgets so the whole catalog finishes quickly; raise them for a deeper hunt
// (pay-as-you-go, section 4.2).
struct Fig5Budget {
  size_t pbt_cases = 1500;
  size_t mc_iterations = 4000;
  uint64_t seed = 42;
};

// Runs the matching checker against one seeded bug (enabled for the duration).
Fig5Detection DetectSeededBug(SeededBug bug, const Fig5Budget& budget);

// Sanity baseline: runs every checker DetectSeededBug uses, within `budget`, with all
// bugs disabled; returns an error message if any checker reports a (spurious) failure.
std::string RunFig5Baseline(const Fig5Budget& budget);

}  // namespace ss

#endif  // SS_HARNESS_FIG5_H_
