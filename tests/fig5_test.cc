// Figure 5 end-to-end: every one of the 16 catalogued issues, seeded into the
// implementation (or its models), is detected by the checker class the paper credits,
// and so is every registry row after them. Parameterized over all bugs; each runs the
// full detection pipeline from fig5.h.

#include <gtest/gtest.h>

#include "src/harness/fig5.h"

namespace ss {
namespace {

class Fig5Detect : public testing::TestWithParam<int> {};

TEST_P(Fig5Detect, SeededBugIsDetected) {
  const auto bug = static_cast<SeededBug>(GetParam());
  Fig5Budget budget;
  Fig5Detection detection = DetectSeededBug(bug, budget);
  EXPECT_TRUE(detection.detected)
      << SeededBugName(bug) << " was not detected by " << detection.checker << " within "
      << detection.cases_or_execs << " cases/executions";
  if (detection.detected && detection.original_ops > 0) {
    // Minimization never grows the counterexample.
    EXPECT_LE(detection.minimized_ops, detection.original_ops);
  }
}

// gtest names: "#1 Foo" -> "Bug1_Foo".
std::string BugParamName(const testing::TestParamInfo<int>& info) {
  std::string out = "Bug";
  for (char c : SeededBugName(static_cast<SeededBug>(info.param))) {
    if (isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (c == ' ') {
      out += '_';
    }
  }
  return out;
}

// The paper's 16 rows.
INSTANTIATE_TEST_SUITE_P(AllSixteen, Fig5Detect, testing::Range(0, kPaperSeededBugCount),
                         BugParamName);
// The registry's rows after the paper's (#17-#19), at the same default budget.
INSTANTIATE_TEST_SUITE_P(AfterThePaper, Fig5Detect,
                         testing::Range(kPaperSeededBugCount, kSeededBugCount), BugParamName);

// With no bug seeded, every checker the catalog uses passes: a detection above is the
// bug's doing, not a checker that fails on the correct implementation.
TEST(Fig5Baseline, EveryCheckerPassesWithNoBugSeeded) {
  Fig5Budget budget;
  budget.pbt_cases = 200;
  budget.mc_iterations = 1000;
  EXPECT_EQ(RunFig5Baseline(budget), "");
}

}  // namespace
}  // namespace ss
