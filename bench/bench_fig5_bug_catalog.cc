// Figure 5 reproduction: the headline result. Seeds each of the paper's 16 catalogued
// issues, and the registry's rows #17-#19 after them, into the implementation (or its
// reference models), runs the checker class the paper credits with preventing it, and
// prints the resulting table: component, description, checker, detection status,
// effort (cases/executions until detection), and minimization statistics.
//
//   $ ./build/bench/bench_fig5_bug_catalog [--pbt-cases N] [--mc-iters N] [--seed N]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/harness/fig5.h"

using namespace ss;

int main(int argc, char** argv) {
  Fig5Budget budget;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (strcmp(argv[i], "--pbt-cases") == 0) {
      budget.pbt_cases = static_cast<size_t>(atoll(argv[i + 1]));
    } else if (strcmp(argv[i], "--mc-iters") == 0) {
      budget.mc_iterations = static_cast<size_t>(atoll(argv[i + 1]));
    } else if (strcmp(argv[i], "--seed") == 0) {
      budget.seed = static_cast<uint64_t>(atoll(argv[i + 1]));
    }
  }

  printf("=== Figure 5: issues prevented from reaching production ===\n");
  printf("(each issue seeded into the implementation, then hunted by its checker;\n");
  printf(" budget: %zu PBT cases / %zu MC executions per issue, seed %llu)\n\n",
         budget.pbt_cases, budget.mc_iterations,
         static_cast<unsigned long long>(budget.seed));

  printf("%-4s %-13s %-44s %-9s %9s %11s %6s\n", "ID", "Component", "Checker", "Result",
         "effort", "orig->min", "sec");
  printf("%.*s\n", 110,
         "--------------------------------------------------------------------------------"
         "------------------------------");

  int detected = 0;
  double total_seconds = 0;
  for (int b = 0; b < kSeededBugCount; ++b) {
    const auto bug = static_cast<SeededBug>(b);
    const auto start = std::chrono::steady_clock::now();
    Fig5Detection d = DetectSeededBug(bug, budget);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    total_seconds += seconds;
    detected += d.detected ? 1 : 0;

    char shrink[32] = "-";
    if (d.original_ops > 0) {
      snprintf(shrink, sizeof(shrink), "%zu->%zu", d.original_ops, d.minimized_ops);
    }
    printf("%-4.*s %-13s %-44s %-9s %9zu %11s %6.2f\n", 3, SeededBugName(bug).data(),
           std::string(SeededBugComponent(bug)).c_str(), d.checker.c_str(),
           d.detected ? "DETECTED" : "MISSED", d.cases_or_execs, shrink, seconds);
    printf("     %s\n", std::string(SeededBugDescription(bug)).c_str());
  }

  printf("\n%d/%d issues detected in %.1f s total.\n", detected, kSeededBugCount,
         total_seconds);
  printf("(paper: all 16 were prevented from reaching production; detection effort is\n");
  printf(" pay-as-you-go — raise the budget flags for a deeper hunt.)\n");
  return detected == kSeededBugCount ? 0 : 1;
}
