#include "src/harness/fig5.h"

#include <cstdint>
#include <set>

#include "src/harness/cluster_harness.h"
#include "src/harness/component_harness.h"
#include "src/harness/concurrency.h"
#include "src/harness/kv_harness.h"
#include "src/harness/node_harness.h"

namespace ss {

namespace {

// Which checker catches which bug (the paper's section per Figure 5 row).
enum class Checker : uint8_t {
  kPbtConformance,       // section 4: sequential conformance vs the reference model
  kPbtRpcConformance,    // section 4: node-level conformance with the control plane
  kPbtCrashConsistency,  // section 5: conformance with DirtyReboot crash states
  kPbtFailureInjection,  // section 4.4: conformance with injected IO failures
  kPbtChunkComponent,    // section 4: chunk-store component harness (model invariants)
  kPbtClusterQuorum,     // section 4.4 at the cluster tier: quorum fault storms
  kMcFig4,               // section 6: Figure 4 index harness under the model checker
  kMcFlushReclaim,       // section 6: narrow flush/reclamation window harness
  kMcBufferPool,         // section 6: deadlock detection
  kMcListRemove,         // section 6: control-plane race
  kMcBulk,               // section 6: bulk-op atomicity
  kMcScanCompact,        // section 6: range scan vs partial level merge
  kMcPutMigrate,         // section 6: request-plane routing commit vs migration
};

Checker CheckerFor(SeededBug bug) {
  switch (bug) {
    case SeededBug::kReclaimOffByOnePageSize:
    case SeededBug::kCacheNotDrainedOnReset:
    case SeededBug::kShutdownMetadataSkipAfterReset:
      return Checker::kPbtConformance;
    case SeededBug::kDiskRemovalLosesShards:
      return Checker::kPbtRpcConformance;
    case SeededBug::kReclaimForgetsChunkOnReadError:
      return Checker::kPbtFailureInjection;
    case SeededBug::kSuperblockWrongOwnershipDep:
    case SeededBug::kSoftPointerNotResetPersisted:
    case SeededBug::kWriteMissingSoftPointerDep:
    case SeededBug::kRecoveryWritePointerPastCrash:
    case SeededBug::kReclaimUuidCollision:
      return Checker::kPbtCrashConsistency;
    case SeededBug::kLocatorInvalidOnWriteFlushRace:
      return Checker::kMcFig4;
    case SeededBug::kCompactReclaimMetadataRace:
      return Checker::kMcFlushReclaim;
    case SeededBug::kBufferPoolDeadlock:
      return Checker::kMcBufferPool;
    case SeededBug::kListRemoveRace:
      return Checker::kMcListRemove;
    case SeededBug::kModelLocatorReuse:
      return Checker::kPbtChunkComponent;
    case SeededBug::kBulkCreateRemoveRace:
      return Checker::kMcBulk;
    case SeededBug::kReadRepairWrongValue:
      return Checker::kPbtClusterQuorum;
    case SeededBug::kDropTombstonesAboveBottom:
      return Checker::kMcScanCompact;
    case SeededBug::kUnconditionalRouteCommit:
      return Checker::kMcPutMigrate;
  }
  return Checker::kPbtConformance;
}

std::string_view CheckerName(Checker checker) {
  switch (checker) {
    case Checker::kPbtConformance:
      return "property-based conformance (sec 4)";
    case Checker::kPbtRpcConformance:
      return "RPC-level conformance (sec 4)";
    case Checker::kPbtCrashConsistency:
      return "crash-consistency conformance (sec 5)";
    case Checker::kPbtFailureInjection:
      return "failure-injection conformance (sec 4.4)";
    case Checker::kPbtChunkComponent:
      return "chunk-store component conformance (sec 4)";
    case Checker::kPbtClusterQuorum:
      return "cluster quorum conformance (sec 4.4)";
    case Checker::kMcFig4:
      return "stateless model checking, Fig 4 harness (sec 6)";
    case Checker::kMcFlushReclaim:
      return "stateless model checking, flush/reclaim harness (sec 6)";
    case Checker::kMcBufferPool:
      return "stateless model checking, deadlock (sec 6)";
    case Checker::kMcListRemove:
      return "stateless model checking, list/remove (sec 6)";
    case Checker::kMcBulk:
      return "stateless model checking, bulk ops (sec 6)";
    case Checker::kMcScanCompact:
      return "stateless model checking, scan/compact (sec 6)";
    case Checker::kMcPutMigrate:
      return "stateless model checking, put/migrate (sec 6)";
  }
  return "?";
}

// The model-checking body for an MC checker; null for a PBT checker.
std::function<void()> McBody(Checker checker) {
  switch (checker) {
    case Checker::kMcFig4:
      return MakeFig4IndexBody();
    case Checker::kMcFlushReclaim:
      return MakeFlushReclaimBody();
    case Checker::kMcBufferPool:
      return MakeBufferPoolBody();
    case Checker::kMcListRemove:
      return MakeListRemoveBody();
    case Checker::kMcBulk:
      return MakeBulkAtomicityBody();
    case Checker::kMcScanCompact:
      return MakeScanCompactBody();
    case Checker::kMcPutMigrate:
      return MakePutMigrateBody();
    default:
      return nullptr;
  }
}

// Runs one PBT harness and records what it found.
template <typename Harness>
void RunPbt(const typename Harness::Options& options, const PbtConfig& config,
            Fig5Detection& out) {
  auto runner = Harness(options).MakeRunner(config);
  const auto failure = runner.Run();
  out.cases_or_execs = runner.stats().cases_run;
  if (failure.has_value()) {
    out.detected = true;
    out.message = failure->message;
    out.original_ops = failure->original.size();
    out.minimized_ops = failure->minimized.size();
    out.shrink_runs = failure->shrink_runs;
  }
}

// Runs `checker` within `budget`; `mc_seed` seeds the PCT priority stream.
Fig5Detection RunChecker(Checker checker, const Fig5Budget& budget, uint64_t mc_seed) {
  Fig5Detection out;
  out.checker = std::string(CheckerName(checker));
  const PbtConfig pbt{.seed = budget.seed, .num_cases = budget.pbt_cases};

  switch (checker) {
    case Checker::kPbtConformance:
      RunPbt<KvConformanceHarness>({}, pbt, out);
      break;
    case Checker::kPbtRpcConformance:
      RunPbt<NodeConformanceHarness>({}, pbt, out);
      break;
    case Checker::kPbtCrashConsistency: {
      KvHarnessOptions options;
      options.crashes = true;
      PbtConfig config = pbt;
      config.max_ops = 80;
      RunPbt<KvConformanceHarness>(options, config, out);
      break;
    }
    case Checker::kPbtFailureInjection: {
      KvHarnessOptions options;
      options.failure_injection = true;
      RunPbt<KvConformanceHarness>(options, pbt, out);
      break;
    }
    case Checker::kPbtChunkComponent:
      RunPbt<ChunkConformanceHarness>({}, pbt, out);
      break;
    case Checker::kPbtClusterQuorum:
      RunPbt<ClusterConformanceHarness>({}, pbt, out);
      break;
    default: {
      McOptions mc;
      mc.strategy = McOptions::Strategy::kPct;
      mc.iterations = budget.mc_iterations;
      mc.seed = mc_seed;
      McResult result = McExplore(McBody(checker), mc);
      out.cases_or_execs = result.executions;
      if (!result.ok) {
        out.detected = true;
        out.message = result.deadlock ? "deadlock: " + result.error : result.error;
      }
      break;
    }
  }
  if (out.message.size() > 160) {
    out.message.resize(160);
    out.message += "...";
  }
  return out;
}

}  // namespace

Fig5Detection DetectSeededBug(SeededBug bug, const Fig5Budget& budget) {
  ScopedBug scope(bug);
  // Decorrelate the PCT priority stream per bug.
  Fig5Detection out =
      RunChecker(CheckerFor(bug), budget, budget.seed + static_cast<uint64_t>(bug) * 1009);
  out.bug = bug;
  return out;
}

std::string RunFig5Baseline(const Fig5Budget& budget) {
  FaultRegistry::Global().DisableAll();
  std::set<Checker> run;
  for (int b = 0; b < kSeededBugCount; ++b) {
    const Checker checker = CheckerFor(static_cast<SeededBug>(b));
    if (!run.insert(checker).second) {
      continue;
    }
    Fig5Detection out = RunChecker(checker, budget, budget.seed);
    if (out.detected) {
      return "baseline " + out.checker + " failed: " + out.message;
    }
  }
  return "";
}

}  // namespace ss
