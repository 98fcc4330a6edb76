// Section 4 conformance checking: the property-based harnesses must pass on the
// correct implementation across seeds (the paper's Figure 3 setup, here for the index
// component, the chunk store, the whole store, and the RPC layer), including the
// failure-injection mode of section 4.4. Coverage assertions (section 4.2) confirm the
// harnesses actually reach the interesting paths.

#include <gtest/gtest.h>

#include "src/common/cover.h"
#include "src/faults/faults.h"
#include "src/harness/component_harness.h"
#include "src/harness/kv_harness.h"
#include "src/harness/node_harness.h"
#include "src/kv/shard_store.h"
#include "src/obs/flight_recorder.h"

namespace ss {
namespace {

class ConformanceSeeds : public testing::TestWithParam<uint64_t> {
 protected:
  ConformanceSeeds() { FaultRegistry::Global().DisableAll(); }
};

TEST_P(ConformanceSeeds, IndexHarnessPasses) {
  IndexConformanceHarness harness{IndexHarnessOptions{}};
  auto runner = harness.MakeRunner({.seed = GetParam(), .num_cases = 120});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
}

TEST_P(ConformanceSeeds, ChunkHarnessPasses) {
  ChunkConformanceHarness harness{ChunkHarnessOptions{}};
  auto runner = harness.MakeRunner({.seed = GetParam(), .num_cases = 120});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
}

TEST_P(ConformanceSeeds, KvHarnessPasses) {
  KvConformanceHarness harness{KvHarnessOptions{}};
  auto runner = harness.MakeRunner({.seed = GetParam(), .num_cases = 120});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
}

TEST_P(ConformanceSeeds, KvHarnessWithFailureInjectionPasses) {
  KvHarnessOptions options;
  options.failure_injection = true;
  KvConformanceHarness harness(options);
  auto runner = harness.MakeRunner({.seed = GetParam(), .num_cases = 120});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
}

// Scan/CompactLevel ride the crash alphabet too: after a DirtyReboot the model adopts
// the persisted state, so the exact scan-vs-oracle comparison inside the harness checks
// that a post-crash scan sees exactly the persisted prefix — no lost persisted keys, no
// resurrected deletes.
TEST_P(ConformanceSeeds, KvHarnessWithCrashesAndScansPasses) {
  KvHarnessOptions options;
  options.crashes = true;
  KvConformanceHarness harness(options);
  auto runner = harness.MakeRunner({.seed = GetParam(), .num_cases = 120});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
}

TEST_P(ConformanceSeeds, RpcHarnessPasses) {
  NodeConformanceHarness harness{NodeHarnessOptions{}};
  auto runner = harness.MakeRunner({.seed = GetParam(), .num_cases = 80});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConformanceSeeds, testing::Values(1, 7, 42, 1234, 99999));

// Coverage monitoring (section 4.2): a modest run of the KV harness must reach the
// paths that matter — evacuation, cache misses, metadata recovery.
TEST(ConformanceCoverage, HarnessReachesInterestingStates) {
  FaultRegistry::Global().DisableAll();
  Coverage::Global().Reset();
  KvHarnessOptions options;
  options.crashes = true;
  KvConformanceHarness harness(options);
  auto runner = harness.MakeRunner({.seed = 2024, .num_cases = 300, .max_ops = 70});
  auto failure = runner.Run();
  ASSERT_FALSE(failure.has_value()) << failure->message;
  EXPECT_GT(Coverage::Global().Count("chunk_store.evacuate"), 0u);
  EXPECT_GT(Coverage::Global().Count("buffer_cache.miss"), 0u);
  EXPECT_GT(Coverage::Global().Count("lsm.recover_with_metadata"), 0u);
  EXPECT_GT(Coverage::Global().Count("lsm.relocate_shard_chunk"), 0u);
}

// Section 8.3's missed-bug story, reproduced: with an oversized cache every read hits,
// the cache-miss path is never reached, and only the coverage metric reveals the blind
// spot (the paper's motivation for monitoring coverage at all).
TEST(ConformanceCoverage, OversizedCacheCreatesBlindSpotMetricCatchesIt) {
  FaultRegistry::Global().DisableAll();
  // Steady-state misses (after a warm-up pass) under a given cache size.
  auto steady_state_misses = [](size_t cache_pages) {
    InMemoryDisk disk(DiskGeometry{.extent_count = 24, .pages_per_extent = 16,
                                   .page_size = 256});
    ShardStoreOptions options;
    options.cache_pages = cache_pages;
    auto store = std::move(ShardStore::Open(&disk, options).value());
    for (ShardId id = 0; id < 12; ++id) {
      EXPECT_TRUE(store->Put(id, Bytes(600, static_cast<uint8_t>(id))).ok());
    }
    EXPECT_TRUE(store->FlushAll().ok());
    // Warm-up pass (compulsory misses), then measure a steady-state pass.
    for (ShardId id = 0; id < 12; ++id) {
      (void)store->Get(id);
    }
    Coverage::Global().Reset();
    for (int round = 0; round < 3; ++round) {
      for (ShardId id = 0; id < 12; ++id) {
        (void)store->Get(id);
      }
    }
    return Coverage::Global().Count("buffer_cache.miss");
  };
  // A cache larger than the whole disk: the miss path goes completely dark — only the
  // coverage metric reveals that checking is no longer exercising it...
  EXPECT_EQ(steady_state_misses(1u << 20), 0u);
  // ...while a realistically small cache exercises it constantly.
  EXPECT_GT(steady_state_misses(8), 50u);
}

// The tentpole's seeded bug: CompactLevel drops tombstones above the bottom level,
// resurrecting deleted shards once the younger run is merged away. The property test
// must find it, minimize it, regenerate the original from the two-integer case seed,
// and capture exactly one flight-recorder artifact from the minimized re-run.
TEST(LsmSeededBug, TombstoneDropAboveBottomIsCaughtMinimizedAndRecorded) {
  FaultRegistry::Global().DisableAll();
  ScopedBug bug(SeededBug::kDropTombstonesAboveBottom);
  KvHarnessOptions options;
  KvConformanceHarness harness(options);
  auto runner = harness.MakeRunner({.seed = 7, .num_cases = 2000, .max_ops = 60});
  auto failure = runner.Run();
  ASSERT_TRUE(failure.has_value()) << "seeded tombstone-lifetime bug survived the search";
  EXPECT_FALSE(failure->minimized.empty());
  EXPECT_LE(failure->minimized.size(), failure->original.size());
  // The failure needs the leveled-compaction machinery: the minimized sequence keeps
  // at least one CompactLevel and the delete whose tombstone it loses.
  bool has_compact_level = false;
  bool has_delete = false;
  for (const KvOp& op : failure->minimized) {
    has_compact_level |= op.kind == KvOpKind::kCompactLevel;
    has_delete |= op.kind == KvOpKind::kDelete;
  }
  EXPECT_TRUE(has_compact_level);
  EXPECT_TRUE(has_delete);
  // The case seed regenerates the original sequence exactly (two-integer replay).
  const std::vector<KvOp> regenerated = runner.Generate(failure->case_seed);
  ASSERT_EQ(regenerated.size(), failure->original.size());
  for (size_t i = 0; i < regenerated.size(); ++i) {
    EXPECT_EQ(regenerated[i].ToString(), failure->original[i].ToString());
  }
  // Re-run the minimized sequence once with the recorder armed: deterministic failure,
  // one artifact carrying the violation, the op list, and the metrics.
  FlightRecorder recorder("flight");
  recorder.set_case_seed(failure->case_seed);
  KvHarnessOptions armed = options;
  armed.recorder = &recorder;
  KvConformanceHarness rerun(armed);
  auto replay_error = rerun.Run(failure->minimized);
  ASSERT_TRUE(replay_error.has_value()) << "minimized sequence stopped failing";
  EXPECT_EQ(*replay_error, failure->message);
  ASSERT_EQ(recorder.written(), 1u);
}

// Determinism: a failing case replays identically (essential for minimization).
TEST(ConformanceDeterminism, SeededBugFailsIdenticallyTwice) {
  ScopedBug bug(SeededBug::kReclaimOffByOnePageSize);
  KvConformanceHarness harness{KvHarnessOptions{}};
  auto first = harness.MakeRunner({.seed = 42, .num_cases = 400}).Run();
  auto second = harness.MakeRunner({.seed = 42, .num_cases = 400}).Run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->case_index, second->case_index);
  EXPECT_EQ(first->message, second->message);
  EXPECT_EQ(first->minimized.size(), second->minimized.size());
}

// Minimization quality (section 4.3): the minimized counterexample for a seeded bug is
// dramatically shorter than the first failing sequence.
TEST(ConformanceMinimization, ShrinksSeededBugCounterexample) {
  ScopedBug bug(SeededBug::kWriteMissingSoftPointerDep);
  KvHarnessOptions options;
  options.crashes = true;
  KvConformanceHarness harness(options);
  auto failure = harness.MakeRunner({.seed = 42, .num_cases = 2000, .max_ops = 80}).Run();
  ASSERT_TRUE(failure.has_value());
  EXPECT_LT(failure->minimized.size(), failure->original.size());
  EXPECT_LE(failure->minimized.size(), 8u);
  // The minimized sequence still needs a put and a crash.
  bool has_put = false;
  bool has_crash = false;
  for (const KvOp& op : failure->minimized) {
    has_put |= op.kind == KvOpKind::kPut;
    has_crash |= op.kind == KvOpKind::kDirtyReboot;
  }
  EXPECT_TRUE(has_put);
  EXPECT_TRUE(has_crash);
}

}  // namespace
}  // namespace ss
