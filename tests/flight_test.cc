// Flight recorder end-to-end: a seeded harness violation produces one structured JSON
// artifact (metric snapshot, span tree, pending-writeback dependency DOT,
// persisted-vs-volatile disk summary, case seed / MC schedule), and the replay
// handles in the artifact — PbtRunner::Generate(case_seed), re-running the minimized
// sequence, McReplay(mc_schedule) — reproduce the failure deterministically.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/faults/faults.h"
#include "src/harness/kv_harness.h"
#include "src/mc/mc.h"
#include "src/obs/flight_recorder.h"
#include "src/rpc/node_server.h"
#include "src/sync/sync.h"

namespace ss {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> Rendered(const std::vector<KvOp>& ops) {
  std::vector<std::string> out;
  out.reserve(ops.size());
  for (const KvOp& op : ops) {
    out.push_back(op.ToString());
  }
  return out;
}

class FlightTest : public testing::Test {
 protected:
  FlightTest() { FaultRegistry::Global().DisableAll(); }
};

// The full protocol from the flight_recorder.h doc comment: search with the recorder
// disarmed, then re-run the minimized counterexample once with it armed; the artifact
// must carry everything needed to reproduce the failure from two integers.
TEST_F(FlightTest, KvHarnessViolationWritesAReplayableArtifact) {
  ScopedBug bug(SeededBug::kReclaimOffByOnePageSize);

  KvHarnessOptions options;
  KvConformanceHarness harness(options);
  PbtRunner<KvOp> runner =
      harness.MakeRunner(PbtConfig{.seed = 42, .num_cases = 1500});
  std::optional<PbtFailure<KvOp>> failure = runner.Run();
  ASSERT_TRUE(failure.has_value()) << "seeded bug not detected";
  ASSERT_FALSE(failure->minimized.empty());

  // Replay handle 1: the case seed regenerates the original failing sequence, and
  // running it reproduces the original violation verbatim.
  EXPECT_EQ(Rendered(runner.Generate(failure->case_seed)), Rendered(failure->original));
  std::optional<std::string> original_again =
      KvConformanceHarness(options).Run(failure->original);
  ASSERT_TRUE(original_again.has_value());
  EXPECT_EQ(*original_again, failure->original_message);

  // One-shot re-run of the minimized sequence with the recorder armed.
  FlightRecorder recorder("flight");
  recorder.set_case_seed(failure->case_seed);
  KvHarnessOptions armed = options;
  armed.recorder = &recorder;
  std::optional<std::string> replayed = KvConformanceHarness(armed).Run(failure->minimized);
  ASSERT_TRUE(replayed.has_value()) << "minimized sequence stopped failing";
  EXPECT_EQ(*replayed, failure->message);
  ASSERT_EQ(recorder.written(), 1u);

  // The artifact exists and carries every section plus the replay seed.
  std::string json = ReadFile("flight/flight-0-kv_conformance.json");
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"harness\":\"kv_conformance\""), std::string::npos);
  EXPECT_NE(json.find("\"violation\":\"op#"), std::string::npos);
  EXPECT_NE(json.find("\"case_seed\":" + std::to_string(failure->case_seed)),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"harness."), std::string::npos);
  EXPECT_NE(json.find("digraph"), std::string::npos);  // pending-writeback DOT
  EXPECT_NE(json.find("\"disks\":["), std::string::npos);
  EXPECT_NE(json.find("\"persisted_wp\""), std::string::npos);
  // The rendered op list matches the sequence that was re-run.
  for (const KvOp& op : failure->minimized) {
    EXPECT_NE(json.find(op.ToString()), std::string::npos) << op.ToString();
  }
}

// Node-level capture: CaptureNode snapshots metrics, the rpc.* span trees (each root
// carrying its shard and disk), and per-disk dependency/extent state from a live
// NodeServer.
TEST_F(FlightTest, CaptureNodeSnapshotsEverySection) {
  NodeServerOptions options;
  options.disk_count = 2;
  options.geometry = DiskGeometry{.extent_count = 16, .pages_per_extent = 16,
                                  .page_size = 256};
  std::unique_ptr<NodeServer> node = std::move(NodeServer::Create(options).value());
  ASSERT_TRUE(node->Put(1, Bytes(300, 0x5a)).ok());
  ASSERT_TRUE(node->Get(1).ok());

  FlightRecord record;
  record.harness = "failure_conformance";
  record.violation = "synthetic";
  CaptureNode(*node, record);
  FlightRecorder recorder("flight");
  auto path_or = recorder.Write(record);
  ASSERT_TRUE(path_or.ok()) << path_or.status().ToString();

  std::string json = ReadFile(path_or.value());
  EXPECT_NE(json.find("\"rpc.put.ok\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc.put\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":1,\"disk\":" + std::to_string(node->DiskFor(1))),
            std::string::npos);
  // The routed disk's pending writebacks appear under its per-disk DOT prefix.
  EXPECT_NE(json.find("disk" + std::to_string(node->DiskFor(1)) + "."), std::string::npos);
  // Unflushed writes show up as a persisted-vs-volatile delta.
  EXPECT_NE(json.find("\"unpersisted_pages\""), std::string::npos);
}

// An MC counterexample's schedule, persisted through the artifact, replays the exact
// interleaving: the same violation, deterministically, on the first execution.
TEST_F(FlightTest, McScheduleFromArtifactReplaysDeterministically) {
  // Classic lost update: unsynchronized read-modify-write on an instrumented cell
  // (Load/Store are the scheduling points the checker interleaves).
  auto body = []() {
    auto cell = std::make_shared<Atomic<int>>(0);
    auto bump = [cell]() {
      const int seen = cell->Load();
      cell->Store(seen + 1);
    };
    Thread t = Thread::Spawn(bump);
    bump();
    t.Join();
    MC_CHECK(cell->Load() == 2, "lost update: shared != 2");
  };

  McOptions options;
  options.strategy = McOptions::Strategy::kRandom;
  options.iterations = 2000;
  options.seed = 7;
  McResult result = McExplore(body, options);
  ASSERT_FALSE(result.ok) << "interleaving search missed the lost update";
  ASSERT_FALSE(result.failing_schedule.empty());

  FlightRecord record = MakeMcFlightRecord(result, "lost_update");
  EXPECT_EQ(record.harness, "mc:lost_update");
  FlightRecorder recorder("flight");
  auto path_or = recorder.Write(record);
  ASSERT_TRUE(path_or.ok()) << path_or.status().ToString();
  std::string json = ReadFile(path_or.value());
  EXPECT_NE(json.find("\"mc_schedule\":["), std::string::npos);
  EXPECT_NE(json.find("lost update"), std::string::npos);

  // Feed the schedule back: one execution, same failure.
  McResult replayed = McReplay(body, result.failing_schedule);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.executions, 1u);
  EXPECT_EQ(replayed.error, result.error);
}

}  // namespace
}  // namespace ss
