// Property-based conformance + crash-consistency harness for the full ShardStore stack
// (paper sections 4 and 5; the whole-store analogue of Figure 3).
//
// A test case is a sequence of operations drawn from the alphabet below. Each API
// operation is applied to both the implementation and the KvStoreModel and the results
// compared; background operations (flush, compaction, reclamation, IO pumping) are
// model no-ops that must not change the observable mapping. DirtyReboot crashes the
// IO scheduler at a random dependency-allowed block-level crash state, re-opens the
// store (recovery), collapses the model by dependency persistence, and sweeps every
// touched key — the persistence property. Clean Reboot additionally checks the
// forward-progress property: every dependency ever returned must report persistent
// after a clean shutdown.
//
// The alphabet is ordered by increasing complexity so the minimizer prefers simpler
// operations (section 4.3), and argument selection is biased (keys toward reuse,
// value sizes toward page-boundary corners; section 4.2).

#ifndef SS_HARNESS_KV_HARNESS_H_
#define SS_HARNESS_KV_HARNESS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/checks.h"
#include "src/kv/shard_store.h"
#include "src/model/models.h"
#include "src/obs/span.h"
#include "src/pbt/pbt.h"

namespace ss {

enum class KvOpKind : uint8_t {
  kGet = 0,
  kPut,
  kDelete,
  kList,
  kPumpIo,
  kFlushIndex,
  kCompactIndex,
  kReclaim,
  kReboot,         // clean shutdown + recovery (forward progress)
  kDirtyReboot,    // crash + recovery (persistence)
  // Arm a transient read/write fault burst on an extent, sized to outlast the extent
  // layer's retry budget so the failure is guaranteed to surface to the operation
  // (single blips are absorbed transparently by the retry layer; the dedicated
  // failure harness exercises that axis).
  kFailReadOnce,
  kFailWriteOnce,
  kPutBatch,       // group-committed multi-put via ShardStore::ApplyBatch
  kScan,           // range scan [id, end) checked against the ordered-map oracle
  kCompactLevel,   // partial merge of one level (arg selects the level)
};

struct KvOp {
  KvOpKind kind = KvOpKind::kGet;
  ShardId id = 0;
  ShardId end = 0;   // kScan window end (half-open)
  Bytes value;       // kPut payload
  uint32_t arg = 0;  // pump count / crash seed / extent, candidate, or level selector
  std::vector<std::pair<ShardId, Bytes>> batch;  // kPutBatch items
  std::string ToString() const;
};

struct KvHarnessOptions {
  DiskGeometry geometry{.extent_count = 24, .pages_per_extent = 16, .page_size = 256};
  ShardStoreOptions store;
  bool crashes = false;            // include kDirtyReboot in generation
  bool failure_injection = false;  // include kFail* in generation
  // Argument biasing (section 4.2): key reuse and page-corner value sizes. Disabling
  // it (uniform arguments) is the ablation bench_bias_ablation measures.
  bool bias_arguments = true;
  uint64_t key_bound = 24;
  size_t max_value_bytes = 1200;
  // When set, any violation captures a flight-recorder artifact (metrics, span tree,
  // pending-writeback dependency DOT, persisted-vs-volatile extents). Leave null
  // during search/minimization — shrinking re-runs the property thousands of times —
  // and arm it on the one-shot re-run of the minimized sequence (see
  // FlightRecorder::set_case_seed).
  FlightRecorder* recorder = nullptr;
  // Which Disk backend a run executes against. Null constructs the default
  // InMemoryDisk; the cross-backend conformance tests supply a FileDisk factory and
  // run the identical op sequence through both. Crashes work on any backend: the
  // harness calls DropUnsynced() between the scheduler crash and recovery, which is a
  // no-op for the in-memory image.
  std::function<std::unique_ptr<disk::Disk>(const DiskGeometry&)> disk_factory;
};

class KvConformanceHarness
    : public PbtHarness<KvConformanceHarness, KvOp, KvHarnessOptions> {
 public:
  using PbtHarness::PbtHarness;

  // Generates one operation, biased by the prefix (key reuse, page-corner sizes).
  static KvOp Gen(Rng& rng, const std::vector<KvOp>& prefix, const KvHarnessOptions& options);

  // Simpler candidate replacements for one op (toward-zero ids/args, shorter values,
  // earlier alphabet variants).
  static std::vector<KvOp> Shrink(const KvOp& op);

  // Executes one op sequence from a fresh disk. Returns a failure description, or
  // nullopt if the sequence satisfies every property.
  std::optional<std::string> Run(const std::vector<KvOp>& ops);
};

// One kv run in progress: a store on a fresh disk, its model, and the bookkeeping the
// properties need. KvConformanceHarness::Run drives a whole sequence through it; the
// crash enumerator (crash_enum.h) applies a sequence, crashes the store's scheduler
// itself, and checks the recovery. `options` and `ops` must outlive the run.
class KvRun {
 public:
  KvRun(const KvHarnessOptions& options, const std::vector<KvOp>& ops);
  // The artifact capture holds `this`.
  KvRun(const KvRun&) = delete;
  KvRun& operator=(const KvRun&) = delete;

  // Creates the disk and opens the store. Returns a description of what failed.
  std::optional<std::string> Open();
  // Applies ops[i] to the store and the model, then checks the mapping invariant.
  std::optional<std::string> Step(size_t i);
  // After a crash of the store's scheduler: recovers the store, then runs section 5's
  // persistence + consistency sweep, and the model adopts the observed durable state.
  // `i` is the op the crash belongs to (ops.size() for one after the last op).
  std::optional<std::string> RecoverFromCrash(size_t i);
  // End of sequence: clean shutdown, forward progress, final sweep.
  std::optional<std::string> Finish();

  ShardStore& store() { return *store_; }

 private:
  // Every touched key must read back exactly the model's value.
  std::optional<std::string> Sweep(size_t i, const char* when);
  // Forward progress: every dependency logged since the last crash persists.
  std::optional<std::string> CheckForwardProgress(size_t i);

  const KvHarnessOptions& options_;
  const std::vector<KvOp>& ops_;
  Violations<KvOp> fail_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<ShardStore> store_;
  KvStoreModel model_;
  // Every dependency returned by a mutating op, for the forward-progress property.
  std::vector<std::pair<size_t, Dependency>> dep_log_;
  bool faults_armed_ = false;
  // Run-local span tree: each data-plane op opens a root span threaded into the store,
  // so a violation's artifact carries the causal tree of the failing run. No metric
  // registry — the store's registry dies on reboot, and the tree outlives it.
  SpanTree spans_;
};

}  // namespace ss

#endif  // SS_HARNESS_KV_HARNESS_H_
