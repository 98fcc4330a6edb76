// Lock-order witness: an always-on dynamic analysis over ss::Mutex acquisitions,
// in the style of FreeBSD's witness(4).
//
// Every named ss::Mutex belongs to a *lock class* (its name). The witness keeps a
// per-thread stack of currently held classes and a global acquisition-order graph:
// acquiring class B while holding class A records the edge A -> B. Any cycle in that
// graph — even on runs that never actually deadlock — is a latent lock-order
// inversion, and the witness reports it eagerly with the held-lock stacks of *both*
// directions of the inversion, so a single lucky interleaving is enough to prove the
// deadlock exists.
//
// Classes may also carry a *rank*: locks must be acquired in non-decreasing rank
// order, and acquiring a strictly lower-ranked class while a higher-ranked one is
// held is reported immediately (no second thread needed). Ranks are the statically
// declared layer order of the storage stack (see lockrank below); the order graph is
// the dynamic check that the declaration matches reality.
//
// The witness itself synchronizes with raw standard-library primitives (this header
// is the one place allowed to) and is reentrancy-guarded, so violation handlers may
// take ss locks without recursing. Under an active model-checker run the witness
// still observes every acquisition — the mc harness asserts zero violations at the
// end of each explored execution, turning lock-order cycles into model-checking
// counterexamples — but handler callbacks are suppressed there to keep scheduling
// deterministic (the retained reports carry everything a handler would see).

#ifndef SS_SYNC_WITNESS_H_
#define SS_SYNC_WITNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ss {

// Construction-time attributes of an ss::Mutex.
struct MutexAttr {
  // Lock-class name (static storage). Null/empty = anonymous: the lock is invisible
  // to the witness (fine for strictly-local or instance-ephemeral locks).
  const char* name = nullptr;
  // Layer rank; 0 = unranked (participates in the order graph only). See lockrank.
  uint32_t rank = 0;
  // Leaf mode: the lock is never a model-checker scheduling point — it always takes
  // its native mutex, even while SchedHooks are installed. For observability and
  // scheduler-internal locks whose acquisition must not perturb explored
  // interleavings. Leaf locks are still witness-tracked.
  bool leaf = false;
};

// The storage stack's lock ranks, outermost (acquired first) to innermost. Gaps are
// deliberate so future layers can slot in. A thread may acquire a lock of rank >= the
// highest rank it holds; acquiring a lower rank is an inversion.
namespace lockrank {
// Cluster tier (src/cluster/): outermost of the whole stack — the coordinator fans
// quorum RPCs into NodeServers, so every cluster lock must rank below (numerically
// less than) the rpc.* locks it may hold across a replica call.
inline constexpr uint32_t kClusterCoord = 2;    // cluster.coord   (membership / hints / fd)
inline constexpr uint32_t kClusterRing = 4;     // cluster.ring    (consistent-hash ring)
inline constexpr uint32_t kClusterNet = 6;      // cluster.net     (links / crash / clock)
inline constexpr uint32_t kClusterReplica = 8;  // cluster.replica (per-node versioned RMW)
inline constexpr uint32_t kControl = 10;     // rpc.control        (NodeServer control plane)
inline constexpr uint32_t kNode = 20;        // rpc.node           (routing directory / health)
inline constexpr uint32_t kStoreBatch = 30;  // kv.store.batch     (ApplyBatch staging window)
inline constexpr uint32_t kLsmFlush = 40;    // lsm.flush          (one flush/compact at a time)
// Reclamation is an *outer* lock relative to the index: ChunkStore::Reclaim holds it
// across its reclaim client's FindHolder / UpdateReference, and that client is the
// LsmIndex, whose calls take lsm.index.
inline constexpr uint32_t kChunkReclaim = 42;  // chunk.reclaim    (one reclamation at a time)
inline constexpr uint32_t kLsm = 45;         // lsm.index          (memtable / runs / metadata)
inline constexpr uint32_t kChunk = 55;       // chunk.store        (allocator / pin set)
inline constexpr uint32_t kCache = 60;       // cache.buffer       (page map + LRU)
inline constexpr uint32_t kExtent = 65;      // extent.manager     (write pointers / images)
inline constexpr uint32_t kIo = 70;          // io.scheduler       (writeback queue)
inline constexpr uint32_t kDisk = 75;        // disk               (persistent image)
inline constexpr uint32_t kHealth = 80;      // disk.health        (error budget)
inline constexpr uint32_t kClock = 85;       // extent.clock       (virtual retry clock)
inline constexpr uint32_t kObs = 200;        // obs.*              (metrics / trace / spans)
inline constexpr uint32_t kCover = 210;      // common.cover       (coverage counters)
inline constexpr uint32_t kSched = 250;      // mc.*               (checker-internal batons)
}  // namespace lockrank

// One observed acquisition-order edge: class `to` was acquired while `from` (among
// others) was held. `held_stack` is the acquiring thread's named-lock stack at that
// moment, outermost first — the "acquisition stack" a report pairs across threads.
struct LockOrderEdge {
  std::string from;
  std::string to;
  std::vector<std::string> held_stack;
  uint64_t thread = 0;  // opaque id of the acquiring thread
  uint64_t seq = 0;     // global acquisition counter when the edge was first seen
};

// One violation: either a cycle in the order graph (`edges` walks the cycle, each
// entry carrying the acquisition stack that created it) or a rank inversion
// (`edges` holds the single offending acquisition).
struct LockOrderReport {
  enum class Kind : uint8_t { kCycle, kRankInversion };
  Kind kind = Kind::kCycle;
  std::vector<std::string> cycle;  // class names in cycle order (kCycle), or {from, to}
  std::vector<LockOrderEdge> edges;
  std::string message;

  std::string ToString() const;
  std::string ToJson() const;
};

// Process-wide witness singleton. ss::Mutex / ss::CondVar call the On* entry points;
// everything else is the read/installation surface.
class LockWitness {
 public:
  static LockWitness& Global();

  // --- Instrumentation entry points (called by ss::sync internals) --------------------
  void OnAcquire(const char* name, uint32_t rank);
  void OnRelease(const char* name);

  // --- Reports ------------------------------------------------------------------------
  // Lifetime count of distinct violations detected (cycles are deduplicated by their
  // class set, so a hot inverted pair counts once, not once per acquisition).
  uint64_t violation_count() const;
  // Retained reports, oldest first (bounded retention).
  std::vector<LockOrderReport> Reports() const;
  // The most recent report's message, or "" if none.
  std::string LastMessage() const;

  // Clears the order graph, reports, and dedup state (held-lock stacks are
  // per-thread and drain naturally). Call only while no instrumented lock is held;
  // tests use this for isolation. The cumulative observed-edge set (see
  // DumpObservedEdges) deliberately survives Reset.
  void Reset();

  // --- Static/dynamic cross-check export ----------------------------------------------
  // Every acquisition-order edge observed since process start, cumulative across
  // Reset() calls, sorted (from, to). This is the dynamic half of the soundness
  // cross-check in tools/ss_lint: each observed edge must appear in the static
  // lock graph, and static edges never observed here are concurrency-coverage gaps.
  std::vector<std::pair<std::string, std::string>> DumpObservedEdges() const;
  // Writes DumpObservedEdges() as JSON {"edges":[{"from":...,"to":...},...]}.
  // Returns false if the file could not be written. When the environment variable
  // SS_WITNESS_EDGE_DIR is set, every process writes this file automatically at
  // exit (one file per pid), so a full ctest run assembles the observed graph.
  bool WriteObservedEdges(const std::string& path) const;

  // Enables/disables edge recording and checking globally (default on). Acquisition
  // bookkeeping stays correct while disabled.
  void set_enabled(bool enabled);
  bool enabled() const;

  // --- Handlers -----------------------------------------------------------------------
  // Called synchronously (outside witness-internal locks) for each new violation in
  // native runs; deferred under an active model-checker run. Returns a registration
  // id for RemoveHandler.
  using Handler = std::function<void(const LockOrderReport&)>;
  int AddHandler(Handler handler);
  void RemoveHandler(int id);

 private:
  LockWitness() = default;
};

// RAII handler registration.
class ScopedLockOrderHandler {
 public:
  explicit ScopedLockOrderHandler(LockWitness::Handler handler)
      : id_(LockWitness::Global().AddHandler(std::move(handler))) {}
  ~ScopedLockOrderHandler() { LockWitness::Global().RemoveHandler(id_); }
  ScopedLockOrderHandler(const ScopedLockOrderHandler&) = delete;
  ScopedLockOrderHandler& operator=(const ScopedLockOrderHandler&) = delete;

 private:
  int id_;
};

}  // namespace ss

#endif  // SS_SYNC_WITNESS_H_
