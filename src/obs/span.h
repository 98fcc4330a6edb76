// Hierarchical causal span tracing — the per-RPC event model of the observability
// layer, complementing the "how much" side in metrics.h.
//
// The node server opens one *root* span per RPC, and that root is the operation's
// event: its name is the RPC kind, and it records the shard and disk the RPC
// addressed plus its final status and ticks. Every layer the request flows
// through (ShardStore, LsmIndex, ChunkStore, ExtentManager, BufferCache, IoScheduler)
// records *child* spans via a SpanScope handed down the call chain. The default
// SpanScope is inactive, so non-traced callers (component unit tests, direct store
// use) pay exactly one branch per potential span.
//
// Latency is measured in virtual-clock ticks (ExtentManager's retry-backoff clock) so
// recorded distributions are deterministic: a span's duration is the ticks the
// operation's retries consumed, not wall time. Spans without a clock (e.g. batch
// roots that fan out over several per-disk clocks) accumulate ticks explicitly via
// AddTicks.
//
// Like MetricRegistry, the tree's lock is a leaf-mode ss::Mutex: recording a span
// must never become a model-checker scheduling point, and the whole layer stays clean
// under TSan — yet the lock remains visible to the lock-order witness (StartSpan
// calls into the metric registry under it, so the nesting is checked). Retention is
// bounded (a ring keyed by span id), with total_started() and the per-name duration
// histograms keeping lifetime counts across wraparound.

#ifndef SS_OBS_SPAN_H_
#define SS_OBS_SPAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace ss {

class JsonWriter;

// Source of virtual-clock ticks for span latency. ExtentManager implements this over
// its retry-backoff clock (an atomic mirror, so reading it is never a scheduling
// point); tests can supply fake clocks.
class TickSource {
 public:
  virtual ~TickSource() = default;
  virtual uint64_t SpanTicksNow() const = 0;
};

// Wire form of a span's identity, carried across the cluster network so a receiving
// node's spans can adopt the sender's causal tree. `root`/`parent` are span ids in the
// *sender's* SpanTree (the cluster coordinator's); root == 0 means no context and the
// receiver roots its own tree as before. The ids are opaque to the receiver — it
// records them as remote linkage, never resolves them locally — which is what lets
// the cluster trace assembler stitch per-node trees back under the coordinator's root
// without any cross-tree id coordination.
struct TraceContext {
  uint64_t root = 0;    // sender's root span id
  uint64_t parent = 0;  // sender's span the message was sent under
  bool active() const { return root != 0; }
};

struct SpanRecord {
  uint64_t id = 0;      // 1-based, monotonically increasing for the tree's lifetime
  uint64_t parent = 0;  // 0 = root span
  uint64_t root = 0;    // id of the tree's root span (== id for roots)
  // Remote linkage for spans adopted from another tree's TraceContext: ids in the
  // *sender's* tree (0 = none). Only locally-rooted spans carry these; their local
  // children keep chaining through `parent`/`root` as usual.
  uint64_t remote_parent = 0;
  uint64_t remote_root = 0;
  std::string name;     // e.g. "rpc.put", "lsm.insert", "io.coalesce"
  uint64_t start_ticks = 0;
  uint64_t duration_ticks = 0;
  StatusCode status = StatusCode::kOk;
  // What an RPC root span addressed: the shard (0 for whole-disk operations) and the
  // disk it touched or routed to (-1 if none). Child spans leave both unset.
  uint64_t shard = 0;
  int32_t disk = -1;
  bool open = true;  // still running (EndSpan not yet called)

  std::string ToString() const;
};

// What StartSpan hands back for the matching EndSpan: the span's id and the
// "span.<name>.ticks" histogram its duration feeds (null without a registry).
// Resolving the histogram at start means EndSpan records the sample even when
// wraparound has overwritten the span's record in the meantime.
struct StartedSpan {
  uint64_t id = 0;
  Histogram* histogram = nullptr;
};

// Bounded store of span records with parent/child causality. Thread-safe; recording
// holds a leaf-mode lock so it never becomes a model-checker scheduling point.
class SpanTree {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  // When `metrics` is provided, every ended span additionally records its duration
  // into the histogram "span.<name>.ticks" — the per-stage latency surface the
  // benches export.
  explicit SpanTree(size_t capacity = kDefaultCapacity, MetricRegistry* metrics = nullptr);
  SpanTree(const SpanTree&) = delete;
  SpanTree& operator=(const SpanTree&) = delete;

  // Starts a span. `root` 0 means the span is its own root.
  StartedSpan StartSpan(std::string_view name, uint64_t parent = 0, uint64_t root = 0,
                        uint64_t start_ticks = 0);
  // Starts a *locally rooted* span that records `remote` as its causal origin in
  // another tree (the sender's). Children chain under it with plain StartSpan.
  StartedSpan StartRemoteSpan(std::string_view name, TraceContext remote,
                              uint64_t start_ticks = 0);
  // Ends a span: records its duration into the span's histogram, and stamps status,
  // duration, shard and disk on its record unless wraparound already overwrote it.
  void EndSpan(StartedSpan span, StatusCode status, uint64_t duration_ticks,
               uint64_t shard = 0, int32_t disk = -1);

  // Retained records, ascending id order. At most capacity() entries.
  std::vector<SpanRecord> Spans() const;
  // Retained root spans (local roots, adopted remote roots included), ascending id
  // order: one record per retained RPC.
  std::vector<SpanRecord> Roots() const;
  // Retained records belonging to the tree rooted at `root`, ascending id order.
  std::vector<SpanRecord> Tree(uint64_t root) const;
  // Ids of retained local roots whose remote_root is `remote_root`, ascending — the
  // subtrees this tree contributed to a remote trace (cluster assembler input).
  std::vector<uint64_t> RemoteTrees(uint64_t remote_root) const;

  // Lifetime span count, unaffected by wraparound.
  uint64_t total_started() const;
  size_t capacity() const { return capacity_; }

  // Indented rendering of one tree (children under parents, depth-first).
  std::string ToString(uint64_t root) const;
  // JSON array of the tree rooted at `root` / of every retained span.
  std::string ToJson(uint64_t root) const;
  std::string ToJson() const;

 private:
  std::vector<SpanRecord> SpansLocked() const;  // caller holds mu_
  // Caller holds mu_; assigns the id and resolves the duration histogram.
  StartedSpan InsertLocked(SpanRecord record);

  // Ranked below the metric-registry shards: StartSpan resolves the duration
  // histogram while holding this lock.
  mutable Mutex mu_{MutexAttr{"obs.span", lockrank::kObs, /*leaf=*/true}};
  const size_t capacity_;
  MetricRegistry* metrics_ = nullptr;
  std::vector<SpanRecord> ring_;  // slot (id-1) % capacity_
  uint64_t next_id_ = 1;
  // Histogram lookup cache: spans open on the per-page hot path, so the
  // "span.<name>.ticks" name is built (and the registry searched) once per distinct
  // span name, not once per span. Guarded by mu_; Histogram addresses are stable.
  std::map<std::string, Histogram*, std::less<>> histogram_cache_;
};

// Appends one span record as a JSON object to `w` (remote linkage included when
// present). Shared by SpanTree::ToJson and the cluster trace assembler.
void SpanRecordToJson(const SpanRecord& record, JsonWriter& w);

class Span;

// The handle threaded down the write/read path. Copyable value; the default instance
// is inactive and every recording site guards with one `active()` branch.
struct SpanScope {
  SpanTree* tree = nullptr;
  const TickSource* clock = nullptr;
  uint64_t span_id = 0;  // parent for child spans
  uint64_t root_id = 0;

  bool active() const { return tree != nullptr; }
  // Opens a child span of this scope (inactive scope -> inactive span).
  Span Child(std::string_view name) const;
};

// RAII span handle. Movable, not copyable; the destructor ends the span with the
// status set via set_status (kOk by default).
class Span {
 public:
  Span() = default;  // inactive
  // Opens a span in `tree`. `parent`/`root` 0 opens a root span. A null `clock`
  // yields durations from AddTicks only.
  Span(SpanTree* tree, const TickSource* clock, std::string_view name, uint64_t parent = 0,
       uint64_t root = 0);
  // Opens a locally rooted span adopting `remote` (another tree's TraceContext) as
  // its causal origin — the receive side of cross-node trace propagation.
  Span(SpanTree* tree, const TickSource* clock, std::string_view name, TraceContext remote);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  // Ends the span (idempotent) and returns its duration in ticks: the clock delta
  // since construction plus any AddTicks contributions.
  uint64_t End();

  void set_status(StatusCode status) { status_ = status; }
  // What an RPC root span addressed (see SpanRecord::shard/disk), stamped at End.
  void set_shard(uint64_t shard) { shard_ = shard; }
  void set_disk(int32_t disk) { disk_ = disk; }
  // Explicit tick contribution for spans without a clock (e.g. batch roots summing
  // per-disk clock deltas).
  void AddTicks(uint64_t ticks) { ticks_ += ticks; }
  // Ticks accumulated via AddTicks so far (excludes the clock delta added at End).
  uint64_t ticks() const { return ticks_; }

  bool active() const { return tree_ != nullptr; }
  uint64_t id() const { return started_.id; }
  uint64_t root() const { return root_; }
  // Scope for children of this span.
  SpanScope scope() const {
    return active() ? SpanScope{tree_, clock_, started_.id, root_} : SpanScope{};
  }

 private:
  SpanTree* tree_ = nullptr;
  const TickSource* clock_ = nullptr;
  StartedSpan started_;
  uint64_t root_ = 0;
  uint64_t start_ = 0;
  uint64_t ticks_ = 0;
  uint64_t shard_ = 0;
  int32_t disk_ = -1;
  StatusCode status_ = StatusCode::kOk;
  bool open_ = false;
};

inline Span SpanScope::Child(std::string_view name) const {
  if (!active()) {
    return Span();
  }
  return Span(tree, clock, name, span_id, root_id);
}

}  // namespace ss

#endif  // SS_OBS_SPAN_H_
