// Component-level conformance harnesses (paper Figure 3 and section 8.4's "model one
// component at a time" methodology).
//
//   * IndexConformanceHarness  — drives LsmIndex directly against IndexModel (a hash
//     map), with background Flush/Compact/Reclaim/Reboot operations that must not
//     change the mapping. This is the paper's Figure 3 harness.
//   * ChunkConformanceHarness  — drives ChunkStore against ChunkStoreModel, keeping the
//     implementation-locator <-> model-locator correspondence and checking it remains a
//     bijection (the invariant seeded model bug #15 violates).

#ifndef SS_HARNESS_COMPONENT_HARNESS_H_
#define SS_HARNESS_COMPONENT_HARNESS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/model/models.h"
#include "src/pbt/pbt.h"

namespace ss {

// --- Index harness (Figure 3) ------------------------------------------------------------

enum class IndexOpKind : uint8_t {
  kGet = 0,   // earliest variant: the minimizer prefers it (section 4.3)
  kPut,
  kDelete,
  kFlush,
  kCompact,
  kReclaim,
  kReboot,
  kScan,          // range scan [key, end) against the ordered-map oracle
  kCompactLevel,  // partial merge of one level (value_tag selects the level)
};

struct IndexOp {
  IndexOpKind kind = IndexOpKind::kGet;
  ShardId key = 0;
  ShardId end = 0;         // kScan window end (half-open)
  uint32_t value_tag = 0;  // deterministic record payload selector / level selector
  std::string ToString() const;
};

struct IndexHarnessOptions {
  DiskGeometry geometry{.extent_count = 16, .pages_per_extent = 16, .page_size = 256};
  uint64_t key_bound = 16;
};

class IndexConformanceHarness
    : public PbtHarness<IndexConformanceHarness, IndexOp, IndexHarnessOptions> {
 public:
  using PbtHarness::PbtHarness;
  static IndexOp Gen(Rng& rng, const std::vector<IndexOp>& prefix,
                     const IndexHarnessOptions& options);
  static std::vector<IndexOp> Shrink(const IndexOp& op);
  std::optional<std::string> Run(const std::vector<IndexOp>& ops);
};

// --- Chunk store harness ---------------------------------------------------------------

enum class ChunkOpKind : uint8_t {
  kGet = 0,
  kPut,
  kForget,   // drop our reference; the chunk becomes garbage
  kReclaim,
  kPumpIo,
};

struct ChunkOp {
  ChunkOpKind kind = ChunkOpKind::kGet;
  uint32_t pick = 0;      // which live chunk (modulo live count)
  uint32_t size = 0;      // put payload size
  uint64_t payload_seed = 0;
  std::string ToString() const;
};

struct ChunkHarnessOptions {
  DiskGeometry geometry{.extent_count = 16, .pages_per_extent = 16, .page_size = 256};
  size_t max_payload = 1024;
};

class ChunkConformanceHarness
    : public PbtHarness<ChunkConformanceHarness, ChunkOp, ChunkHarnessOptions> {
 public:
  using PbtHarness::PbtHarness;
  static ChunkOp Gen(Rng& rng, const std::vector<ChunkOp>& prefix,
                     const ChunkHarnessOptions& options);
  static std::vector<ChunkOp> Shrink(const ChunkOp& op);
  std::optional<std::string> Run(const std::vector<ChunkOp>& ops);
};

}  // namespace ss

#endif  // SS_HARNESS_COMPONENT_HARNESS_H_
