// Node-level (RPC) conformance harness: the KV alphabet plus control-plane operations
// for taking disks out of service and returning them (paper section 2.1's control
// plane; seeded bug #4 loses shards across a remove/restore cycle).

#ifndef SS_HARNESS_RPC_HARNESS_H_
#define SS_HARNESS_RPC_HARNESS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/model/models.h"
#include "src/pbt/pbt.h"
#include "src/rpc/node_server.h"

namespace ss {

enum class RpcOpKind : uint8_t {
  kGet = 0,
  kPut,
  kDelete,
  kList,
  kRemoveDisk,
  kRestoreDisk,
  kFlushAll,
  kMigrate,  // control plane: move a shard to another disk (model no-op)
};

struct RpcOp {
  RpcOpKind kind = RpcOpKind::kGet;
  ShardId id = 0;
  Bytes value;
  uint32_t disk = 0;
  std::string ToString() const;
};

struct RpcHarnessOptions {
  NodeServerOptions node{.disk_count = 3,
                         .geometry = {.extent_count = 20, .pages_per_extent = 16,
                                      .page_size = 256}};
  uint64_t key_bound = 24;
  size_t max_value_bytes = 600;
};

class RpcConformanceHarness
    : public PbtHarness<RpcConformanceHarness, RpcOp, RpcHarnessOptions> {
 public:
  using PbtHarness::PbtHarness;
  static RpcOp Gen(Rng& rng, const std::vector<RpcOp>& prefix,
                   const RpcHarnessOptions& options);
  static std::vector<RpcOp> Shrink(const RpcOp& op);
  std::optional<std::string> Run(const std::vector<RpcOp>& ops);
};

}  // namespace ss

#endif  // SS_HARNESS_RPC_HARNESS_H_
