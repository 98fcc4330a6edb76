#include "src/harness/rpc_harness.h"

#include <algorithm>
#include <sstream>

#include "src/harness/checks.h"

namespace ss {

std::string RpcOp::ToString() const {
  static const char* kNames[] = {"Get", "Put", "Delete", "List", "RemoveDisk", "RestoreDisk",
                                 "FlushAll", "Migrate"};
  std::ostringstream out;
  out << kNames[static_cast<int>(kind)];
  switch (kind) {
    case RpcOpKind::kGet:
    case RpcOpKind::kDelete:
      out << "(" << id << ")";
      break;
    case RpcOpKind::kPut:
      out << "(" << id << ", " << value.size() << "B)";
      break;
    case RpcOpKind::kRemoveDisk:
    case RpcOpKind::kRestoreDisk:
      out << "(disk " << disk << ")";
      break;
    case RpcOpKind::kMigrate:
      out << "(" << id << " -> disk " << disk << ")";
      break;
    default:
      break;
  }
  return out.str();
}

RpcOp RpcConformanceHarness::Gen(Rng& rng, const std::vector<RpcOp>& prefix,
                                 const RpcHarnessOptions& options) {
  std::vector<uint32_t> weights = {/*Get*/ 25, /*Put*/ 30, /*Delete*/ 8, /*List*/ 6,
                                   /*Remove*/ 8, /*Restore*/ 10, /*FlushAll*/ 5,
                                   /*Migrate*/ 8};
  RpcOp op;
  op.kind = static_cast<RpcOpKind>(rng.WeightedIndex(weights));
  std::vector<uint64_t> used;
  for (const RpcOp& prev : prefix) {
    if (prev.kind == RpcOpKind::kPut) {
      used.push_back(prev.id);
    }
  }
  switch (op.kind) {
    case RpcOpKind::kGet:
      op.id = BiasedKey(rng, used, 0.75, options.key_bound);
      break;
    case RpcOpKind::kPut: {
      op.id = BiasedKey(rng, used, 0.5, options.key_bound);
      const size_t size = rng.Below(options.max_value_bytes + 1);
      op.value.resize(size);
      for (auto& b : op.value) {
        b = static_cast<uint8_t>(rng.Below(256));
      }
      break;
    }
    case RpcOpKind::kDelete:
      op.id = BiasedKey(rng, used, 0.8, options.key_bound);
      break;
    case RpcOpKind::kRemoveDisk:
    case RpcOpKind::kRestoreDisk:
      op.disk = static_cast<uint32_t>(rng.Below(options.node.disk_count));
      break;
    case RpcOpKind::kMigrate:
      op.id = BiasedKey(rng, used, 0.85, options.key_bound);
      op.disk = static_cast<uint32_t>(rng.Below(options.node.disk_count));
      break;
    default:
      break;
  }
  return op;
}

std::vector<RpcOp> RpcConformanceHarness::Shrink(const RpcOp& op) {
  std::vector<RpcOp> out;
  if (op.id > 0) {
    RpcOp smaller = op;
    smaller.id /= 2;
    out.push_back(smaller);
  }
  if (!op.value.empty()) {
    RpcOp shorter = op;
    shorter.value.resize(op.value.size() / 2);
    out.push_back(shorter);
  }
  if (op.kind != RpcOpKind::kGet) {
    RpcOp get;
    get.kind = RpcOpKind::kGet;
    get.id = op.id;
    out.push_back(get);
  }
  return out;
}

std::optional<std::string> RpcConformanceHarness::Run(const std::vector<RpcOp>& ops) {
  Violations<RpcOp> fail("rpc_conformance", ops);
  auto node_or = NodeServer::Create(options_.node);
  if (!node_or.ok()) {
    return "node create failed: " + node_or.status().ToString();
  }
  std::unique_ptr<NodeServer> node = std::move(node_or).value();
  KvStoreModel model;

  for (size_t i = 0; i < ops.size(); ++i) {
    const RpcOp& op = ops[i];
    const bool target_in_service =
        (op.kind == RpcOpKind::kGet || op.kind == RpcOpKind::kPut ||
         op.kind == RpcOpKind::kDelete)
            ? node->InService(node->DiskFor(op.id))
            : true;
    switch (op.kind) {
      case RpcOpKind::kGet: {
        auto got = node->Get(op.id);
        if (!target_in_service) {
          if (got.code() != StatusCode::kUnavailable) {
            return fail(i, "expected Unavailable for out-of-service disk");
          }
          break;
        }
        if (auto err = CheckRead(op.id, model.Get(op.id), got); err.has_value()) {
          return fail(i, *err);
        }
        break;
      }
      case RpcOpKind::kPut: {
        auto dep_or = node->Put(op.id, op.value);
        if (!target_in_service) {
          if (dep_or.code() != StatusCode::kUnavailable) {
            return fail(i, "expected Unavailable for out-of-service disk");
          }
          break;
        }
        if (dep_or.ok()) {
          model.Put(op.id, op.value, dep_or.value().dep);
        } else if (dep_or.code() != StatusCode::kResourceExhausted) {
          return fail(i, "unexpected error: " + dep_or.status().ToString());
        }
        break;
      }
      case RpcOpKind::kDelete: {
        auto dep_or = node->Delete(op.id);
        if (!target_in_service) {
          if (dep_or.code() != StatusCode::kUnavailable) {
            return fail(i, "expected Unavailable for out-of-service disk");
          }
          break;
        }
        if (dep_or.ok()) {
          model.Delete(op.id, dep_or.value().dep);
        } else {
          return fail(i, "unexpected error: " + dep_or.status().ToString());
        }
        break;
      }
      case RpcOpKind::kList: {
        auto listed = node->ListShards();
        if (!listed.ok()) {
          return fail(i, "list failed: " + listed.status().ToString());
        }
        // Only shards on in-service disks are expected to appear.
        std::vector<ShardId> expected;
        for (ShardId id : model.List()) {
          if (node->InService(node->DiskFor(id))) {
            expected.push_back(id);
          }
        }
        std::vector<ShardId> impl = listed.value();
        std::sort(impl.begin(), impl.end());
        std::sort(expected.begin(), expected.end());
        if (impl != expected) {
          return fail(i, "listing disagrees with model");
        }
        break;
      }
      case RpcOpKind::kRemoveDisk: {
        Status status = node->RemoveDiskFromService(static_cast<int>(op.disk));
        if (!status.ok() && status.code() != StatusCode::kUnavailable &&
            status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "remove failed: " + status.ToString());
        }
        break;
      }
      case RpcOpKind::kRestoreDisk: {
        Status status = node->RestoreDisk(static_cast<int>(op.disk));
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          return fail(i, "restore failed: " + status.ToString());
        }
        break;
      }
      case RpcOpKind::kFlushAll: {
        Status status = node->FlushAllDisks();
        if (!status.ok() && status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "flush failed: " + status.ToString());
        }
        break;
      }
      case RpcOpKind::kMigrate: {
        // A migration never changes the observable mapping: the shard's value must be
        // identical before and after (the model is untouched).
        Status status = node->MigrateShard(op.id, static_cast<int>(op.disk));
        if (!status.ok() && status.code() != StatusCode::kUnavailable &&
            status.code() != StatusCode::kNotFound &&
            status.code() != StatusCode::kResourceExhausted) {
          return fail(i, "migrate failed: " + status.ToString());
        }
        if (status.ok()) {
          std::optional<Bytes> expected = model.Get(op.id);
          auto got = node->Get(op.id);
          if (expected.has_value()) {
            if (!got.ok() || got.value().value != *expected) {
              return fail(i, "shard changed or vanished across migration");
            }
          }
        }
        break;
      }
    }
  }

  // Final sweep: restore every disk and read everything back.
  for (int d = 0; d < node->disk_count(); ++d) {
    if (!node->InService(d)) {
      if (Status status = node->RestoreDisk(d); !status.ok()) {
        return fail(ops.size(), "final restore of disk " + std::to_string(d) +
                                    " failed: " + status.ToString());
      }
    }
  }
  for (ShardId id : model.TouchedKeys()) {
    if (auto err = CheckRead(id, model.Get(id), node->Get(id)); err.has_value()) {
      return fail(ops.size(), "final sweep: " + *err);
    }
  }
  return std::nullopt;
}

}  // namespace ss
