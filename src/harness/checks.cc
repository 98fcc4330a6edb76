#include "src/harness/checks.h"

namespace ss {

namespace {

std::optional<std::string> CheckReadOf(ShardId id, const std::optional<Bytes>& expected,
                                       const Status& status, const Bytes* value,
                                       const ErrorOracle& on_error) {
  const auto shard = [id] { return "shard " + std::to_string(id); };
  if (status.ok()) {
    if (!expected.has_value()) {
      return shard() + " readable but expected absent (resurrection)";
    }
    if (*value != *expected) {
      return shard() + " has wrong contents";
    }
    return std::nullopt;
  }
  if (status.code() == StatusCode::kNotFound) {
    if (expected.has_value()) {
      return shard() + " lost (expected " + std::to_string(expected->size()) + "B)";
    }
    return std::nullopt;
  }
  if (on_error != nullptr) {
    return on_error(status);
  }
  return "unexpected error reading " + shard() + ": " + status.ToString();
}

}  // namespace

std::optional<std::string> CheckRead(ShardId id, const std::optional<Bytes>& expected,
                                     const Result<Bytes>& got, const ErrorOracle& on_error) {
  return CheckReadOf(id, expected, got.status(), got.ok() ? &got.value() : nullptr,
                     on_error);
}

std::optional<std::string> CheckRead(ShardId id, const std::optional<Bytes>& expected,
                                     const Result<GetResult>& got,
                                     const ErrorOracle& on_error) {
  return CheckReadOf(id, expected, got.status(), got.ok() ? &got.value().value : nullptr,
                     on_error);
}

std::optional<std::string> AdoptPostCrashSweep(KvStoreModel& model,
                                               const std::vector<ShardId>& keys,
                                               const CrashRead& read) {
  for (ShardId id : keys) {
    std::optional<Bytes> observed;
    Result<Bytes> got = read(id);
    if (got.ok()) {
      observed = std::move(got).value();
    } else if (got.code() != StatusCode::kNotFound) {
      return "after crash: unexpected error reading shard " + std::to_string(id) + ": " +
             got.status().ToString();
    }
    if (!model.AdoptPostCrash(id, observed)) {
      return "after crash: shard " + std::to_string(id) +
             (observed.has_value() ? " surfaced a value outside the crash-allowed set"
                                   : " lost: a persisted mutation is unreadable");
    }
  }
  return std::nullopt;
}

}  // namespace ss
