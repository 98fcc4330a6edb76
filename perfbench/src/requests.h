// The request workloads: a seeded op stream over a zipfian key space, driven through
// NodeServer's request plane by one closed-loop client, with every result checked
// against a reference model of acknowledged writes.

#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "bench.h"
#include "src/common/rng.h"
#include "src/lsm/lsm_index.h"

namespace perfbench {

enum class OpKind : uint8_t { kGet = 0, kPut = 1, kScan = 2 };

struct Op {
  OpKind kind = OpKind::kGet;
  ss::ShardId key = 0;

  bool operator==(const Op&) const = default;
};

struct RequestSpec {
  const char* name;
  bool file_backend;   // FileDisk under a fresh directory, else InMemoryDisk
  uint64_t keys;       // key space, all preloaded (a power of two)
  size_t value_bytes;  // every value written
  uint32_t get_pct;
  uint32_t put_pct;    // durable puts; the rest of the mix is 16-key scans
  OpKind heavy;        // the op kind heavy_p50_us reports
  bool crash_check;    // crash-recover every disk before the final re-read
  size_t episode_ops;  // ops per episode (one fresh node each) and per traced phase
};

const RequestSpec* FindRequestSpec(std::string_view name);

// Zipf(theta) over ranks, scrambled across the key space by an odd multiplier (a
// bijection on a power-of-two key space), so hot keys spread over every disk.
class ZipfKeys {
 public:
  ZipfKeys(uint64_t n, double theta);
  ss::ShardId Next(ss::Rng& rng) const;

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

// The op stream of one (workload, seed): the same pair always yields the same ops.
class OpStream {
 public:
  OpStream(const RequestSpec& spec, uint64_t seed);
  Op Next();

 private:
  const RequestSpec& spec_;
  ZipfKeys keys_;
  ss::Rng rng_;
};

// The traced run of a request workload with an explicit op count per phase (the
// self-test uses small counts).
RunResult RunRequestTraced(const RequestSpec& spec, const RunConfig& config, size_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
