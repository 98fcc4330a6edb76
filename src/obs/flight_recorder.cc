#include "src/obs/flight_recorder.h"

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "src/obs/json.h"
#include "src/rpc/node_server.h"

namespace ss {

namespace {

// Persisted-vs-volatile view of one disk's extents. The persisted side is what
// recovery would trust (superblock soft pointers + ownership); the volatile side is
// what the running ExtentManager believes (null when the disk has no live store).
// The delta between the two is exactly the data a crash at this moment would lose.
void AppendExtentSummary(JsonWriter& w, Disk& disk, const ExtentManager* extents) {
  w.BeginObject();
  w.Key("epoch");
  w.UInt(disk.epoch());
  w.Key("extents");
  w.BeginArray();
  const uint32_t extent_count = disk.geometry().extent_count;
  for (ExtentId e = 1; e < extent_count; ++e) {
    const uint32_t persisted_wp = disk.ReadSoftWp(e);
    const ExtentOwner persisted_owner = disk.ReadOwnership(e);
    const bool live = extents != nullptr;
    const uint32_t volatile_wp = live ? extents->WritePointer(e) : 0;
    const ExtentOwner volatile_owner = live ? extents->Owner(e) : ExtentOwner::kFree;
    if (persisted_wp == 0 && persisted_owner == ExtentOwner::kFree && volatile_wp == 0 &&
        volatile_owner == ExtentOwner::kFree) {
      continue;  // never touched
    }
    w.BeginObject();
    w.Key("extent");
    w.UInt(e);
    w.Key("persisted_wp");
    w.UInt(persisted_wp);
    w.Key("persisted_owner");
    w.UInt(static_cast<uint64_t>(persisted_owner));
    if (live) {
      w.Key("volatile_wp");
      w.UInt(volatile_wp);
      w.Key("volatile_owner");
      w.UInt(static_cast<uint64_t>(volatile_owner));
      w.Key("unpersisted_pages");
      w.UInt(volatile_wp > persisted_wp ? volatile_wp - persisted_wp : 0);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void RawOrNull(JsonWriter& w, const std::string& fragment) {
  if (fragment.empty()) {
    w.Null();
  } else {
    w.Raw(fragment);
  }
}

}  // namespace

void CaptureStore(ShardStore& store, FlightRecord& record) {
  record.metrics_json = store.metrics().Snapshot().ToJson();
  record.dependency_dot = store.scheduler().PendingDot();
  JsonWriter w;
  w.BeginArray();
  AppendExtentSummary(w, store.disk(), &store.extents());
  w.EndArray();
  record.disks_json = w.str();
}

void CaptureNode(NodeServer& node, FlightRecord& record) {
  record.metrics_json = node.MetricsSnapshot().ToJson();
  record.spans_json = node.spans().ToJson();
  JsonWriter disks;
  disks.BeginArray();
  std::string dot;
  for (int d = 0; d < node.disk_count(); ++d) {
    std::shared_ptr<ShardStore> store = node.store(d);
    if (store != nullptr) {
      if (!dot.empty()) {
        dot += "\n";
      }
      dot += store->scheduler().PendingDot("disk" + std::to_string(d) + ".");
    }
    AppendExtentSummary(disks, node.disk(d),
                        store != nullptr ? &store->extents() : nullptr);
  }
  disks.EndArray();
  record.dependency_dot = std::move(dot);
  record.disks_json = disks.str();
}

FlightRecord MakeMcFlightRecord(const McResult& result, std::string_view name) {
  FlightRecord record;
  record.harness = "mc:" + std::string(name);
  record.violation = result.error;
  record.mc_schedule = result.failing_schedule;
  return record;
}

FlightRecord MakeLockOrderFlightRecord(const LockOrderReport& report) {
  FlightRecord record;
  record.harness = "lockorder";
  record.violation = report.message;
  record.analysis_json = report.ToJson();
  return record;
}

FlightRecord MakeDepLintFlightRecord(const DepLintReport& report) {
  FlightRecord record;
  record.harness = "deplint";
  record.violation = "dependency lint: " + report.Summary();
  record.analysis_json = report.ToJson();
  record.dependency_dot = report.dot;
  return record;
}

FlightRecorder::FlightRecorder(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    const char* env = std::getenv("SS_FLIGHT_DIR");
    dir_ = (env != nullptr && env[0] != '\0') ? env : "flight";
  }
}

Result<std::string> FlightRecorder::Write(const FlightRecord& record) {
  JsonWriter w;
  w.BeginObject();
  w.Key("harness");
  w.String(record.harness);
  w.Key("violation");
  w.String(record.violation);
  w.Key("ops");
  w.BeginArray();
  for (const std::string& op : record.ops) {
    w.String(op);
  }
  w.EndArray();
  w.Key("case_seed");
  w.UInt(record.case_seed != 0 ? record.case_seed : case_seed_);
  w.Key("mc_schedule");
  w.BeginArray();
  for (uint32_t step : record.mc_schedule) {
    w.UInt(step);
  }
  w.EndArray();
  w.Key("metrics");
  RawOrNull(w, record.metrics_json);
  w.Key("spans");
  RawOrNull(w, record.spans_json);
  w.Key("dependency_dot");
  w.String(record.dependency_dot);
  w.Key("disks");
  RawOrNull(w, record.disks_json);
  w.Key("analysis");
  RawOrNull(w, record.analysis_json);
  w.Key("cluster");
  RawOrNull(w, record.cluster_json);
  w.Key("cluster_trace");
  RawOrNull(w, record.cluster_trace_json);
  w.EndObject();

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create flight dir " + dir_ + ": " + ec.message());
  }
  std::string name = record.harness;
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '_')) {
      c = '_';
    }
  }
  const std::string path =
      dir_ + "/flight-" + std::to_string(written_) + "-" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path);
  }
  out << w.str() << "\n";
  out.close();
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  ++written_;
  return path;
}

ScopedLockOrderFlightSink::ScopedLockOrderFlightSink(FlightRecorder* recorder) {
  if (recorder == nullptr) {
    return;
  }
  handler_ = std::make_unique<ScopedLockOrderHandler>([recorder](const LockOrderReport& report) {
    (void)recorder->Write(MakeLockOrderFlightRecord(report));
  });
}

ScopedDepLintFlightSink::ScopedDepLintFlightSink(FlightRecorder* recorder) {
  if (recorder == nullptr) {
    return;
  }
  handler_ = std::make_unique<ScopedDepLintHandler>([recorder](const DepLintReport& report) {
    (void)recorder->Write(MakeDepLintFlightRecord(report));
  });
}

}  // namespace ss
