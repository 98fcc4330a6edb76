// A Disk decorator owned by the benchmark: forwards every call to a real backend
// (InMemoryDisk or FileDisk) and times and counts it. NodeServer builds its own
// disks, so the benchmark measures the disk layer by replaying the same op stream on
// per-disk ShardStore::Open stacks built over this decorator.

#ifndef PERFBENCH_TIMED_DISK_H_
#define PERFBENCH_TIMED_DISK_H_

#include <memory>

#include "bench.h"
#include "src/disk/disk.h"

namespace perfbench {

// Totals across every TimedDisk that shares one instance.
struct DiskCallStats {
  uint64_t page_reads = 0;   // pages returned by ReadPage/ReadPages
  uint64_t page_writes = 0;  // WritePage calls
  uint64_t bytes_written = 0;
  uint64_t soft_wp_writes = 0;  // WriteSoftWp calls: the durability barrier
  Nanos read_ns = 0;
  Nanos write_ns = 0;
  Nanos barrier_ns = 0;  // WriteSoftWp + Sync
  Nanos other_ns = 0;    // ownership, reset, superblock reads

  Nanos busy_ns() const { return read_ns + write_ns + barrier_ns + other_ns; }
};

class TimedDisk final : public ss::disk::Disk {
 public:
  // `stats` must outlive the disk; `spans` may be null.
  TimedDisk(std::unique_ptr<ss::disk::Disk> inner, DiskCallStats* stats, SpanLog* spans)
      : inner_(std::move(inner)), stats_(stats), spans_(spans) {}

  void set_spans(SpanLog* spans) { spans_ = spans; }

  const ss::DiskGeometry& geometry() const override { return inner_->geometry(); }

  ss::Status WritePage(ss::ExtentId extent, uint32_t page, ss::ByteSpan data) override;
  ss::Result<ss::Bytes> ReadPage(ss::ExtentId extent, uint32_t page) const override;
  ss::Result<ss::Bytes> PeekPage(ss::ExtentId extent, uint32_t page) const override;
  ss::Result<ss::Bytes> ReadPages(ss::ExtentId extent, uint32_t first_page,
                                  uint32_t count) const override;

  ss::Status WriteSoftWp(ss::ExtentId extent, uint32_t wp_pages) override;
  uint32_t ReadSoftWp(ss::ExtentId extent) const override;
  ss::Status WriteOwnership(ss::ExtentId extent, ss::ExtentOwner owner) override;
  ss::ExtentOwner ReadOwnership(ss::ExtentId extent) const override;
  ss::Status ResetExtentRegion(ss::ExtentId extent) override;

  ss::Status Sync() override;
  void DropUnsynced() override { inner_->DropUnsynced(); }
  uint64_t LivePages() const override { return inner_->LivePages(); }

 private:
  std::unique_ptr<ss::disk::Disk> inner_;
  DiskCallStats* stats_;
  SpanLog* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_DISK_H_
