#include "timed_disk.h"

namespace perfbench {

namespace {

// Times one forwarded call into `bucket` and records a disk.* span.
template <typename Fn>
auto Timed(SpanLog* spans, const char* name, Nanos& bucket, Fn&& fn) {
  ScopedSpan span(spans, name);
  const Nanos start = NowNs();
  auto result = fn();
  bucket += NowNs() - start;
  return result;
}

}  // namespace

ss::Status TimedDisk::WritePage(ss::ExtentId extent, uint32_t page, ss::ByteSpan data) {
  ++stats_->page_writes;
  stats_->bytes_written += geometry().page_size;
  return Timed(spans_, "disk.write_page", stats_->write_ns,
               [&] { return inner_->WritePage(extent, page, data); });
}

ss::Result<ss::Bytes> TimedDisk::ReadPage(ss::ExtentId extent, uint32_t page) const {
  ++stats_->page_reads;
  return Timed(spans_, "disk.read_page", stats_->read_ns,
               [&] { return inner_->ReadPage(extent, page); });
}

ss::Result<ss::Bytes> TimedDisk::PeekPage(ss::ExtentId extent, uint32_t page) const {
  ++stats_->page_reads;
  return Timed(spans_, "disk.peek_page", stats_->read_ns,
               [&] { return inner_->PeekPage(extent, page); });
}

ss::Result<ss::Bytes> TimedDisk::ReadPages(ss::ExtentId extent, uint32_t first_page,
                                           uint32_t count) const {
  stats_->page_reads += count;
  return Timed(spans_, "disk.read_pages", stats_->read_ns,
               [&] { return inner_->ReadPages(extent, first_page, count); });
}

ss::Status TimedDisk::WriteSoftWp(ss::ExtentId extent, uint32_t wp_pages) {
  ++stats_->soft_wp_writes;
  return Timed(spans_, "disk.write_soft_wp", stats_->barrier_ns,
               [&] { return inner_->WriteSoftWp(extent, wp_pages); });
}

uint32_t TimedDisk::ReadSoftWp(ss::ExtentId extent) const {
  const Nanos start = NowNs();
  const uint32_t wp = inner_->ReadSoftWp(extent);
  stats_->other_ns += NowNs() - start;
  return wp;
}

ss::Status TimedDisk::WriteOwnership(ss::ExtentId extent, ss::ExtentOwner owner) {
  return Timed(spans_, "disk.write_ownership", stats_->other_ns,
               [&] { return inner_->WriteOwnership(extent, owner); });
}

ss::ExtentOwner TimedDisk::ReadOwnership(ss::ExtentId extent) const {
  const Nanos start = NowNs();
  const ss::ExtentOwner owner = inner_->ReadOwnership(extent);
  stats_->other_ns += NowNs() - start;
  return owner;
}

ss::Status TimedDisk::ResetExtentRegion(ss::ExtentId extent) {
  return Timed(spans_, "disk.reset_extent", stats_->other_ns,
               [&] { return inner_->ResetExtentRegion(extent); });
}

ss::Status TimedDisk::Sync() {
  return Timed(spans_, "disk.sync", stats_->barrier_ns, [&] { return inner_->Sync(); });
}

}  // namespace perfbench
