// Unit + property tests for chunk framing, the chunk store, scanning, and reclamation.

#include <gtest/gtest.h>

#include <map>

#include "src/cache/buffer_cache.h"
#include "src/chunk/chunk_format.h"
#include "src/chunk/chunk_store.h"
#include "src/faults/faults.h"

namespace ss {
namespace {

TEST(ChunkFormat, RoundTrip) {
  Rng rng(1);
  Bytes payload = BytesOf("chunk payload");
  Bytes frame = EncodeChunkFrame(payload, Uuid::Random(rng));
  EXPECT_EQ(frame.size(), ChunkFrameBytes(payload.size()));
  EXPECT_EQ(DecodeChunkFrame(frame).value(), payload);
}

TEST(ChunkFormat, EmptyPayload) {
  Rng rng(2);
  Bytes frame = EncodeChunkFrame({}, Uuid::Random(rng));
  EXPECT_EQ(frame.size(), kChunkOverheadBytes);
  EXPECT_EQ(DecodeChunkFrame(frame).value(), Bytes{});
}

TEST(ChunkFormat, BadMagicIsCorruption) {
  Rng rng(3);
  Bytes frame = EncodeChunkFrame(BytesOf("x"), Uuid::Random(rng));
  frame[0] ^= 0xff;
  EXPECT_EQ(DecodeChunkFrame(frame).code(), StatusCode::kCorruption);
}

TEST(ChunkFormat, PayloadBitFlipIsCorruption) {
  Rng rng(4);
  Bytes frame = EncodeChunkFrame(BytesOf("payload"), Uuid::Random(rng));
  frame[kChunkHeaderBytes] ^= 0x01;
  EXPECT_EQ(DecodeChunkFrame(frame).code(), StatusCode::kCorruption);
}

TEST(ChunkFormat, TrailerMismatchIsCorruption) {
  Rng rng(5);
  Bytes frame = EncodeChunkFrame(BytesOf("payload"), Uuid::Random(rng));
  frame[frame.size() - 1] ^= 0x01;
  EXPECT_EQ(DecodeChunkFrame(frame).code(), StatusCode::kCorruption);
}

TEST(ChunkFormat, TruncatedFrameIsCorruption) {
  Rng rng(6);
  Bytes frame = EncodeChunkFrame(BytesOf("payload"), Uuid::Random(rng));
  frame.resize(frame.size() - 4);
  EXPECT_EQ(DecodeChunkFrame(frame).code(), StatusCode::kCorruption);
}

// Section 7: arbitrary bytes never crash the frame decoder.
class ChunkFormatFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(ChunkFormatFuzz, ArbitraryBytesNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.Below(200));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Below(256));
    }
    auto result = DecodeChunkFrame(junk);
    if (result.ok()) {
      // If it decoded, re-encoding with the embedded uuid must reproduce the frame
      // prefix — i.e. only genuinely well-formed frames decode.
      auto header = ParseChunkHeader(junk).value();
      EXPECT_EQ(ChunkFrameBytes(result.value().size()),
                ChunkFrameBytes(header.payload_len));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkFormatFuzz, testing::Values(11, 22, 33, 44));

class ChunkStoreTest : public testing::Test {
 protected:
  ChunkStoreTest()
      : disk_(DiskGeometry{.extent_count = 10, .pages_per_extent = 8, .page_size = 128}),
        scheduler_(&disk_),
        extents_(&disk_, &scheduler_),
        cache_(&extents_, 64),
        chunks_(&extents_, &cache_, ChunkStoreOptions{.max_payload_bytes = 512}) {
    FaultRegistry::Global().DisableAll();
  }

  Locator PutAndUnpin(ByteSpan data) {
    ChunkPutResult result = chunks_.Put(data, Dependency()).value();
    chunks_.Unpin(result.locator.extent);
    return result.locator;
  }

  InMemoryDisk disk_;
  IoScheduler scheduler_;
  ExtentManager extents_;
  BufferCache cache_;
  ChunkStore chunks_;
};

// Reclaim client over an explicit reference map.
class MapReclaimClient : public ReclaimClient {
 public:
  std::map<Locator, Bytes> refs;

  Result<std::optional<ChunkHolder>> FindHolder(const Locator& loc) override {
    if (refs.count(loc) == 0) {
      return std::optional<ChunkHolder>(std::nullopt);
    }
    return std::optional<ChunkHolder>(ChunkHolder{});
  }
  Result<Dependency> UpdateReference(const ChunkHolder& holder, const Locator& old_loc,
                                     const Locator& new_loc,
                                     const Dependency& new_dep) override {
    auto node = refs.extract(old_loc);
    node.key() = new_loc;
    refs.insert(std::move(node));
    return Dependency();
  }
  Dependency DropGate() override { return Dependency(); }
};

TEST_F(ChunkStoreTest, PutGetRoundTrip) {
  Bytes data = BytesOf("the quick brown fox");
  const Locator loc = PutAndUnpin(data);
  EXPECT_EQ(chunks_.Get(loc).value(), data);
}

TEST_F(ChunkStoreTest, PutTooLargeRejected) {
  Bytes big(513, 1);
  EXPECT_EQ(chunks_.Put(big, Dependency()).code(), StatusCode::kInvalidArgument);
}

TEST_F(ChunkStoreTest, LocatorsAreDistinct) {
  const Locator a = PutAndUnpin(BytesOf("aaa"));
  const Locator b = PutAndUnpin(BytesOf("bbb"));
  EXPECT_NE(a, b);
  EXPECT_EQ(chunks_.Get(a).value(), BytesOf("aaa"));
  EXPECT_EQ(chunks_.Get(b).value(), BytesOf("bbb"));
}

TEST_F(ChunkStoreTest, GetWithBogusLocatorFailsCleanly) {
  Locator bogus{3, 0, 1, 60};
  auto result = chunks_.Get(bogus);
  EXPECT_FALSE(result.ok());  // either read-beyond-wp or corruption, never a crash
}

TEST_F(ChunkStoreTest, GetValidatesLocatorShape) {
  Locator nonsense{1, 0, 9, 50};  // page_count inconsistent with frame_bytes
  EXPECT_EQ(chunks_.Get(nonsense).code(), StatusCode::kCorruption);
}

TEST_F(ChunkStoreTest, ScanFindsAllChunksInOrder) {
  std::vector<Bytes> payloads = {BytesOf("one"), Bytes(200, 0x22), BytesOf("three")};
  std::vector<Locator> locs;
  for (const Bytes& p : payloads) {
    locs.push_back(PutAndUnpin(p));
  }
  ASSERT_EQ(locs[0].extent, locs[1].extent);
  auto scanned = chunks_.ScanExtent(locs[0].extent).value();
  ASSERT_EQ(scanned.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scanned[i].locator, locs[i]);
    EXPECT_EQ(scanned[i].payload, payloads[i]);
  }
}

TEST_F(ChunkStoreTest, ReclaimEvacuatesReferencedDropsGarbage) {
  MapReclaimClient client;
  const Locator live = PutAndUnpin(BytesOf("live data"));
  const Locator dead = PutAndUnpin(BytesOf("dead data"));
  client.refs[live] = BytesOf("live data");
  const ExtentId victim = live.extent;
  ASSERT_EQ(dead.extent, victim);

  ASSERT_TRUE(chunks_.Reclaim(victim, &client).ok());
  ASSERT_TRUE(scheduler_.FlushAll().ok());

  // The live chunk moved and is readable at its new location.
  ASSERT_EQ(client.refs.size(), 1u);
  const Locator moved = client.refs.begin()->first;
  EXPECT_NE(moved.extent, victim);
  EXPECT_EQ(chunks_.Get(moved).value(), BytesOf("live data"));
  // The victim extent was reset.
  EXPECT_EQ(extents_.WritePointer(victim), 0u);
  EXPECT_EQ(chunks_.metrics().Snapshot().counter("chunk.evacuated"), 1u);
  EXPECT_EQ(chunks_.metrics().Snapshot().counter("chunk.dropped"), 1u);
}

TEST_F(ChunkStoreTest, ReclaimRefusesPinnedExtent) {
  ChunkPutResult pinned = chunks_.Put(BytesOf("pinned"), Dependency()).value();
  MapReclaimClient client;
  EXPECT_EQ(chunks_.Reclaim(pinned.locator.extent, &client).code(), StatusCode::kUnavailable);
  chunks_.Unpin(pinned.locator.extent);
  EXPECT_TRUE(chunks_.Reclaim(pinned.locator.extent, &client).ok());
}

TEST_F(ChunkStoreTest, PinsAreCounted) {
  ChunkPutResult a = chunks_.Put(BytesOf("a"), Dependency()).value();
  ChunkPutResult b = chunks_.Put(BytesOf("b"), Dependency()).value();
  ASSERT_EQ(a.locator.extent, b.locator.extent);
  chunks_.Unpin(a.locator.extent);
  MapReclaimClient client;
  EXPECT_EQ(chunks_.Reclaim(a.locator.extent, &client).code(), StatusCode::kUnavailable);
  chunks_.Unpin(a.locator.extent);
  EXPECT_TRUE(chunks_.Reclaim(a.locator.extent, &client).ok());
}

TEST_F(ChunkStoreTest, ReclaimedExtentIsReusedAfterResetSettles) {
  MapReclaimClient client;
  // Two 450-byte payloads (4 pages framed each) fill the 8-page extent exactly.
  const Locator dead = PutAndUnpin(Bytes(450, 1));
  const Locator dead2 = PutAndUnpin(Bytes(450, 1));
  ASSERT_EQ(dead.extent, dead2.extent);
  const ExtentId victim = dead.extent;
  ASSERT_TRUE(chunks_.Reclaim(victim, &client).ok());
  // Before the reset persists, the extent is not an allocation target.
  EXPECT_FALSE(extents_.ResetSettled(victim));
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  EXPECT_TRUE(extents_.ResetSettled(victim));
  // Now a big put can land there again.
  const Locator reused = PutAndUnpin(Bytes(450, 2));
  EXPECT_EQ(reused.extent, victim);
}

TEST_F(ChunkStoreTest, ReclaimAbortsOnReadError) {
  MapReclaimClient client;
  const Locator live = PutAndUnpin(BytesOf("live"));
  client.refs[live] = BytesOf("live");
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailReadTimes(live.extent, common::RetryOptions{}.max_attempts);
  EXPECT_EQ(chunks_.Reclaim(live.extent, &client).code(), StatusCode::kIoError);
  // The chunk survived the aborted reclaim.
  EXPECT_EQ(chunks_.Get(live).value(), BytesOf("live"));
}

TEST_F(ChunkStoreTest, Bug5DropsChunkOnReadError) {
  ScopedBug bug(SeededBug::kReclaimForgetsChunkOnReadError);
  MapReclaimClient client;
  const Locator live = PutAndUnpin(BytesOf("live"));
  client.refs[live] = BytesOf("live");
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailReadTimes(live.extent, common::RetryOptions{}.max_attempts);
  ASSERT_TRUE(chunks_.Reclaim(live.extent, &client).ok());  // "succeeds", wrongly
  // The chunk was forgotten: reference unchanged but the extent was reset.
  EXPECT_EQ(client.refs.begin()->first, live);
  EXPECT_FALSE(chunks_.Get(live).ok());
}

TEST_F(ChunkStoreTest, Bug1OvershootSkipsPageAlignedNeighbour) {
  ScopedBug bug(SeededBug::kReclaimOffByOnePageSize);
  MapReclaimClient client;
  // First chunk's frame is exactly one page (128 - 43 = 85 payload bytes).
  const Locator first = PutAndUnpin(Bytes(85, 0xaa));
  const Locator second = PutAndUnpin(BytesOf("neighbour"));
  ASSERT_EQ(first.extent, second.extent);
  client.refs[first] = Bytes(85, 0xaa);
  client.refs[second] = BytesOf("neighbour");
  ASSERT_TRUE(chunks_.Reclaim(first.extent, &client).ok());
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  // The scan strode over the second chunk, so it was dropped by the reset.
  EXPECT_FALSE(chunks_.Get(client.refs.count(second) ? second : second).ok());
  EXPECT_EQ(chunks_.metrics().Snapshot().counter("chunk.evacuated"), 1u);
}

TEST_F(ChunkStoreTest, CorruptPageResynchronizesScan) {
  const Locator a = PutAndUnpin(BytesOf("aaa"));
  const Locator b = PutAndUnpin(BytesOf("bbb"));
  ASSERT_EQ(a.extent, b.extent);
  // Corrupt the first chunk's page directly on the volatile image via a fresh append
  // path is not possible; instead corrupt the persistent page and re-open the stack.
  ASSERT_TRUE(scheduler_.FlushAll().ok());
  Bytes garbage(128, 0xee);
  ASSERT_TRUE(disk_.WritePage(a.extent, a.first_page, garbage).ok());
  IoScheduler scheduler2(&disk_);
  ExtentManager extents2(&disk_, &scheduler2);
  BufferCache cache2(&extents2, 64);
  ChunkStore chunks2(&extents2, &cache2, ChunkStoreOptions{.max_payload_bytes = 512});
  auto scanned = chunks2.ScanExtent(a.extent).value();
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_EQ(scanned[0].payload, BytesOf("bbb"));
  EXPECT_GE(chunks2.metrics().Snapshot().counter("chunk.corrupt_frames_skipped"), 1u);
}

TEST_F(ChunkStoreTest, ReclaimableExtentsExcludesActiveAndEmpty) {
  EXPECT_TRUE(chunks_.ReclaimableExtents().empty());
  PutAndUnpin(Bytes(450, 1));  // 4 pages
  PutAndUnpin(Bytes(450, 1));  // fills the 8-page extent -> sealed
  PutAndUnpin(BytesOf("x"));   // second extent becomes active
  auto reclaimable = chunks_.ReclaimableExtents();
  ASSERT_EQ(reclaimable.size(), 1u);
}

}  // namespace
}  // namespace ss
