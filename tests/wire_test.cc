#include "shard/wire.h"

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedrec {
namespace {

SparseRowMatrix MakeUpload(std::size_t cols, std::initializer_list<std::size_t> rows,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseRowMatrix upload(cols);
  for (std::size_t row : rows) {
    for (float& v : upload.RowMutable(row)) {
      v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
    }
  }
  return upload;
}

SparseRoundDelta MakeDelta(std::size_t cols,
                           std::initializer_list<std::size_t> ascending_rows,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseRoundDelta delta;
  delta.Reset(cols);
  for (std::size_t row : ascending_rows) {
    for (float& v : delta.AppendRow(row)) {
      v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
    }
  }
  return delta;
}

void ExpectSameRows(const SparseRowMatrix& a, const SparseRowMatrix& b) {
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t slot = 0; slot < a.row_count(); ++slot) {
    EXPECT_EQ(a.row_ids()[slot], b.row_ids()[slot]);
    const auto ra = a.RowAtSlot(slot);
    const auto rb = b.RowAtSlot(slot);
    for (std::size_t d = 0; d < a.cols(); ++d) EXPECT_EQ(ra[d], rb[d]);
  }
}

TEST(Crc32Test, MatchesTheIeeeCheckVector) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(0, check, 9), 0xCBF43926u);
  // Incremental continuation equals the one-shot checksum.
  const std::uint32_t head = Crc32(0, check, 4);
  EXPECT_EQ(Crc32(head, check + 4, 5), 0xCBF43926u);
  EXPECT_EQ(Crc32(0, nullptr, 0), 0u);
}

TEST(Crc32Test, FoldedAndTablePathsAgreeOnEveryLengthAndAlignment) {
  // Every length 0..4096 (below, at and across the 64-byte fold threshold
  // and every 16-byte tail) at every start offset within a 16-byte block,
  // each from a random seed. Crc32 itself must agree too, whichever path it
  // dispatched to.
  Rng rng(31);
  std::vector<unsigned char> buffer(4096 + 16);
  for (auto& b : buffer) b = static_cast<unsigned char>(rng.NextBounded(256));
  const bool folded = HasFoldedCrc32();
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 4096; ++length) {
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      const unsigned char* data = buffer.data() + offset;
      const std::uint32_t reference = Crc32Table(seed, data, length);
      ASSERT_EQ(Crc32(seed, data, length), reference)
          << "offset " << offset << " length " << length;
      if (folded) {
        ASSERT_EQ(Crc32Folded(seed, data, length), reference)
            << "offset " << offset << " length " << length;
      }
    }
  }
#if defined(__x86_64__)
  // Every x86-64 host this project targets has PCLMULQDQ; a silent fallback
  // to the table would leave the folded path untested.
  EXPECT_TRUE(folded);
#endif
}

TEST(Crc32Test, ConcurrentFirstCallsAgree) {
  // Shard threads reach the run-time dispatch concurrently; every thread
  // must see one decision and the same checksum.
  std::vector<unsigned char> buffer(3000);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  const std::uint32_t expected = Crc32Table(0, buffer.data(), buffer.size());
  std::vector<std::uint32_t> results(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      results[t] = Crc32(0, buffer.data(), buffer.size());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::uint32_t result : results) EXPECT_EQ(result, expected);
}

TEST(WireUploadTest, ParseUploadViewsTheRowsInPlace) {
  const SparseRowMatrix upload = MakeUpload(3, {9, 2, 30}, 4);
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/12, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  Result<UploadView> parsed = ParseUpload(reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(reader.exhausted());
  const UploadView& view = parsed.value();
  EXPECT_EQ(view.source, 12u);
  ASSERT_EQ(view.cols, 3u);
  ASSERT_EQ(view.row_count, 3u);
  for (std::size_t i = 0; i < view.row_count; ++i) {
    EXPECT_EQ(view.RowId(i), upload.row_ids()[i]);
    float values[3];
    view.CopyRow(i, values);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(values[d], upload.RowAtSlot(i)[d]);
    }
  }
}

TEST(WireUploadTest, RoundTripsAllRows) {
  const SparseRowMatrix upload = MakeUpload(6, {12, 3, 40}, 1);
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/77, writer);

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> source = DecodeUpload(reader, decoded);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value(), 77u);
  EXPECT_TRUE(reader.exhausted());
  ExpectSameRows(upload, decoded);
}

TEST(WireUploadTest, RoundTripsSlotSubsetInGivenOrder) {
  const SparseRowMatrix upload = MakeUpload(4, {9, 2, 30, 17}, 2);
  const std::uint32_t slots[] = {2, 0};  // rows 30, 9 in that order
  BinaryWriter writer;
  EncodeUpload(upload, 5, slots, writer);

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  ASSERT_TRUE(DecodeUpload(reader, decoded).ok());
  ASSERT_EQ(decoded.row_count(), 2u);
  EXPECT_EQ(decoded.row_ids()[0], 30u);
  EXPECT_EQ(decoded.row_ids()[1], 9u);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(decoded.RowAtSlot(0)[d], upload.Row(30)[d]);
    EXPECT_EQ(decoded.RowAtSlot(1)[d], upload.Row(9)[d]);
  }
}

TEST(WireUploadTest, EmptyUploadRoundTrips) {
  const SparseRowMatrix upload(5);
  BinaryWriter writer;
  EncodeUpload(upload, 3, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> source = DecodeUpload(reader, decoded);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value(), 3u);
  EXPECT_EQ(decoded.cols(), 5u);
  EXPECT_TRUE(decoded.empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(WireUploadTest, MessagesAreSelfDelimiting) {
  const SparseRowMatrix first = MakeUpload(3, {1, 5}, 3);
  const SparseRowMatrix second = MakeUpload(3, {2}, 4);
  BinaryWriter writer;
  EncodeUpload(first, 10, writer);
  EncodeUpload(second, 11, writer);

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  ASSERT_EQ(DecodeUpload(reader, decoded).value(), 10u);
  ExpectSameRows(first, decoded);
  ASSERT_EQ(DecodeUpload(reader, decoded).value(), 11u);
  ExpectSameRows(second, decoded);
  EXPECT_TRUE(reader.exhausted());
}

TEST(WireDeltaTest, RoundTripsEmptySingleAndMultiRow) {
  for (const auto& rows : std::initializer_list<std::initializer_list<std::size_t>>{
           {}, {7}, {0, 3, 4, 90}}) {
    const SparseRoundDelta delta = MakeDelta(5, rows, 9);
    BinaryWriter writer;
    EncodeDelta(delta, writer);
    BinaryReader reader = BinaryReader::View(writer.buffer());
    SparseRoundDelta decoded;
    ASSERT_TRUE(DecodeDelta(reader, decoded).ok());
    EXPECT_TRUE(reader.exhausted());
    ASSERT_EQ(decoded.cols(), delta.cols());
    ASSERT_EQ(decoded.row_count(), delta.row_count());
    for (std::size_t slot = 0; slot < delta.row_count(); ++slot) {
      EXPECT_EQ(decoded.rows()[slot], delta.rows()[slot]);
      for (std::size_t d = 0; d < delta.cols(); ++d) {
        EXPECT_EQ(decoded.RowAtSlot(slot)[d], delta.RowAtSlot(slot)[d]);
      }
    }
  }
}

TEST(WireFailureTest, TruncatedBuffersFailWithCorruption) {
  const SparseRowMatrix upload = MakeUpload(4, {1, 2, 3}, 5);
  BinaryWriter writer;
  EncodeUpload(upload, 1, writer);
  const std::string& wire = writer.buffer();
  // Cut in the magic, the header, mid-payload, and inside the CRC trailer.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{2}, std::size_t{9}, std::size_t{30},
        wire.size() / 2, wire.size() - 2}) {
    BinaryReader reader = BinaryReader::View(
        std::string_view(wire.data(), keep));
    SparseRowMatrix decoded;
    Result<std::uint64_t> result = DecodeUpload(reader, decoded);
    ASSERT_FALSE(result.ok()) << "prefix " << keep << " decoded";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }

  const SparseRoundDelta delta = MakeDelta(4, {1, 2}, 6);
  BinaryWriter delta_writer;
  EncodeDelta(delta, delta_writer);
  BinaryReader reader = BinaryReader::View(std::string_view(
      delta_writer.buffer().data(), delta_writer.buffer().size() - 5));
  SparseRoundDelta decoded;
  EXPECT_EQ(DecodeDelta(reader, decoded).code(), StatusCode::kCorruption);
}

TEST(WireFailureTest, ForeignMagicFails) {
  const SparseRoundDelta delta = MakeDelta(3, {1}, 7);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  // A delta message is not an upload message, and vice versa.
  BinaryReader as_upload = BinaryReader::View(writer.buffer());
  SparseRowMatrix upload_out;
  Result<std::uint64_t> upload_result = DecodeUpload(as_upload, upload_out);
  ASSERT_FALSE(upload_result.ok());
  EXPECT_EQ(upload_result.status().code(), StatusCode::kCorruption);

  BinaryWriter garbage;
  garbage.WriteU32(0x12345678);
  garbage.WriteU32(1);
  BinaryReader reader = BinaryReader::View(garbage.buffer());
  SparseRoundDelta delta_out;
  EXPECT_EQ(DecodeDelta(reader, delta_out).code(), StatusCode::kCorruption);
}

TEST(WireFailureTest, UnknownVersionFails) {
  // Hand-build a version-3 upload header; the decoder must refuse before
  // touching the payload.
  BinaryWriter writer;
  writer.WriteU32(0x55575246);  // "FRWU"
  writer.WriteU32(3);           // unsupported version
  writer.WriteU64(0);           // source
  writer.WriteU64(3);           // cols
  writer.WriteU64(0);           // rows
  writer.WriteU32(Crc32(0, nullptr, 0));
  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(WireFailureTest, ChecksumCorruptionFailsBeforeParsing) {
  const SparseRowMatrix upload = MakeUpload(4, {5, 9}, 8);
  BinaryWriter writer;
  EncodeUpload(upload, 1, writer);
  std::string corrupted = writer.buffer();
  corrupted[corrupted.size() - 10] ^= 0x40;  // flip one payload bit
  BinaryReader reader = BinaryReader::View(corrupted);
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(WireFailureTest, DuplicateUploadRowFails) {
  // Hand-build a payload repeating row 4 with a VALID checksum: the decoder
  // must reject structure, not just bit flips.
  BinaryWriter payload;
  const float values[2] = {1.0f, 2.0f};
  payload.WriteU64(4);
  payload.WriteF32Array(values);
  payload.WriteU64(4);
  payload.WriteF32Array(values);

  BinaryWriter writer;
  writer.WriteU32(0x55575246);  // "FRWU"
  writer.WriteU32(2);
  writer.WriteU64(9);  // source
  writer.WriteU64(2);  // cols
  writer.WriteU64(2);  // rows
  writer.WriteBytes(payload.buffer().data(), payload.buffer().size());
  // v2 checksum: everything after the version field.
  writer.WriteU32(
      Crc32(0, writer.buffer().data() + 8, writer.buffer().size() - 8));

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("duplicate"), std::string::npos);
}

TEST(WireFailureTest, NonAscendingDeltaRowsFail) {
  BinaryWriter payload;
  const float values[2] = {1.0f, 2.0f};
  payload.WriteU64(5);
  payload.WriteF32Array(values);
  payload.WriteU64(3);  // descends
  payload.WriteF32Array(values);

  BinaryWriter writer;
  writer.WriteU32(0x44575246);  // "FRWD"
  writer.WriteU32(2);
  writer.WriteU64(2);  // cols
  writer.WriteU64(2);  // rows
  writer.WriteBytes(payload.buffer().data(), payload.buffer().size());
  // v2 checksum: everything after the version field.
  writer.WriteU32(
      Crc32(0, writer.buffer().data() + 8, writer.buffer().size() - 8));

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRoundDelta decoded;
  const Status status = DecodeDelta(reader, decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("ascending"), std::string::npos);
}

TEST(WireFailureTest, AbsurdRowCountFailsInsteadOfAllocating) {
  BinaryWriter writer;
  writer.WriteU32(0x55575246);  // "FRWU"
  writer.WriteU32(2);
  writer.WriteU64(0);                        // source
  writer.WriteU64(1u << 20);                 // cols
  writer.WriteU64(0xFFFFFFFFFFFFFFFFull);    // rows: overflow bait
  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// --- Exhaustive corruption sweep --------------------------------------------
//
// The fault-tolerance layer's contract is that NO single-byte transit
// corruption can slip through decoding: flip any bit of any byte, or cut the
// buffer at any length, and the decoder must return Status::Corruption — not
// crash, not silently accept (run under asan/ubsan in CI to make "not crash"
// a real check, not a hope).

TEST(WireCorruptionSweepTest, EveryUploadByteFlipFailsWithCorruption) {
  const SparseRowMatrix upload = MakeUpload(5, {4, 19, 33}, 21);
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/6, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t offset = 0; offset < wire.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      BinaryReader reader = BinaryReader::View(corrupted);
      SparseRowMatrix decoded;
      Result<std::uint64_t> result = DecodeUpload(reader, decoded);
      ASSERT_FALSE(result.ok())
          << "flip of byte " << offset << " bit " << bit << " decoded";
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(WireCorruptionSweepTest, EveryUploadTruncationFailsWithCorruption) {
  const SparseRowMatrix upload = MakeUpload(5, {4, 19, 33}, 21);
  BinaryWriter writer;
  EncodeUpload(upload, 6, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    BinaryReader reader =
        BinaryReader::View(std::string_view(wire.data(), keep));
    SparseRowMatrix decoded;
    Result<std::uint64_t> result = DecodeUpload(reader, decoded);
    ASSERT_FALSE(result.ok()) << "prefix " << keep << " decoded";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireCorruptionSweepTest, EveryDeltaByteFlipFailsWithCorruption) {
  const SparseRoundDelta delta = MakeDelta(5, {2, 8, 40}, 22);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t offset = 0; offset < wire.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      BinaryReader reader = BinaryReader::View(corrupted);
      SparseRoundDelta decoded;
      const Status status = DecodeDelta(reader, decoded);
      ASSERT_FALSE(status.ok())
          << "flip of byte " << offset << " bit " << bit << " decoded";
      EXPECT_EQ(status.code(), StatusCode::kCorruption);
    }
  }
}

TEST(WireCorruptionSweepTest, EveryDeltaTruncationFailsWithCorruption) {
  const SparseRoundDelta delta = MakeDelta(5, {2, 8, 40}, 22);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    BinaryReader reader =
        BinaryReader::View(std::string_view(wire.data(), keep));
    SparseRoundDelta decoded;
    const Status status = DecodeDelta(reader, decoded);
    ASSERT_FALSE(status.ok()) << "prefix " << keep << " decoded";
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
  }
}

TEST(WireSteadyStateTest, WarmEncodeDecodeLoopIsAllocationFree) {
  const SparseRowMatrix upload = MakeUpload(8, {3, 17, 44, 90}, 10);
  const SparseRoundDelta delta = MakeDelta(8, {2, 5, 51}, 11);
  BinaryWriter upload_writer;
  BinaryWriter delta_writer;
  SparseRowMatrix upload_out;
  SparseRoundDelta delta_out;
  for (int warm = 0; warm < 3; ++warm) {
    upload_writer.Clear();
    delta_writer.Clear();
    EncodeUpload(upload, 1, upload_writer);
    EncodeDelta(delta, delta_writer);
    BinaryReader upload_reader = BinaryReader::View(upload_writer.buffer());
    ASSERT_TRUE(DecodeUpload(upload_reader, upload_out).ok());
    BinaryReader delta_reader = BinaryReader::View(delta_writer.buffer());
    ASSERT_TRUE(DecodeDelta(delta_reader, delta_out).ok());
  }
  ResetSparseAllocationCount();
  for (int round = 0; round < 50; ++round) {
    upload_writer.Clear();
    delta_writer.Clear();
    EncodeUpload(upload, 1, upload_writer);
    EncodeDelta(delta, delta_writer);
    BinaryReader upload_reader = BinaryReader::View(upload_writer.buffer());
    ASSERT_TRUE(DecodeUpload(upload_reader, upload_out).ok());
    BinaryReader delta_reader = BinaryReader::View(delta_writer.buffer());
    ASSERT_TRUE(DecodeDelta(delta_reader, delta_out).ok());
  }
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

}  // namespace
}  // namespace fedrec
