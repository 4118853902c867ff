#include "shard/wire.h"

#include <array>
#include <cstring>
#include <limits>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FEDREC_CRC32_FOLDED 1
#else
#define FEDREC_CRC32_FOLDED 0
#endif

namespace fedrec {

namespace {

constexpr std::uint32_t kUploadMagic = 0x55575246;  // "FRWU"
constexpr std::uint32_t kDeltaMagic = 0x44575246;   // "FRWD"
// v2: the CRC covers every byte after the version field (source / cols /
// row_count included), not just the row payload — a v1 message with a
// flipped count or source validated its checksum and mis-parsed. Magic and
// version stay outside: a flip there already fails their own checks.
constexpr std::uint32_t kWireVersion = 2;

// Slice-by-8 CRC tables: table[0] is the classic byte-at-a-time table and
// table[k][b] is the CRC of byte b followed by k zero bytes, so eight input
// bytes fold into the accumulator with eight independent lookups per step
// (~6x the throughput of the bytewise loop). This is the portable path and
// the reference the folded path is tested against.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

/// Table CRC over raw state (pre- and post-inversion are the caller's).
std::uint32_t TableCrcState(std::uint32_t crc, const unsigned char* bytes,
                            std::size_t size) {
  static const CrcTables tables = BuildCrcTables();
  while (size >= 8) {
    std::uint32_t low;
    std::uint32_t high;
    std::memcpy(&low, bytes, sizeof(low));
    std::memcpy(&high, bytes + 4, sizeof(high));
    low ^= crc;
    crc = tables[7][low & 0xFFu] ^ tables[6][(low >> 8) & 0xFFu] ^
          tables[5][(low >> 16) & 0xFFu] ^ tables[4][low >> 24] ^
          tables[3][high & 0xFFu] ^ tables[2][(high >> 8) & 0xFFu] ^
          tables[1][(high >> 16) & 0xFFu] ^ tables[0][high >> 24];
    bytes += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ tables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return crc;
}

// Folding constants of the reflected CRC-32, derived from the generator
// P(x) = x^32 + 0x04C11DB7 (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", 2009). In the bit-reflected domain a 64-bit
// lane holding a remainder chunk is multiplied by x^e mod P to move it e
// bits further along the message; the stored constant is that residue
// reflected and shifted left by one (the carry-less product of two reflected
// operands lands one bit low).
constexpr std::uint64_t ReflectBits(std::uint64_t value, int bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    if ((value >> i) & 1u) out |= std::uint64_t{1} << (bits - 1 - i);
  }
  return out;
}

constexpr std::uint64_t kCrcGenerator = 0x104C11DB7;  // x^32 + 0x04C11DB7

/// x^e mod P(x), normal bit order.
constexpr std::uint64_t XPowModP(int e) {
  std::uint64_t residue = 1;
  for (int i = 0; i < e; ++i) {
    residue <<= 1;
    if ((residue >> 32) & 1u) residue ^= kCrcGenerator;
  }
  return residue;
}

constexpr std::uint64_t FoldConstant(int e) {
  return ReflectBits(XPowModP(e), 32) << 1;
}

/// floor(x^64 / P(x)), the Barrett quotient, reflected over its 33 bits.
constexpr std::uint64_t BarrettMu() {
  // Long division, one quotient bit per step: `window` holds the 33
  // remainder bits whose top is the dividend bit 32 + `bit`; the dividend's
  // bits below x^64 are zero, so each shift brings in a zero.
  std::uint64_t window = std::uint64_t{1} << 32;
  std::uint64_t quotient = 0;
  for (int bit = 32; bit >= 0; --bit) {
    if ((window >> 32) & 1u) {
      quotient |= std::uint64_t{1} << bit;
      window ^= kCrcGenerator;
    }
    window <<= 1;
  }
  return ReflectBits(quotient, 33);
}

constexpr std::uint64_t kFold4x128Low = FoldConstant(4 * 128 + 32);
constexpr std::uint64_t kFold4x128High = FoldConstant(4 * 128 - 32);
constexpr std::uint64_t kFold128Low = FoldConstant(128 + 32);
constexpr std::uint64_t kFold128High = FoldConstant(128 - 32);
constexpr std::uint64_t kFold64 = FoldConstant(64);
constexpr std::uint64_t kBarrettMu = BarrettMu();
constexpr std::uint64_t kReflectedGenerator = ReflectBits(kCrcGenerator, 33);
// The published values of the same constants: a derivation slip fails the
// build instead of a checksum.
static_assert(kFold4x128Low == 0x154442BD4 && kFold4x128High == 0x1C6E41596);
static_assert(kFold128Low == 0x1751997D0 && kFold128High == 0x0CCAA009E);
static_assert(kFold64 == 0x163CD6124);
static_assert(kBarrettMu == 0x1F7011641 && kReflectedGenerator == 0x1DB710641);

#if FEDREC_CRC32_FOLDED
inline __m128i LoadBlock(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.low * k.low ^ x.high * k.high ^ next: moves a 128-bit remainder chunk
/// forward by the distance `k` encodes and adds the next input block.
__attribute__((target("pclmul"))) inline __m128i FoldBlock(__m128i x,
                                                           __m128i k,
                                                           __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folds `size` bytes (a multiple of 16, at least 64) into raw CRC state.
__attribute__((target("pclmul"))) std::uint32_t FoldedCrcState(
    std::uint32_t crc, const unsigned char* bytes, std::size_t size) {
  __m128i x0 = _mm_xor_si128(LoadBlock(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = LoadBlock(bytes + 16);
  __m128i x2 = LoadBlock(bytes + 32);
  __m128i x3 = LoadBlock(bytes + 48);
  bytes += 64;
  size -= 64;
  // Four independent 128-bit lanes, each folded 512 bits forward per step.
  const __m128i k4x128 = _mm_set_epi64x(static_cast<long long>(kFold4x128High),
                                        static_cast<long long>(kFold4x128Low));
  for (; size >= 64; bytes += 64, size -= 64) {
    x0 = FoldBlock(x0, k4x128, LoadBlock(bytes));
    x1 = FoldBlock(x1, k4x128, LoadBlock(bytes + 16));
    x2 = FoldBlock(x2, k4x128, LoadBlock(bytes + 32));
    x3 = FoldBlock(x3, k4x128, LoadBlock(bytes + 48));
  }
  // Collapse the lanes into one, then fold the remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128High),
                                      static_cast<long long>(kFold128Low));
  __m128i x = FoldBlock(x0, k128, x1);
  x = FoldBlock(x, k128, x2);
  x = FoldBlock(x, k128, x3);
  for (; size >= 16; bytes += 16, size -= 16) {
    x = FoldBlock(x, k128, LoadBlock(bytes));
  }
  // 128 -> 64 bits: the low half times x^(128-32) onto the high half.
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k128, 0x10));
  // 64 -> 32 bits: the low 32 bits times x^64 onto the rest.
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));
  // Barrett reduction: q = floor(x * mu / x^64), crc = x ^ q * P.
  const __m128i barrett =
      _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                     static_cast<long long>(kReflectedGenerator));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  x = _mm_xor_si128(x, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}
#endif  // FEDREC_CRC32_FOLDED

/// Notes one sparse-allocation event when an encode grew the writer's
/// buffer, so the wire path participates in the round loop's hook-measured
/// zero-allocation guarantee alongside the sparse containers.
class WriterGrowthScope {
 public:
  explicit WriterGrowthScope(const BinaryWriter& writer)
      : writer_(writer), capacity_before_(writer.buffer().capacity()) {}
  ~WriterGrowthScope() {
    internal::NoteSparseGrowth(writer_.buffer().capacity(), capacity_before_);
  }

 private:
  const BinaryWriter& writer_;
  std::size_t capacity_before_;
};

struct PayloadShape {
  std::size_t cols = 0;
  std::size_t row_count = 0;
  std::size_t payload_bytes = 0;
};

/// Reads and validates cols/row_count, bounds the payload against the
/// remaining buffer (overflow-safe), and pre-checksums the covered header
/// bytes and the payload so corruption is detected before any row is parsed
/// into `out`. `header_crc` continues the checksum over covered header
/// fields the caller already consumed (FRWU's source; 0 when none).
Result<PayloadShape> ReadAndChecksumPayload(BinaryReader& reader,
                                            std::uint32_t header_crc,
                                            const char* what) {
  // cols/row_count are themselves covered: fold their bytes in before
  // parsing, so a flipped count fails the checksum instead of mis-framing.
  Result<std::string_view> counts = reader.PeekBytes(2 * sizeof(std::uint64_t));
  if (!counts.ok()) return counts.status();
  const std::uint32_t crc_through_counts =
      Crc32(header_crc, counts.value().data(), 2 * sizeof(std::uint64_t));
  Result<std::uint64_t> cols = reader.ReadU64();
  if (!cols.ok()) return cols.status();
  Result<std::uint64_t> row_count = reader.ReadU64();
  if (!row_count.ok()) return row_count.status();

  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  if (cols.value() > (kMax - sizeof(std::uint64_t)) / sizeof(float)) {
    return Status::Corruption(std::string(what) + ": absurd column count");
  }
  const std::uint64_t row_bytes =
      sizeof(std::uint64_t) + cols.value() * sizeof(float);
  if (row_count.value() > (kMax - sizeof(std::uint32_t)) / row_bytes) {
    return Status::Corruption(std::string(what) + ": absurd row count");
  }
  PayloadShape shape;
  shape.cols = static_cast<std::size_t>(cols.value());
  shape.row_count = static_cast<std::size_t>(row_count.value());
  shape.payload_bytes = static_cast<std::size_t>(row_count.value() * row_bytes);

  // Peek payload + CRC trailer in one bounds check, then verify the checksum
  // before touching `out`.
  Result<std::string_view> framed =
      reader.PeekBytes(shape.payload_bytes + sizeof(std::uint32_t));
  if (!framed.ok()) return framed.status();
  const std::uint32_t computed =
      Crc32(crc_through_counts, framed.value().data(), shape.payload_bytes);
  std::uint32_t stored;
  std::memcpy(&stored, framed.value().data() + shape.payload_bytes,
              sizeof(stored));
  if (computed != stored) {
    return Status::Corruption(std::string(what) +
                              ": payload checksum mismatch");
  }
  return shape;
}

/// Consumes the already-validated CRC trailer.
Status SkipCrcTrailer(BinaryReader& reader) {
  return reader.ReadU32().ok()
             ? Status::OK()
             : Status::Corruption("wire message lost its checksum trailer");
}

}  // namespace

std::uint32_t Crc32Table(std::uint32_t seed, const void* data,
                         std::size_t size) {
  return ~TableCrcState(~seed, static_cast<const unsigned char*>(data), size);
}

bool HasFoldedCrc32() {
#if FEDREC_CRC32_FOLDED
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

std::uint32_t Crc32Folded(std::uint32_t seed, const void* data,
                          std::size_t size) {
  FEDREC_DCHECK(HasFoldedCrc32());
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
#if FEDREC_CRC32_FOLDED
  if (size >= 64) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = FoldedCrcState(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return ~TableCrcState(crc, bytes, size);
}

std::uint32_t Crc32(std::uint32_t seed, const void* data, std::size_t size) {
  return HasFoldedCrc32() ? Crc32Folded(seed, data, size)
                          : Crc32Table(seed, data, size);
}

namespace {

/// Writes the FRWU header; returns the checksum start offset (everything
/// after the version field is covered) for the trailer.
std::size_t BeginUploadMessage(std::uint64_t source, std::size_t cols,
                               std::size_t row_count, BinaryWriter& writer) {
  writer.WriteU32(kUploadMagic);
  writer.WriteU32(kWireVersion);
  const std::size_t crc_begin = writer.buffer().size();
  writer.WriteU64(source);
  writer.WriteU64(cols);
  writer.WriteU64(row_count);
  return crc_begin;
}

/// Appends the CRC trailer over [crc_begin, current end).
void FinishMessage(std::size_t crc_begin, BinaryWriter& writer) {
  writer.WriteU32(Crc32(0, writer.buffer().data() + crc_begin,
                        writer.buffer().size() - crc_begin));
}

}  // namespace

// fedrec:hot — per-round wire encode; writes into the caller's retained
// buffer (WriterGrowthScope tracks the one-time high-water growth).
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  std::span<const std::uint32_t> slots, BinaryWriter& writer) {
  WriterGrowthScope growth(writer);
  const std::size_t crc_begin =
      BeginUploadMessage(source, upload.cols(), slots.size(), writer);
  const auto& row_ids = upload.row_ids();
  for (std::uint32_t slot : slots) {
    FEDREC_DCHECK(slot < row_ids.size());
    writer.WriteU64(row_ids[slot]);
    writer.WriteF32Array(upload.RowAtSlot(slot));
  }
  FinishMessage(crc_begin, writer);
}

// fedrec:hot
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  BinaryWriter& writer) {
  WriterGrowthScope growth(writer);
  const std::size_t crc_begin =
      BeginUploadMessage(source, upload.cols(), upload.row_count(), writer);
  const auto& row_ids = upload.row_ids();
  for (std::size_t slot = 0; slot < row_ids.size(); ++slot) {
    writer.WriteU64(row_ids[slot]);
    writer.WriteF32Array(upload.RowAtSlot(slot));
  }
  FinishMessage(crc_begin, writer);
}

// fedrec:hot — validates in place; corruption paths may build messages
// (std::to_string) since they abort the round.
Result<UploadView> ParseUpload(BinaryReader& reader) {
  Result<std::uint32_t> magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kUploadMagic) {
    return Status::Corruption("not a FRWU upload message");
  }
  Result<std::uint32_t> version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kWireVersion) {
    return Status::Corruption("unsupported FRWU version " +
                              std::to_string(version.value()));
  }
  // The source id is covered by the checksum: fold its bytes in before
  // consuming it (a flipped source would otherwise double- or mis-route).
  Result<std::string_view> source_bytes =
      reader.PeekBytes(sizeof(std::uint64_t));
  if (!source_bytes.ok()) return source_bytes.status();
  const std::uint32_t header_crc =
      Crc32(0, source_bytes.value().data(), sizeof(std::uint64_t));
  Result<std::uint64_t> source = reader.ReadU64();
  if (!source.ok()) return source.status();

  Result<PayloadShape> shape =
      ReadAndChecksumPayload(reader, header_crc, "FRWU upload");
  if (!shape.ok()) return shape.status();
  Result<std::string_view> payload =
      reader.ReadBytes(shape.value().payload_bytes);
  if (!payload.ok()) return payload.status();
  FEDREC_RETURN_NOT_OK(SkipCrcTrailer(reader));
  UploadView view;
  view.source = source.value();
  view.cols = shape.value().cols;
  view.row_count = shape.value().row_count;
  view.records = payload.value().data();
  return view;
}

// fedrec:hot — scatters into `out`'s retained slots.
Result<std::uint64_t> DecodeUpload(BinaryReader& reader, SparseRowMatrix& out) {
  Result<UploadView> parsed = ParseUpload(reader);
  if (!parsed.ok()) return parsed.status();
  const UploadView& view = parsed.value();
  out.Reset(view.cols);
  for (std::size_t i = 0; i < view.row_count; ++i) {
    const auto id = static_cast<std::size_t>(view.RowId(i));
    if (out.Contains(id)) {
      return Status::Corruption("FRWU upload: duplicate row " +
                                std::to_string(id));
    }
    view.CopyRow(i, out.RowMutable(id).data());
  }
  return view.source;
}

// fedrec:hot
void EncodeDelta(const SparseRoundDelta& delta, BinaryWriter& writer) {
  WriterGrowthScope growth(writer);
  writer.WriteU32(kDeltaMagic);
  writer.WriteU32(kWireVersion);
  const std::size_t crc_begin = writer.buffer().size();
  writer.WriteU64(delta.cols());
  writer.WriteU64(delta.row_count());
  const auto& rows = delta.rows();
  for (std::size_t slot = 0; slot < rows.size(); ++slot) {
    writer.WriteU64(rows[slot]);
    writer.WriteF32Array(delta.RowAtSlot(slot));
  }
  FinishMessage(crc_begin, writer);
}

// fedrec:hot
Status DecodeDelta(BinaryReader& reader, SparseRoundDelta& out) {
  Result<std::uint32_t> magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kDeltaMagic) {
    return Status::Corruption("not a FRWD delta message");
  }
  Result<std::uint32_t> version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kWireVersion) {
    return Status::Corruption("unsupported FRWD version " +
                              std::to_string(version.value()));
  }
  Result<PayloadShape> shape =
      ReadAndChecksumPayload(reader, /*header_crc=*/0, "FRWD delta");
  if (!shape.ok()) return shape.status();

  out.Reset(shape.value().cols);
  std::size_t previous = 0;
  for (std::size_t i = 0; i < shape.value().row_count; ++i) {
    Result<std::uint64_t> row = reader.ReadU64();
    if (!row.ok()) return row.status();
    const auto id = static_cast<std::size_t>(row.value());
    if (i > 0 && id <= previous) {
      return Status::Corruption("FRWD delta: rows not strictly ascending");
    }
    previous = id;
    FEDREC_RETURN_NOT_OK(reader.ReadF32Array(out.AppendRowForOverwrite(id)));
  }
  return SkipCrcTrailer(reader);
}

}  // namespace fedrec
