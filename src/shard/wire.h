#ifndef FEDREC_SHARD_WIRE_H_
#define FEDREC_SHARD_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "common/matrix.h"
#include "common/status.h"
#include "data/serialize.h"

/// \file
/// Versioned little-endian wire format for the sharded federation layer: the
/// two row-set payloads a multi-server deployment moves between boxes.
///
///   FRWU (upload):  magic, version, source (round-unique upload sequence
///                   id assigned by the router — client ids are
///                   attacker-controlled and may collide), cols, row_count,
///                   row_count x { u64 row_id, f32 values[cols] }, crc32
///   FRWD (delta):   magic, version, cols, row_count,
///                   row_count x { u64 row_id, f32 values[cols] }, crc32
///                   (row ids strictly ascending)
///
/// The trailing CRC32 covers every byte after the version field — source,
/// cols, row_count and the row payload — so ANY flipped bit in transit fails
/// loudly as Status::Corruption instead of silently skewing the model (magic
/// and version are excluded: a flip there fails their own validation; a v1
/// message, whose CRC covered only the payload, could mis-frame on a
/// corrupted count). Exhaustively enforced by the wire_test corruption
/// sweep, which flips every byte and truncates at every length.
/// Encoders append to a caller-owned BinaryWriter and decoders parse a
/// BinaryReader in place (BinaryReader::View) — both sides reuse high-water
/// buffers, so a steady-state round encodes and decodes every message
/// without touching the heap. Messages are self-delimiting: a shard inbox is
/// just the concatenation of its round's FRWU messages.

namespace fedrec {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes,
/// continuing from `seed` (pass 0 to start a new checksum). Runs the folded
/// PCLMULQDQ path when HasFoldedCrc32(), the table path otherwise; both
/// return the same value for every input.
std::uint32_t Crc32(std::uint32_t seed, const void* data, std::size_t size);

/// Portable slice-by-8 table CRC-32 — the reference every other path must
/// match, and the path on CPUs without carry-less multiply.
std::uint32_t Crc32Table(std::uint32_t seed, const void* data,
                         std::size_t size);

/// True when this build targets x86-64 and the CPU has PCLMULQDQ, so the
/// folded CRC-32 path can run. Decided once per process.
bool HasFoldedCrc32();

/// Folded CRC-32: carry-less multiplication folds 64-byte blocks into a
/// 128-bit remainder, then a Barrett step reduces it to the same 32-bit CRC
/// as Crc32Table (inputs under 64 bytes and the sub-16-byte tail run the
/// table). Requires HasFoldedCrc32().
std::uint32_t Crc32Folded(std::uint32_t seed, const void* data,
                          std::size_t size);

/// Appends one FRWU message carrying the rows of `upload` whose slot indices
/// are listed in `slots` (in that order — the router preserves upload order,
/// which keeps every row's contributor sequence identical to the
/// single-server sweep). `source` identifies the upload within its round.
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  std::span<const std::uint32_t> slots, BinaryWriter& writer);

/// Appends one FRWU message carrying every row of `upload`.
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  BinaryWriter& writer);

/// One FRWU message that ParseUpload validated, viewed in place: the row
/// records still live in the parsed buffer, which must outlive the view.
struct UploadView {
  std::uint64_t source = 0;
  std::size_t cols = 0;
  std::size_t row_count = 0;
  /// row_count packed records of { u64 row id, f32 values[cols] }; they are
  /// not aligned, so read them through RowId and CopyRow.
  const char* records = nullptr;

  std::size_t record_bytes() const {
    return sizeof(std::uint64_t) + cols * sizeof(float);
  }
  std::uint64_t RowId(std::size_t i) const {
    std::uint64_t id;
    std::memcpy(&id, records + i * record_bytes(), sizeof(id));
    return id;
  }
  /// Copies record i's `cols` values to `out`.
  void CopyRow(std::size_t i, float* out) const {
    if (cols == 0) return;  // memcpy must not see a null `out`
    std::memcpy(out, records + i * record_bytes() + sizeof(std::uint64_t),
                cols * sizeof(float));
  }
};

/// Validates one FRWU message — magic, version, column and row counts
/// against the buffer, and the CRC over everything after the version — and
/// consumes it from `reader`. Row ids are not inspected: callers scatter the
/// rows and reject a duplicate row themselves. Fails with
/// Status::Corruption on a foreign magic, unknown version, truncated buffer
/// or checksum mismatch — never crashes, never silently accepts.
[[nodiscard]] Result<UploadView> ParseUpload(BinaryReader& reader);

/// ParseUpload plus a scatter of the rows into `out` (reset to the wire's
/// column count; retained capacity is reused). Returns the message's source
/// id. Additionally fails with Status::Corruption on a duplicate row id.
[[nodiscard]] Result<std::uint64_t> DecodeUpload(BinaryReader& reader,
                                                 SparseRowMatrix& out);

/// Appends one FRWD message carrying `delta` (rows already ascending).
void EncodeDelta(const SparseRoundDelta& delta, BinaryWriter& writer);

/// Decodes one FRWD message into `out` (reset to the wire's column count).
/// Additionally rejects row ids that are not strictly ascending.
[[nodiscard]] Status DecodeDelta(BinaryReader& reader, SparseRoundDelta& out);

}  // namespace fedrec

#endif  // FEDREC_SHARD_WIRE_H_
