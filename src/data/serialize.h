#ifndef FEDREC_DATA_SERIALIZE_H_
#define FEDREC_DATA_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix.h"
#include "data/dataset.h"
#include "common/status.h"

/// \file
/// Little-endian binary serialization for the library's value types: feature
/// matrices (model checkpoints), datasets (preprocessed caches), and the
/// shard-layer wire messages (src/shard/wire.h). Formats carry a magic tag
/// and version so stale or foreign files fail loudly.

namespace fedrec {

/// Appends primitive values to a byte buffer.
class BinaryWriter {
 public:
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteF32(float value);
  void WriteBytes(const void* data, std::size_t size);
  void WriteString(const std::string& text);

  /// Appends `values` with a single bulk copy — the float payloads of
  /// checkpoints and wire messages never loop per element.
  void WriteF32Array(std::span<const float> values);

  /// Drops the accumulated bytes but keeps the buffer's capacity, so a
  /// writer reused message over message (the shard wire path) stops
  /// allocating once its high-water size is reached.
  void Clear() { buffer_.clear(); }

  const std::string& buffer() const { return buffer_; }
  /// In-place access for transport simulation (fault injection mutates the
  /// bytes "on the wire"); never used by the writers themselves.
  std::string& mutable_buffer() { return buffer_; }

  /// Writes the accumulated buffer to `path`.
  [[nodiscard]] Status Flush(const std::string& path) const;

 private:
  std::string buffer_;
};

/// Reads primitive values from a byte buffer with bounds checking.
class BinaryReader {
 public:
  /// Empty reader (required by Result<BinaryReader>); every read fails.
  BinaryReader() = default;

  /// Owning reader over a copy of `buffer`.
  explicit BinaryReader(std::string buffer)
      : owned_(std::move(buffer)), external_mode_(false) {}

  /// Non-owning reader over `buffer`, which must outlive the reader. The
  /// wire hot path decodes shard inboxes in place with zero copies.
  static BinaryReader View(std::string_view buffer);

  /// Loads a whole file into a reader.
  [[nodiscard]] static Result<BinaryReader> FromFile(const std::string& path);

  [[nodiscard]] Result<std::uint32_t> ReadU32();
  [[nodiscard]] Result<std::uint64_t> ReadU64();
  [[nodiscard]] Result<float> ReadF32();
  [[nodiscard]] Result<std::string> ReadString();

  /// Fills `out` with a single bulk copy (the counterpart of WriteF32Array).
  [[nodiscard]] Status ReadF32Array(std::span<float> out);

  /// View of the next `bytes` bytes without consuming them — checksum
  /// validation reads the payload once before parsing it.
  [[nodiscard]] Result<std::string_view> PeekBytes(std::size_t bytes);

  /// View of the next `bytes` bytes, consumed — how a validated wire message
  /// hands its payload to a parser that reads it in place.
  [[nodiscard]] Result<std::string_view> ReadBytes(std::size_t bytes);

  std::size_t position() const { return position_; }
  std::size_t remaining() const { return data().size() - position_; }
  bool exhausted() const { return position_ >= data().size(); }

 private:
  [[nodiscard]] Status Need(std::size_t bytes) const;

  /// The byte source: the owned copy or the external view. Recomputed on
  /// every access so a moved-from/into reader never dangles into a
  /// small-string buffer that relocated with the move.
  std::string_view data() const {
    return external_mode_ ? external_ : std::string_view(owned_);
  }

  std::string owned_;
  std::string_view external_;
  bool external_mode_ = false;
  std::size_t position_ = 0;
};

/// Saves a dense matrix ("FRMX" format, version 1).
[[nodiscard]] Status SaveMatrix(const Matrix& matrix, const std::string& path);

/// Loads a matrix saved by SaveMatrix; rejects foreign/corrupt files.
[[nodiscard]] Result<Matrix> LoadMatrix(const std::string& path);

/// Saves a dataset ("FRDS" format, version 1): name, shape, interactions.
[[nodiscard]] Status SaveDataset(const Dataset& dataset,
                                 const std::string& path);

/// Loads a dataset saved by SaveDataset.
[[nodiscard]] Result<Dataset> LoadDataset(const std::string& path);

}  // namespace fedrec

#endif  // FEDREC_DATA_SERIALIZE_H_
