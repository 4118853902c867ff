#include "data/serialize.h"

#include <cstring>

#include "common/csv.h"

namespace fedrec {

namespace {

constexpr std::uint32_t kMatrixMagic = 0x584D5246;   // "FRMX"
constexpr std::uint32_t kDatasetMagic = 0x53445246;  // "FRDS"
constexpr std::uint32_t kFormatVersion = 1;

}  // namespace

void BinaryWriter::WriteU32(std::uint32_t value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteU64(std::uint64_t value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteF32(float value) { WriteBytes(&value, sizeof(value)); }

void BinaryWriter::WriteBytes(const void* data, std::size_t size) {
  // An empty span's data() may be null, and append(nullptr, 0) is UB.
  if (size == 0) return;
  buffer_.append(static_cast<const char*>(data), size);
}

void BinaryWriter::WriteString(const std::string& text) {
  WriteU64(text.size());
  WriteBytes(text.data(), text.size());
}

void BinaryWriter::WriteF32Array(std::span<const float> values) {
  WriteBytes(values.data(), values.size() * sizeof(float));
}

Status BinaryWriter::Flush(const std::string& path) const {
  return WriteStringToFile(path, buffer_);
}

BinaryReader BinaryReader::View(std::string_view buffer) {
  BinaryReader reader;
  reader.external_ = buffer;
  reader.external_mode_ = true;
  return reader;
}

Result<BinaryReader> BinaryReader::FromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return BinaryReader(std::move(content).value());
}

Status BinaryReader::Need(std::size_t bytes) const {
  if (bytes > data().size() - position_) {
    return Status::Corruption("binary stream truncated: need " +
                              std::to_string(bytes) + " bytes, have " +
                              std::to_string(data().size() - position_));
  }
  return Status::OK();
}

Result<std::uint32_t> BinaryReader::ReadU32() {
  FEDREC_RETURN_NOT_OK(Need(sizeof(std::uint32_t)));
  std::uint32_t value;
  std::memcpy(&value, data().data() + position_, sizeof(value));
  position_ += sizeof(value);
  return value;
}

Result<std::uint64_t> BinaryReader::ReadU64() {
  FEDREC_RETURN_NOT_OK(Need(sizeof(std::uint64_t)));
  std::uint64_t value;
  std::memcpy(&value, data().data() + position_, sizeof(value));
  position_ += sizeof(value);
  return value;
}

Result<float> BinaryReader::ReadF32() {
  FEDREC_RETURN_NOT_OK(Need(sizeof(float)));
  float value;
  std::memcpy(&value, data().data() + position_, sizeof(value));
  position_ += sizeof(value);
  return value;
}

Result<std::string> BinaryReader::ReadString() {
  Result<std::uint64_t> size = ReadU64();
  if (!size.ok()) return size.status();
  FEDREC_RETURN_NOT_OK(Need(size.value()));
  std::string text(data().data() + position_,
                   static_cast<std::size_t>(size.value()));
  position_ += static_cast<std::size_t>(size.value());
  return text;
}

Status BinaryReader::ReadF32Array(std::span<float> out) {
  const std::size_t bytes = out.size() * sizeof(float);
  FEDREC_RETURN_NOT_OK(Need(bytes));
  // An empty destination span's data() may be null, and memcpy must not be
  // called with a null pointer even when the count is zero.
  if (bytes == 0) return Status::OK();
  std::memcpy(out.data(), data().data() + position_, bytes);
  position_ += bytes;
  return Status::OK();
}

Result<std::string_view> BinaryReader::PeekBytes(std::size_t bytes) {
  FEDREC_RETURN_NOT_OK(Need(bytes));
  return data().substr(position_, bytes);
}

Result<std::string_view> BinaryReader::ReadBytes(std::size_t bytes) {
  FEDREC_RETURN_NOT_OK(Need(bytes));
  const std::string_view view = data().substr(position_, bytes);
  position_ += bytes;
  return view;
}

Status SaveMatrix(const Matrix& matrix, const std::string& path) {
  BinaryWriter writer;
  writer.WriteU32(kMatrixMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteU64(matrix.rows());
  writer.WriteU64(matrix.cols());
  writer.WriteF32Array(matrix.Data());
  return writer.Flush(path);
}

Result<Matrix> LoadMatrix(const std::string& path) {
  Result<BinaryReader> reader = BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  BinaryReader& in = reader.value();

  Result<std::uint32_t> magic = in.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kMatrixMagic) {
    return Status::Corruption("not a FRMX matrix file: " + path);
  }
  Result<std::uint32_t> version = in.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kFormatVersion) {
    return Status::Corruption("unsupported matrix format version " +
                              std::to_string(version.value()));
  }
  Result<std::uint64_t> rows = in.ReadU64();
  if (!rows.ok()) return rows.status();
  Result<std::uint64_t> cols = in.ReadU64();
  if (!cols.ok()) return cols.status();

  const std::uint64_t count = rows.value() * cols.value();
  if (in.remaining() != count * sizeof(float)) {
    return Status::Corruption("matrix payload size mismatch in " + path);
  }
  Matrix matrix(static_cast<std::size_t>(rows.value()),
                static_cast<std::size_t>(cols.value()));
  FEDREC_RETURN_NOT_OK(in.ReadF32Array(matrix.Data()));
  return matrix;
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  BinaryWriter writer;
  writer.WriteU32(kDatasetMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteString(dataset.name());
  writer.WriteU64(dataset.num_users());
  writer.WriteU64(dataset.num_items());
  writer.WriteU64(dataset.num_interactions());
  for (const Interaction& tuple : dataset.AllInteractions()) {
    writer.WriteU32(tuple.user);
    writer.WriteU32(tuple.item);
  }
  return writer.Flush(path);
}

Result<Dataset> LoadDataset(const std::string& path) {
  Result<BinaryReader> reader = BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  BinaryReader& in = reader.value();

  Result<std::uint32_t> magic = in.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kDatasetMagic) {
    return Status::Corruption("not a FRDS dataset file: " + path);
  }
  Result<std::uint32_t> version = in.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kFormatVersion) {
    return Status::Corruption("unsupported dataset format version " +
                              std::to_string(version.value()));
  }
  Result<std::string> name = in.ReadString();
  if (!name.ok()) return name.status();
  Result<std::uint64_t> users = in.ReadU64();
  if (!users.ok()) return users.status();
  Result<std::uint64_t> items = in.ReadU64();
  if (!items.ok()) return items.status();
  Result<std::uint64_t> count = in.ReadU64();
  if (!count.ok()) return count.status();

  std::vector<Interaction> interactions;
  interactions.reserve(static_cast<std::size_t>(count.value()));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    Result<std::uint32_t> user = in.ReadU32();
    if (!user.ok()) return user.status();
    Result<std::uint32_t> item = in.ReadU32();
    if (!item.ok()) return item.status();
    interactions.push_back({user.value(), item.value()});
  }
  return Dataset::FromInteractions(name.value(),
                                   static_cast<std::size_t>(users.value()),
                                   static_cast<std::size_t>(items.value()),
                                   std::move(interactions));
}

}  // namespace fedrec
