#include "common/serialize.h"

#include <cstdio>

namespace tsg {

void BinaryWriter::writeVarint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

Status BinaryReader::readU8(std::uint8_t& out) {
  if (remaining() < 1) {
    return Status::corruptData("u8 read past end of buffer");
  }
  out = data_[pos_++];
  return Status::ok();
}

Status BinaryReader::readVarint(std::uint64_t& out) {
  const std::uint8_t* p = data_.data() + pos_;
  if (!decodeVarint(p, data_.data() + data_.size(), out)) {
    return Status::corruptData("varint truncated or too long");
  }
  pos_ = static_cast<std::size_t>(p - data_.data());
  return Status::ok();
}

Status BinaryReader::readString(std::string& out) {
  std::uint64_t n = 0;
  TSG_RETURN_IF_ERROR(readVarint(n));
  if (remaining() < n) {
    return Status::corruptData("string truncated");
  }
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_),
             static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return Status::ok();
}

Status BinaryReader::readBytes(std::uint64_t n,
                               std::span<const std::uint8_t>& out) {
  if (remaining() < n) {
    return Status::corruptData("byte block truncated");
  }
  out = data_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return Status::ok();
}

Status BinaryReader::readStringVector(std::vector<std::string>& out) {
  std::uint64_t n = 0;
  TSG_RETURN_IF_ERROR(readVarint(n));
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string s;
    TSG_RETURN_IF_ERROR(readString(s));
    out.push_back(std::move(s));
  }
  return Status::ok();
}

Status writeFileBytes(const std::string& path,
                      std::span<const std::uint8_t> data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::ioError("cannot open for write: " + path);
  }
  std::size_t written = 0;
  if (!data.empty()) {
    written = std::fwrite(data.data(), 1, data.size(), f);
  }
  const bool close_ok = std::fclose(f) == 0;
  if (written != data.size() || !close_ok) {
    return Status::ioError("short write: " + path);
  }
  return Status::ok();
}

Result<std::vector<std::uint8_t>> readFileBytes(const std::string& path) {
  auto file = FileReader::open(path);
  if (!file.isOk()) {
    return file.status();
  }
  std::vector<std::uint8_t> data;
  const Status s = file.value().read(file.value().remaining(), data);
  if (!s.isOk()) {
    return Status(s.code(), s.message() + ": " + path);
  }
  return data;
}

Result<FileReader> FileReader::open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::ioError("cannot open for read: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::ioError("cannot stat: " + path);
  }
  return FileReader(f, static_cast<std::uint64_t>(size));
}

Status FileReader::read(std::uint64_t n, std::vector<std::uint8_t>& buf) {
  if (n > remaining()) {
    return Status::corruptData("read past end of file");
  }
  buf.resize(static_cast<std::size_t>(n));
  if (n > 0 && std::fread(buf.data(), 1, buf.size(), file_.get()) != n) {
    return Status::ioError("short read");
  }
  pos_ += n;
  return Status::ok();
}

}  // namespace tsg
