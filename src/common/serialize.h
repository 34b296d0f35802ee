// Binary serialization used by the message bus and the GoFS slice codec.
//
// Format: little-endian fixed-width integers, varint for sizes, raw IEEE-754
// doubles. Readers are bounds-checked and return Status on truncation so a
// corrupt slice file can never read out of bounds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace tsg {

// Decodes one varint from the raw span [p, end), advancing p. False on a
// truncated or over-long varint (p is then unspecified).
inline bool decodeVarint(const std::uint8_t*& p, const std::uint8_t* end,
                         std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) {
      return false;
    }
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

// Append-only encoder into an owned byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(std::size_t reserve) { buffer_.reserve(reserve); }

  void writeU8(std::uint8_t v) { buffer_.push_back(v); }
  void writeU32(std::uint32_t v) { writeFixed(v); }
  void writeU64(std::uint64_t v) { writeFixed(v); }
  void writeI32(std::int32_t v) { writeFixed(static_cast<std::uint32_t>(v)); }
  void writeI64(std::int64_t v) { writeFixed(static_cast<std::uint64_t>(v)); }
  void writeDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    writeFixed(bits);
  }
  void writeBool(bool v) { writeU8(v ? 1 : 0); }

  // LEB128-style unsigned varint; used for all length prefixes.
  void writeVarint(std::uint64_t v);

  void writeString(std::string_view s) {
    writeVarint(s.size());
    writeBytes(s.data(), s.size());
  }

  void writeBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  // Grows the buffer by n bytes and returns where they start, for callers
  // that fill a block in place. Invalidated by the next write.
  std::uint8_t* appendBytes(std::size_t n) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + n);
    return buffer_.data() + at;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void writePodVector(const std::vector<T>& v) {
    writeVarint(v.size());
    if (!v.empty()) {
      writeBytes(v.data(), v.size() * sizeof(T));
    }
  }

  void writeStringVector(const std::vector<std::string>& v) {
    writeVarint(v.size());
    for (const auto& s : v) {
      writeString(s);
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> takeBuffer() {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  // Overwrites the 8 bytes at `pos` (a placeholder written earlier).
  void patchU64(std::size_t pos, std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      buffer_.at(pos + i) = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  // Empties the buffer but keeps its capacity for the next message.
  void clear() { buffer_.clear(); }

 private:
  template <typename T>
  void writeFixed(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buffer_;
};

// Bounds-checked decoder over a non-owned byte span.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  Status readU8(std::uint8_t& out);
  Status readU32(std::uint32_t& out) { return readFixed(out); }
  Status readU64(std::uint64_t& out) { return readFixed(out); }
  Status readI32(std::int32_t& out) {
    std::uint32_t raw = 0;
    TSG_RETURN_IF_ERROR(readFixed(raw));
    out = static_cast<std::int32_t>(raw);
    return Status::ok();
  }
  Status readI64(std::int64_t& out) {
    std::uint64_t raw = 0;
    TSG_RETURN_IF_ERROR(readFixed(raw));
    out = static_cast<std::int64_t>(raw);
    return Status::ok();
  }
  Status readDouble(double& out) {
    std::uint64_t bits = 0;
    TSG_RETURN_IF_ERROR(readFixed(bits));
    std::memcpy(&out, &bits, sizeof(out));
    return Status::ok();
  }
  Status readBool(bool& out) {
    std::uint8_t raw = 0;
    TSG_RETURN_IF_ERROR(readU8(raw));
    out = raw != 0;
    return Status::ok();
  }

  Status readVarint(std::uint64_t& out);
  // Overwrites `out` in place, so a reused string keeps its capacity.
  Status readString(std::string& out);

  // Borrows the next n bytes; `out` points into the reader's buffer.
  Status readBytes(std::uint64_t n, std::span<const std::uint8_t>& out);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Status readPodVector(std::vector<T>& out) {
    std::uint64_t n = 0;
    TSG_RETURN_IF_ERROR(readVarint(n));
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    if (remaining() < bytes) {
      return Status::corruptData("pod vector truncated");
    }
    out.resize(static_cast<std::size_t>(n));
    if (bytes > 0) {
      std::memcpy(out.data(), data_.data() + pos_, bytes);
      pos_ += bytes;
    }
    return Status::ok();
  }

  Status readStringVector(std::vector<std::string>& out);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status readFixed(T& out) {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T)) {
      return Status::corruptData("fixed-width read past end of buffer");
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    out = v;
    return Status::ok();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Whole-file helpers (used by GoFS).
Status writeFileBytes(const std::string& path,
                      std::span<const std::uint8_t> data);
Result<std::vector<std::uint8_t>> readFileBytes(const std::string& path);

// Reads a file front to back in caller-sized chunks, each into a buffer the
// caller reuses (GoFS reads a slice one timestep record at a time).
class FileReader {
 public:
  static Result<FileReader> open(const std::string& path);

  // Reads the next n bytes into `buf`, resized to n (its capacity is kept).
  // corruptData if fewer than n bytes remain in the file. Messages do not
  // name the file; callers add the path.
  Status read(std::uint64_t n, std::vector<std::uint8_t>& buf);

  [[nodiscard]] std::uint64_t remaining() const { return size_ - pos_; }

 private:
  FileReader(std::FILE* file, std::uint64_t size)
      : file_(file, &std::fclose), size_(size) {}

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace tsg
