#include "graph/attribute.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace tsg {

std::string_view attrTypeName(AttrType type) {
  switch (type) {
    case AttrType::kInt64:
      return "int64";
    case AttrType::kDouble:
      return "double";
    case AttrType::kBool:
      return "bool";
    case AttrType::kString:
      return "string";
    case AttrType::kStringList:
      return "string_list";
  }
  return "unknown";
}

AttributeSchema::AttributeSchema(std::vector<AttrDef> defs)
    : defs_(std::move(defs)) {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    for (std::size_t j = i + 1; j < defs_.size(); ++j) {
      TSG_CHECK_MSG(defs_[i].name != defs_[j].name,
                    "duplicate attribute name: " + defs_[i].name);
    }
  }
}

std::size_t AttributeSchema::add(std::string name, AttrType type) {
  TSG_CHECK_MSG(indexOf(name) == npos, "duplicate attribute name: " + name);
  defs_.push_back({std::move(name), type});
  return defs_.size() - 1;
}

const AttrDef& AttributeSchema::at(std::size_t i) const {
  TSG_CHECK(i < defs_.size());
  return defs_[i];
}

std::size_t AttributeSchema::indexOf(std::string_view name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) {
      return i;
    }
  }
  return npos;
}

std::size_t AttributeSchema::requireIndex(std::string_view name) const {
  const std::size_t i = indexOf(name);
  TSG_CHECK_MSG(i != npos, "missing required attribute: " + std::string(name));
  return i;
}

void AttributeSchema::serialize(BinaryWriter& writer) const {
  writer.writeVarint(defs_.size());
  for (const auto& def : defs_) {
    writer.writeString(def.name);
    writer.writeU8(static_cast<std::uint8_t>(def.type));
  }
}

Result<AttributeSchema> AttributeSchema::deserialize(BinaryReader& reader) {
  std::uint64_t n = 0;
  TSG_RETURN_IF_ERROR(reader.readVarint(n));
  std::vector<AttrDef> defs;
  defs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    AttrDef def;
    TSG_RETURN_IF_ERROR(reader.readString(def.name));
    std::uint8_t type_raw = 0;
    TSG_RETURN_IF_ERROR(reader.readU8(type_raw));
    if (type_raw > static_cast<std::uint8_t>(AttrType::kStringList)) {
      return Status::corruptData("bad attribute type tag");
    }
    def.type = static_cast<AttrType>(type_raw);
    defs.push_back(std::move(def));
  }
  return AttributeSchema(std::move(defs));
}

AttributeColumn AttributeColumn::make(AttrType type, std::size_t count) {
  AttributeColumn col;
  switch (type) {
    case AttrType::kInt64:
      col.data_ = Int64Vec(count, 0);
      break;
    case AttrType::kDouble:
      col.data_ = DoubleVec(count, 0.0);
      break;
    case AttrType::kBool:
      col.data_ = BoolVec(count, 0);
      break;
    case AttrType::kString:
      col.data_ = StringVec(count);
      break;
    case AttrType::kStringList:
      col.data_ = StringListVec(count);
      break;
  }
  return col;
}

AttrType AttributeColumn::type() const {
  return static_cast<AttrType>(data_.index());
}

std::size_t AttributeColumn::size() const {
  return std::visit([](const auto& vec) { return vec.size(); }, data_);
}

AttributeColumn::Int64Vec& AttributeColumn::asInt64() {
  TSG_CHECK(type() == AttrType::kInt64);
  return std::get<Int64Vec>(data_);
}
const AttributeColumn::Int64Vec& AttributeColumn::asInt64() const {
  TSG_CHECK(type() == AttrType::kInt64);
  return std::get<Int64Vec>(data_);
}
AttributeColumn::DoubleVec& AttributeColumn::asDouble() {
  TSG_CHECK(type() == AttrType::kDouble);
  return std::get<DoubleVec>(data_);
}
const AttributeColumn::DoubleVec& AttributeColumn::asDouble() const {
  TSG_CHECK(type() == AttrType::kDouble);
  return std::get<DoubleVec>(data_);
}
AttributeColumn::BoolVec& AttributeColumn::asBool() {
  TSG_CHECK(type() == AttrType::kBool);
  return std::get<BoolVec>(data_);
}
const AttributeColumn::BoolVec& AttributeColumn::asBool() const {
  TSG_CHECK(type() == AttrType::kBool);
  return std::get<BoolVec>(data_);
}
AttributeColumn::StringVec& AttributeColumn::asString() {
  TSG_CHECK(type() == AttrType::kString);
  return std::get<StringVec>(data_);
}
const AttributeColumn::StringVec& AttributeColumn::asString() const {
  TSG_CHECK(type() == AttrType::kString);
  return std::get<StringVec>(data_);
}
AttributeColumn::StringListVec& AttributeColumn::asStringList() {
  TSG_CHECK(type() == AttrType::kStringList);
  return std::get<StringListVec>(data_);
}
const AttributeColumn::StringListVec& AttributeColumn::asStringList() const {
  TSG_CHECK(type() == AttrType::kStringList);
  return std::get<StringListVec>(data_);
}

AttributeColumn AttributeColumn::gather(
    std::span<const std::uint32_t> indices) const {
  AttributeColumn out;
  std::visit(
      [&](const auto& vec) {
        std::decay_t<decltype(vec)> gathered;
        gathered.reserve(indices.size());
        for (const std::uint32_t i : indices) {
          TSG_CHECK(i < vec.size());
          gathered.push_back(vec[i]);
        }
        out.data_ = std::move(gathered);
      },
      data_);
  return out;
}

void AttributeColumn::scatterFrom(const AttributeColumn& src,
                                  std::span<const std::uint32_t> indices) {
  TSG_CHECK(src.type() == type());
  TSG_CHECK(src.size() == indices.size());
  std::visit(
      [&](auto& dst_vec) {
        const auto& src_vec =
            std::get<std::decay_t<decltype(dst_vec)>>(src.data_);
        for (std::size_t i = 0; i < indices.size(); ++i) {
          TSG_CHECK(indices[i] < dst_vec.size());
          dst_vec[indices[i]] = src_vec[i];
        }
      },
      data_);
}

namespace {

constexpr std::uint8_t kColumnFormatVersion = 2;

// Writes the column of n values whose i-th is vec[at(i)].
template <typename Vec, typename At>
void encodeColumn(AttrType type, const Vec& vec, std::size_t n, At at,
                  BinaryWriter& w) {
  using T = typename Vec::value_type;
  w.writeU8(kColumnFormatVersion);
  w.writeU8(static_cast<std::uint8_t>(type));
  w.writeVarint(n);
  if constexpr (std::is_trivially_copyable_v<T>) {
    std::uint8_t* dst = w.appendBytes(n * sizeof(T));
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(dst + i * sizeof(T), &vec[at(i)], sizeof(T));
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    for (std::size_t i = 0; i < n; ++i) {
      w.writeString(vec[at(i)]);
    }
  } else {
    // One pass over the cells (a gathered column is scattered in memory):
    // list lengths go to the length stream, strings to a second buffer.
    BinaryWriter lengths(n);
    BinaryWriter strings;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& list = vec[at(i)];
      lengths.writeVarint(list.size());
      for (const auto& s : list) {
        strings.writeString(s);
      }
    }
    w.writeVarint(lengths.size());
    w.writeBytes(lengths.buffer().data(), lengths.size());
    w.writeBytes(strings.buffer().data(), strings.size());
  }
}

// Decodes vec.size() values over vec in place and adds the heap bytes they
// hold to `heap` (see deserializeInto).
template <typename Vec>
Status decodeValues(BinaryReader& r, Vec& vec, std::size_t& heap) {
  using T = typename Vec::value_type;
  if constexpr (std::is_trivially_copyable_v<T>) {
    std::span<const std::uint8_t> block;
    TSG_RETURN_IF_ERROR(r.readBytes(vec.size() * sizeof(T), block));
    if (!block.empty()) {
      std::memcpy(vec.data(), block.data(), block.size());
    }
    heap += block.size();
  } else if constexpr (std::is_same_v<T, std::string>) {
    heap += vec.size() * sizeof(std::string);
    for (auto& s : vec) {
      TSG_RETURN_IF_ERROR(r.readString(s));
      heap += s.size();
    }
  } else {
    std::uint64_t stream_bytes = 0;
    TSG_RETURN_IF_ERROR(r.readVarint(stream_bytes));
    std::span<const std::uint8_t> stream;
    if (!r.readBytes(stream_bytes, stream).isOk()) {
      return Status::corruptData("string-list length stream truncated");
    }
    const std::uint8_t* p = stream.data();
    const std::uint8_t* const end = p + stream.size();
    heap += vec.size() * sizeof(T);
    for (auto& list : vec) {
      if (p == end) {
        return Status::corruptData("string-list length stream truncated");
      }
      // Nearly every tweet list is empty: one byte, no allocation.
      if (*p == 0) {
        ++p;
        if (!list.empty()) {
          list.clear();
        }
        continue;
      }
      std::uint64_t len = 0;
      if (!decodeVarint(p, end, len)) {
        return Status::corruptData("string-list length stream truncated");
      }
      // Every string takes at least its one-byte length prefix.
      if (len > r.remaining()) {
        return Status::corruptData(
            "string-list length exceeds the bytes remaining");
      }
      list.resize(static_cast<std::size_t>(len));
      for (auto& s : list) {
        TSG_RETURN_IF_ERROR(r.readString(s));
        heap += sizeof(std::string) + s.size();
      }
    }
    if (p != end) {
      return Status::corruptData("trailing bytes in string-list length stream");
    }
  }
  return Status::ok();
}

// Reads the version, type tag and size that open an encoded column.
Status readColumnHeader(BinaryReader& r, AttrType& type, std::uint64_t& n) {
  std::uint8_t version = 0;
  TSG_RETURN_IF_ERROR(r.readU8(version));
  if (version != kColumnFormatVersion) {
    return Status::corruptData("unsupported column format version");
  }
  std::uint8_t type_raw = 0;
  TSG_RETURN_IF_ERROR(r.readU8(type_raw));
  if (type_raw > static_cast<std::uint8_t>(AttrType::kStringList)) {
    return Status::corruptData("bad column type tag");
  }
  type = static_cast<AttrType>(type_raw);
  return r.readVarint(n);
}

}  // namespace

void AttributeColumn::serialize(BinaryWriter& writer) const {
  std::visit(
      [&](const auto& vec) {
        encodeColumn(type(), vec, vec.size(), [](std::size_t i) { return i; },
                     writer);
      },
      data_);
}

void AttributeColumn::serializeAt(std::span<const std::uint32_t> indices,
                                  BinaryWriter& writer) const {
  const std::size_t count = size();
  for (const std::uint32_t i : indices) {
    TSG_CHECK(i < count);
  }
  std::visit(
      [&](const auto& vec) {
        encodeColumn(type(), vec, indices.size(),
                     [&](std::size_t i) { return indices[i]; }, writer);
      },
      data_);
}

Result<std::size_t> AttributeColumn::deserializeInto(BinaryReader& reader) {
  AttrType encoded_type = AttrType::kInt64;
  std::uint64_t n = 0;
  TSG_RETURN_IF_ERROR(readColumnHeader(reader, encoded_type, n));
  if (encoded_type != type()) {
    return Status::corruptData("column type tag mismatch");
  }
  if (n != size()) {
    return Status::corruptData("column size mismatch");
  }
  std::size_t heap = 0;
  TSG_RETURN_IF_ERROR(std::visit(
      [&](auto& vec) { return decodeValues(reader, vec, heap); }, data_));
  return heap;
}

Result<AttributeColumn> AttributeColumn::deserialize(BinaryReader& reader) {
  BinaryReader header = reader;
  AttrType type = AttrType::kInt64;
  std::uint64_t n = 0;
  TSG_RETURN_IF_ERROR(readColumnHeader(header, type, n));
  // Every value takes at least one encoded byte: bound n before allocating.
  if (n > header.remaining()) {
    return Status::corruptData("column size exceeds the bytes remaining");
  }
  AttributeColumn col = make(type, static_cast<std::size_t>(n));
  auto decoded = col.deserializeInto(reader);
  if (!decoded.isOk()) {
    return decoded.status();
  }
  return col;
}

}  // namespace tsg
