// Typed attribute schemas and columnar attribute storage.
//
// The paper's model (§II-A): the template declares typed attributes for all
// vertices and for all edges; every instance carries a value for each
// attribute of each vertex/edge. We store instance values columnar — one
// contiguous column per attribute — which is both cache-friendly for the
// per-subgraph Compute loops and compact on disk in GoFS slices.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace tsg {

enum class AttrType : std::uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kBool = 2,
  kString = 3,
  kStringList = 4,
};

std::string_view attrTypeName(AttrType type);

struct AttrDef {
  std::string name;
  AttrType type = AttrType::kInt64;

  bool operator==(const AttrDef&) const = default;
};

// Ordered list of attribute definitions with by-name lookup.
class AttributeSchema {
 public:
  AttributeSchema() = default;
  explicit AttributeSchema(std::vector<AttrDef> defs);

  // Appends a definition; the name must be unique. Returns the attr index.
  std::size_t add(std::string name, AttrType type);

  [[nodiscard]] std::size_t size() const { return defs_.size(); }
  [[nodiscard]] bool empty() const { return defs_.empty(); }
  [[nodiscard]] const AttrDef& at(std::size_t i) const;
  [[nodiscard]] const std::vector<AttrDef>& defs() const { return defs_; }

  // Index of the attribute with this name, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t indexOf(std::string_view name) const;

  // Index of a required attribute; aborts if missing (programming error).
  [[nodiscard]] std::size_t requireIndex(std::string_view name) const;

  bool operator==(const AttributeSchema&) const = default;

  void serialize(BinaryWriter& writer) const;
  static Result<AttributeSchema> deserialize(BinaryReader& reader);

 private:
  std::vector<AttrDef> defs_;
};

// One column of attribute values. Bool uses uint8 storage to stay
// addressable; StringList models the paper's per-vertex tweet lists.
class AttributeColumn {
 public:
  using Int64Vec = std::vector<std::int64_t>;
  using DoubleVec = std::vector<double>;
  using BoolVec = std::vector<std::uint8_t>;
  using StringVec = std::vector<std::string>;
  using StringListVec = std::vector<std::vector<std::string>>;

  AttributeColumn() = default;

  // Creates a zero/empty-initialized column of `count` values.
  static AttributeColumn make(AttrType type, std::size_t count);

  [[nodiscard]] AttrType type() const;
  [[nodiscard]] std::size_t size() const;

  // Typed accessors; aborts on type mismatch (schema is validated upstream).
  [[nodiscard]] Int64Vec& asInt64();
  [[nodiscard]] const Int64Vec& asInt64() const;
  [[nodiscard]] DoubleVec& asDouble();
  [[nodiscard]] const DoubleVec& asDouble() const;
  [[nodiscard]] BoolVec& asBool();
  [[nodiscard]] const BoolVec& asBool() const;
  [[nodiscard]] StringVec& asString();
  [[nodiscard]] const StringVec& asString() const;
  [[nodiscard]] StringListVec& asStringList();
  [[nodiscard]] const StringListVec& asStringList() const;

  // Copies the values at `indices` into a new column (slice extraction).
  [[nodiscard]] AttributeColumn gather(
      std::span<const std::uint32_t> indices) const;

  // Writes values from `src` back at `indices` (slice re-assembly):
  // this[indices[i]] = src[i].
  void scatterFrom(const AttributeColumn& src,
                   std::span<const std::uint32_t> indices);

  // Column codec (format v2): u8 version, u8 type tag, varint n, then the
  // values. Fixed-width types are one raw block of n values; strings are n
  // length-prefixed strings; a string list is the byte count of a stream of
  // n varint list lengths (one byte per empty list), that stream, then the
  // strings of every list in order.
  void serialize(BinaryWriter& writer) const;

  // Encodes the column of values this[indices[0]], this[indices[1]], ...
  // without materializing it (a GoFS slice's partition-order column).
  void serializeAt(std::span<const std::uint32_t> indices,
                   BinaryWriter& writer) const;

  // Decodes an encoded column into this one in place, reusing its storage.
  // The encoded type and size must equal this column's. Returns the heap
  // bytes the decoded values hold: n * sizeof(T) for fixed-width types;
  // for strings, the string objects plus their payload sizes; for string
  // lists, the list objects plus every string object and payload size.
  Result<std::size_t> deserializeInto(BinaryReader& reader);

  // make() of the encoded type and size, then deserializeInto().
  static Result<AttributeColumn> deserialize(BinaryReader& reader);

  bool operator==(const AttributeColumn&) const = default;

 private:
  std::variant<Int64Vec, DoubleVec, BoolVec, StringVec, StringListVec> data_;
};

}  // namespace tsg
