#include "graph/attribute.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tsg {
namespace {

std::vector<std::uint8_t> encode(const AttributeColumn& col) {
  BinaryWriter w;
  col.serialize(w);
  return w.takeBuffer();
}

// The heap bytes deserializeInto reports, walked independently.
std::size_t heapBytesOf(const AttributeColumn& col) {
  switch (col.type()) {
    case AttrType::kInt64:
      return col.size() * sizeof(std::int64_t);
    case AttrType::kDouble:
      return col.size() * sizeof(double);
    case AttrType::kBool:
      return col.size();
    case AttrType::kString: {
      std::size_t bytes = col.size() * sizeof(std::string);
      for (const auto& s : col.asString()) {
        bytes += s.size();
      }
      return bytes;
    }
    case AttrType::kStringList: {
      std::size_t bytes = col.size() * sizeof(std::vector<std::string>);
      for (const auto& list : col.asStringList()) {
        for (const auto& s : list) {
          bytes += sizeof(std::string) + s.size();
        }
      }
      return bytes;
    }
  }
  return 0;
}

TEST(AttributeSchema, AddAndLookup) {
  AttributeSchema schema;
  EXPECT_TRUE(schema.empty());
  const auto latency = schema.add("latency", AttrType::kDouble);
  const auto tweets = schema.add("tweets", AttrType::kStringList);
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.indexOf("latency"), latency);
  EXPECT_EQ(schema.indexOf("tweets"), tweets);
  EXPECT_EQ(schema.indexOf("nope"), AttributeSchema::npos);
  EXPECT_EQ(schema.requireIndex("latency"), latency);
  EXPECT_EQ(schema.at(latency).type, AttrType::kDouble);
}

TEST(AttributeSchema, DuplicateNameAborts) {
  AttributeSchema schema;
  schema.add("x", AttrType::kInt64);
  EXPECT_DEATH(schema.add("x", AttrType::kDouble), "duplicate attribute");
}

TEST(AttributeSchema, RequireMissingAborts) {
  AttributeSchema schema;
  EXPECT_DEATH((void)schema.requireIndex("ghost"), "missing required");
}

TEST(AttributeSchema, SerializeRoundtrip) {
  AttributeSchema schema;
  schema.add("a", AttrType::kInt64);
  schema.add("b", AttrType::kDouble);
  schema.add("c", AttrType::kBool);
  schema.add("d", AttrType::kString);
  schema.add("e", AttrType::kStringList);
  BinaryWriter w;
  schema.serialize(w);
  BinaryReader r(w.buffer());
  auto parsed = AttributeSchema::deserialize(r);
  ASSERT_TRUE(parsed.isOk());
  EXPECT_EQ(parsed.value(), schema);
}

TEST(AttributeColumn, MakeInitializesByType) {
  auto ints = AttributeColumn::make(AttrType::kInt64, 4);
  EXPECT_EQ(ints.type(), AttrType::kInt64);
  EXPECT_EQ(ints.size(), 4u);
  EXPECT_EQ(ints.asInt64()[3], 0);

  auto doubles = AttributeColumn::make(AttrType::kDouble, 2);
  EXPECT_DOUBLE_EQ(doubles.asDouble()[0], 0.0);

  auto bools = AttributeColumn::make(AttrType::kBool, 2);
  EXPECT_EQ(bools.asBool()[1], 0);

  auto strings = AttributeColumn::make(AttrType::kString, 2);
  EXPECT_TRUE(strings.asString()[0].empty());

  auto lists = AttributeColumn::make(AttrType::kStringList, 2);
  EXPECT_TRUE(lists.asStringList()[1].empty());
}

TEST(AttributeColumn, TypeMismatchAborts) {
  auto col = AttributeColumn::make(AttrType::kDouble, 2);
  EXPECT_DEATH((void)col.asInt64(), "TSG_CHECK");
}

TEST(AttributeColumn, GatherSelectsByIndex) {
  auto col = AttributeColumn::make(AttrType::kInt64, 5);
  for (int i = 0; i < 5; ++i) {
    col.asInt64()[i] = 10 * i;
  }
  const std::vector<std::uint32_t> indices{4, 0, 2};
  const auto gathered = col.gather(indices);
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered.asInt64()[0], 40);
  EXPECT_EQ(gathered.asInt64()[1], 0);
  EXPECT_EQ(gathered.asInt64()[2], 20);
}

TEST(AttributeColumn, GatherOutOfRangeAborts) {
  auto col = AttributeColumn::make(AttrType::kInt64, 2);
  const std::vector<std::uint32_t> bad{5};
  EXPECT_DEATH((void)col.gather(bad), "TSG_CHECK");
}

TEST(AttributeColumn, ScatterInvertsGather) {
  auto col = AttributeColumn::make(AttrType::kStringList, 6);
  for (int i = 0; i < 6; ++i) {
    col.asStringList()[i] = {"#tag" + std::to_string(i)};
  }
  const std::vector<std::uint32_t> indices{5, 1, 3};
  const auto gathered = col.gather(indices);

  auto restored = AttributeColumn::make(AttrType::kStringList, 6);
  restored.scatterFrom(gathered, indices);
  for (const auto i : indices) {
    EXPECT_EQ(restored.asStringList()[i], col.asStringList()[i]);
  }
  EXPECT_TRUE(restored.asStringList()[0].empty());  // untouched slot
}

TEST(AttributeColumn, ScatterSizeMismatchAborts) {
  auto dst = AttributeColumn::make(AttrType::kDouble, 4);
  auto src = AttributeColumn::make(AttrType::kDouble, 2);
  const std::vector<std::uint32_t> indices{0, 1, 2};
  EXPECT_DEATH(dst.scatterFrom(src, indices), "TSG_CHECK");
}

TEST(AttributeColumn, SerializeRoundtripAllTypes) {
  for (const auto type :
       {AttrType::kInt64, AttrType::kDouble, AttrType::kBool,
        AttrType::kString, AttrType::kStringList}) {
    auto col = AttributeColumn::make(type, 3);
    switch (type) {
      case AttrType::kInt64:
        col.asInt64() = {-1, 0, 42};
        break;
      case AttrType::kDouble:
        col.asDouble() = {1.5, -2.5, 0.0};
        break;
      case AttrType::kBool:
        col.asBool() = {1, 0, 1};
        break;
      case AttrType::kString:
        col.asString() = {"a", "", "c"};
        break;
      case AttrType::kStringList:
        col.asStringList() = {{"#a", "#b"}, {}, {"#c"}};
        break;
    }
    BinaryWriter w;
    col.serialize(w);
    BinaryReader r(w.buffer());
    auto parsed = AttributeColumn::deserialize(r);
    ASSERT_TRUE(parsed.isOk()) << attrTypeName(type);
    EXPECT_EQ(parsed.value(), col) << attrTypeName(type);
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(AttributeColumn, DeserializeRejectsBadTypeTag) {
  BinaryWriter w;
  w.writeU8(1);    // version
  w.writeU8(200);  // bogus type
  BinaryReader r(w.buffer());
  auto parsed = AttributeColumn::deserialize(r);
  EXPECT_FALSE(parsed.isOk());
}

TEST(AttributeColumn, SerializeAtMatchesGatherThenSerialize) {
  const std::vector<std::uint32_t> indices{3, 0, 2, 2};
  auto ints = AttributeColumn::make(AttrType::kInt64, 4);
  ints.asInt64() = {10, 11, 12, 13};
  auto strings = AttributeColumn::make(AttrType::kString, 4);
  strings.asString() = {"a", "", "ccc", std::string(200, 'd')};
  auto lists = AttributeColumn::make(AttrType::kStringList, 4);
  lists.asStringList() = {{"#a"}, {}, {"#b", "#c"}, {}};
  for (const auto* col : {&ints, &strings, &lists}) {
    BinaryWriter at;
    col->serializeAt(indices, at);
    EXPECT_EQ(at.buffer(), encode(col->gather(indices)))
        << attrTypeName(col->type());
  }
  BinaryWriter w;
  EXPECT_DEATH(ints.serializeAt(std::vector<std::uint32_t>{4}, w),
               "TSG_CHECK");
}

// A reused column must read exactly what was encoded, whatever it held
// before: lists that empty out are cleared, lists that refill are rebuilt.
TEST(AttributeColumn, DeserializeIntoOverwritesStaleCells) {
  auto lists = AttributeColumn::make(AttrType::kStringList, 3);
  auto doubles = AttributeColumn::make(AttrType::kDouble, 3);
  auto strings = AttributeColumn::make(AttrType::kString, 3);
  const std::vector<AttributeColumn::StringListVec> list_steps{
      {{"#a", "#b"}, {}, {"#c"}},
      {{}, {}, {}},
      {{"#d"}, {"#e", "#f", "#g"}, {}}};
  for (std::size_t step = 0; step < list_steps.size(); ++step) {
    auto next_lists = AttributeColumn::make(AttrType::kStringList, 3);
    next_lists.asStringList() = list_steps[step];
    auto next_doubles = AttributeColumn::make(AttrType::kDouble, 3);
    next_doubles.asDouble() = {step + 0.5, -1.0 * step, 1e9 + step};
    auto next_strings = AttributeColumn::make(AttrType::kString, 3);
    next_strings.asString() = {std::string(step * 40, 'x'), "", "s"};
    for (auto [dst, src] : {std::pair{&lists, &next_lists},
                            std::pair{&doubles, &next_doubles},
                            std::pair{&strings, &next_strings}}) {
      const auto bytes = encode(*src);
      BinaryReader r(bytes);
      auto heap = dst->deserializeInto(r);
      ASSERT_TRUE(heap.isOk()) << heap.status().toString();
      EXPECT_EQ(*dst, *src) << "step " << step;
      EXPECT_EQ(heap.value(), heapBytesOf(*src));
      EXPECT_TRUE(r.atEnd());
    }
  }
}

TEST(AttributeColumn, MultiByteVarintLengthsRoundtrip) {
  auto lists = AttributeColumn::make(AttrType::kStringList, 3);
  std::vector<std::string> many;
  for (int i = 0; i < 200; ++i) {
    many.push_back("#t" + std::to_string(i));
  }
  lists.asStringList() = {many, {std::string(300, 'q')}, {}};
  auto strings = AttributeColumn::make(AttrType::kString, 2);
  strings.asString() = {std::string(1000, 'z'), "y"};
  for (const auto* col : {&lists, &strings}) {
    const auto bytes = encode(*col);
    BinaryReader r(bytes);
    auto parsed = AttributeColumn::deserialize(r);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed.value(), *col);
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(AttributeColumn, EmptyStringListsCostOneByteEach) {
  const std::size_t n = 1000;
  const auto col = AttributeColumn::make(AttrType::kStringList, n);
  // version + tag + varint n + varint stream size + one byte per list.
  EXPECT_EQ(encode(col).size(), 2 + 2 + 2 + n);
  auto reused = AttributeColumn::make(AttrType::kStringList, n);
  reused.asStringList()[7] = {"#stale"};
  const auto bytes = encode(col);
  BinaryReader r(bytes);
  auto heap = reused.deserializeInto(r);
  ASSERT_TRUE(heap.isOk());
  EXPECT_EQ(reused, col);
  EXPECT_EQ(heap.value(), n * sizeof(std::vector<std::string>));
}

TEST(AttributeColumn, DeserializeIntoRejectsTypeAndSizeMismatch) {
  auto lists = AttributeColumn::make(AttrType::kStringList, 4);
  const auto doubles = encode(AttributeColumn::make(AttrType::kDouble, 4));
  BinaryReader wrong_type(doubles);
  auto s = lists.deserializeInto(wrong_type);
  ASSERT_FALSE(s.isOk());
  EXPECT_EQ(s.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.status().message().find("type tag mismatch"), std::string::npos);

  const auto five = encode(AttributeColumn::make(AttrType::kStringList, 5));
  BinaryReader wrong_size(five);
  s = lists.deserializeInto(wrong_size);
  ASSERT_FALSE(s.isOk());
  EXPECT_EQ(s.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.status().message().find("size mismatch"), std::string::npos);
}

// Hand-built string-list bodies for three lists; each must fail cleanly.
TEST(AttributeColumn, MalformedStringListStreamsRejected) {
  const auto body = [](std::uint64_t stream_bytes,
                       std::vector<std::uint8_t> stream,
                       std::vector<std::uint8_t> rest) {
    BinaryWriter w;
    w.writeU8(2);  // column format version
    w.writeU8(static_cast<std::uint8_t>(AttrType::kStringList));
    w.writeVarint(3);
    w.writeVarint(stream_bytes);
    w.writeBytes(stream.data(), stream.size());
    w.writeBytes(rest.data(), rest.size());
    return w.takeBuffer();
  };
  const std::vector<std::pair<std::vector<std::uint8_t>, std::string>> cases{
      {body(2, {0, 0}, {}), "length stream truncated"},
      {body(4, {0, 0}, {}), "length stream truncated"},
      {body(3, {0, 0x80, 0x80}, {}), "length stream truncated"},
      {body(4, {0, 0, 0, 0}, {}), "trailing bytes"},
      {body(3, {0, 5, 0}, {1, 'a'}), "exceeds the bytes remaining"},
      {body(3, {0, 1, 0}, {4, 'a'}), "truncated"},
  };
  for (const auto& [bytes, why] : cases) {
    auto col = AttributeColumn::make(AttrType::kStringList, 3);
    BinaryReader r(bytes);
    auto s = col.deserializeInto(r);
    ASSERT_FALSE(s.isOk()) << why;
    EXPECT_EQ(s.status().code(), ErrorCode::kCorruptData) << why;
    EXPECT_NE(s.status().message().find(why), std::string::npos)
        << s.status().toString();
  }
}

TEST(AttributeColumn, DeserializeBoundsSizeBeforeAllocating) {
  BinaryWriter w;
  w.writeU8(2);
  w.writeU8(static_cast<std::uint8_t>(AttrType::kDouble));
  w.writeVarint(1ull << 40);  // would be 8 TiB
  BinaryReader r(w.buffer());
  auto parsed = AttributeColumn::deserialize(r);
  ASSERT_FALSE(parsed.isOk());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kCorruptData);
}

TEST(AttrTypeName, AllNamed) {
  EXPECT_EQ(attrTypeName(AttrType::kInt64), "int64");
  EXPECT_EQ(attrTypeName(AttrType::kStringList), "string_list");
}

}  // namespace
}  // namespace tsg
