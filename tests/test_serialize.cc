#include "common/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/rng.h"

namespace tsg {
namespace {

TEST(BinaryRoundtrip, Primitives) {
  BinaryWriter w;
  w.writeU8(0xAB);
  w.writeU32(0xDEADBEEF);
  w.writeU64(0x0123456789ABCDEFULL);
  w.writeI32(-12345);
  w.writeI64(-9876543210LL);
  w.writeDouble(3.14159);
  w.writeBool(true);
  w.writeBool(false);

  BinaryReader r(w.buffer());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  double d = 0;
  bool b1 = false;
  bool b2 = true;
  ASSERT_TRUE(r.readU8(u8).isOk());
  ASSERT_TRUE(r.readU32(u32).isOk());
  ASSERT_TRUE(r.readU64(u64).isOk());
  ASSERT_TRUE(r.readI32(i32).isOk());
  ASSERT_TRUE(r.readI64(i64).isOk());
  ASSERT_TRUE(r.readDouble(d).isOk());
  ASSERT_TRUE(r.readBool(b1).isOk());
  ASSERT_TRUE(r.readBool(b2).isOk());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i32, -12345);
  EXPECT_EQ(i64, -9876543210LL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(r.atEnd());
}

TEST(BinaryRoundtrip, SpecialDoubles) {
  BinaryWriter w;
  w.writeDouble(std::numeric_limits<double>::infinity());
  w.writeDouble(-0.0);
  w.writeDouble(std::numeric_limits<double>::denorm_min());
  BinaryReader r(w.buffer());
  double inf = 0;
  double neg_zero = 1;
  double denorm = 0;
  ASSERT_TRUE(r.readDouble(inf).isOk());
  ASSERT_TRUE(r.readDouble(neg_zero).isOk());
  ASSERT_TRUE(r.readDouble(denorm).isOk());
  EXPECT_EQ(inf, std::numeric_limits<double>::infinity());
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(denorm, std::numeric_limits<double>::denorm_min());
}

TEST(Varint, BoundaryValues) {
  const std::uint64_t cases[] = {0,    1,    127,  128,   16383, 16384,
                                 1u << 21,  ~0ULL, 0xFFFFFFFF};
  for (const auto v : cases) {
    BinaryWriter w;
    w.writeVarint(v);
    BinaryReader r(w.buffer());
    std::uint64_t out = 1;
    ASSERT_TRUE(r.readVarint(out).isOk()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(Varint, RandomRoundtrip) {
  Rng rng(99);
  BinaryWriter w;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Bias toward small values but cover the full range.
    const int bits = static_cast<int>(rng.uniformBelow(64)) + 1;
    const std::uint64_t v =
        rng.next() & (bits == 64 ? ~0ULL : ((1ULL << bits) - 1));
    values.push_back(v);
    w.writeVarint(v);
  }
  BinaryReader r(w.buffer());
  for (const auto expected : values) {
    std::uint64_t v = 0;
    ASSERT_TRUE(r.readVarint(v).isOk());
    EXPECT_EQ(v, expected);
  }
}

TEST(Strings, RoundtripIncludingEmbeddedNul) {
  BinaryWriter w;
  w.writeString("");
  w.writeString(std::string_view("a\0b", 3));
  w.writeString("日本語テキスト");
  BinaryReader r(w.buffer());
  std::string a;
  std::string b;
  std::string c;
  ASSERT_TRUE(r.readString(a).isOk());
  ASSERT_TRUE(r.readString(b).isOk());
  ASSERT_TRUE(r.readString(c).isOk());
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, std::string("a\0b", 3));
  EXPECT_EQ(c, "日本語テキスト");
}

TEST(Vectors, PodAndStringVectors) {
  BinaryWriter w;
  const std::vector<std::uint32_t> pod{1, 2, 3, 0xFFFFFFFF};
  const std::vector<std::string> strs{"x", "", "zz"};
  w.writePodVector(pod);
  w.writeStringVector(strs);
  w.writePodVector(std::vector<double>{});
  BinaryReader r(w.buffer());
  std::vector<std::uint32_t> pod_out;
  std::vector<std::string> strs_out;
  std::vector<double> empty_out{1.0};
  ASSERT_TRUE(r.readPodVector(pod_out).isOk());
  ASSERT_TRUE(r.readStringVector(strs_out).isOk());
  ASSERT_TRUE(r.readPodVector(empty_out).isOk());
  EXPECT_EQ(pod_out, pod);
  EXPECT_EQ(strs_out, strs);
  EXPECT_TRUE(empty_out.empty());
}

TEST(Truncation, EveryPrefixFailsCleanly) {
  BinaryWriter w;
  w.writeU32(7);
  w.writeString("hello");
  w.writePodVector(std::vector<std::uint64_t>{1, 2, 3});
  const auto& full = w.buffer();

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader r(std::span(full.data(), cut));
    std::uint32_t u = 0;
    std::string s;
    std::vector<std::uint64_t> v;
    // Drive the reads; at least one must fail, none may crash.
    const bool ok = r.readU32(u).isOk() && r.readString(s).isOk() &&
                    r.readPodVector(v).isOk();
    EXPECT_FALSE(ok) << "prefix " << cut << " parsed as complete";
  }
}

TEST(Truncation, OverlongVarintRejected) {
  std::vector<std::uint8_t> bytes(11, 0x80);  // never-terminating varint
  BinaryReader r(bytes);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.readVarint(v).isOk());
}

TEST(FileBytes, WriteReadRoundtrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsg_serialize_test.bin")
          .string();
  std::vector<std::uint8_t> data{1, 2, 3, 0, 255, 7};
  ASSERT_TRUE(writeFileBytes(path, data).isOk());
  auto read = readFileBytes(path);
  ASSERT_TRUE(read.isOk());
  EXPECT_EQ(read.value(), data);
  std::filesystem::remove(path);
}

TEST(FileBytes, MissingFileIsIoError) {
  auto read = readFileBytes("/nonexistent/dir/file.bin");
  ASSERT_FALSE(read.isOk());
  EXPECT_EQ(read.status().code(), ErrorCode::kIoError);
}

TEST(Serialize, DecodeVarintOverRawSpan) {
  BinaryWriter w;
  w.writeVarint(0);
  w.writeVarint(300);
  w.writeVarint(~0ull);
  const std::uint8_t* p = w.buffer().data();
  const std::uint8_t* const end = p + w.size();
  std::uint64_t v = 1;
  ASSERT_TRUE(decodeVarint(p, end, v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(decodeVarint(p, end, v));
  EXPECT_EQ(v, 300u);
  ASSERT_TRUE(decodeVarint(p, end, v));
  EXPECT_EQ(v, ~0ull);
  EXPECT_EQ(p, end);
  // At the end of the span, and mid-varint, decoding fails without reading
  // past `end`.
  EXPECT_FALSE(decodeVarint(p, end, v));
  const std::uint8_t cut[] = {0x80, 0x80};
  const std::uint8_t* q = cut;
  EXPECT_FALSE(decodeVarint(q, cut + 2, v));
}

TEST(Serialize, ReadBytesBorrowsAndBoundsChecks) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  BinaryReader r(data);
  std::span<const std::uint8_t> block;
  ASSERT_TRUE(r.readBytes(3, block).isOk());
  EXPECT_EQ(block.data(), data.data());
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(r.remaining(), 2u);
  const Status s = r.readBytes(3, block);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Serialize, AppendBytesFillsInPlace) {
  BinaryWriter w;
  w.writeU8(9);
  std::uint8_t* dst = w.appendBytes(3);
  dst[0] = 1;
  dst[1] = 2;
  dst[2] = 3;
  EXPECT_EQ(w.buffer(), (std::vector<std::uint8_t>{9, 1, 2, 3}));
}

TEST(Serialize, PatchU64OverwritesPlaceholder) {
  BinaryWriter w;
  w.writeU8(1);
  w.writeU64(0);
  w.writeU8(2);
  w.patchU64(1, 0x0102030405060708ull);
  BinaryReader r(w.buffer());
  std::uint8_t a = 0;
  std::uint64_t v = 0;
  std::uint8_t b = 0;
  ASSERT_TRUE(r.readU8(a).isOk() && r.readU64(v).isOk() && r.readU8(b).isOk());
  EXPECT_EQ(v, 0x0102030405060708ull);
  EXPECT_EQ(b, 2);
}

TEST(Serialize, FileReaderReadsChunksIntoReusedBuffer) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsg_serialize_chunks.bin")
          .string();
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(writeFileBytes(path, data).isOk());
  auto file = FileReader::open(path);
  ASSERT_TRUE(file.isOk());
  std::vector<std::uint8_t> buf(64, 0xAA);
  const std::uint8_t* storage = buf.data();
  ASSERT_TRUE(file.value().read(4, buf).isOk());
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(buf.data(), storage);  // shrinking keeps the allocation
  EXPECT_EQ(file.value().remaining(), 2u);
  EXPECT_EQ(file.value().read(3, buf).code(), ErrorCode::kCorruptData);
  ASSERT_TRUE(file.value().read(2, buf).isOk());
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{5, 6}));
  EXPECT_EQ(file.value().remaining(), 0u);
  std::filesystem::remove(path);
  EXPECT_EQ(FileReader::open(path).status().code(), ErrorCode::kIoError);
}

}  // namespace
}  // namespace tsg
