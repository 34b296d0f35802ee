#include "gofs/dataset.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::expectProvidersAgree;
using testing::partitionGraph;
using testing::roadCollection;
using testing::share;
using testing::smallRoad;
using testing::smallSocial;
using testing::tweetCollection;
using testing::unwrap;

// Slice framing constants of format v2 (see gofs/dataset.h).
constexpr std::uint32_t kSliceMagic = 0x474C5354;
constexpr std::uint8_t kSliceVersion = 2;
constexpr std::size_t kSliceHeaderBytes = 4 + 1 + 4 * 4;

// A directed path 0->1->2->3 plus an isolated vertex 4, with a string-list
// and a double vertex attribute and a double edge attribute. Under the
// assignment {0,0,0,0,1}, partition 1 owns vertex 4 and no edges.
GraphTemplatePtr mixedTemplate() {
  GraphTemplateBuilder builder(/*directed=*/true);
  builder.vertexSchema().add("tweets", AttrType::kStringList);
  builder.vertexSchema().add("score", AttrType::kDouble);
  builder.edgeSchema().add("latency", AttrType::kDouble);
  for (VertexId v = 0; v < 5; ++v) {
    builder.addVertex(v);
  }
  builder.addEdge(0, 0, 1);
  builder.addEdge(1, 1, 2);
  builder.addEdge(2, 2, 3);
  return share(unwrap(builder.build()));
}

// 25 instances of mixedTemplate(): vertex 1's list is non-empty at t=3,
// empty at t=13 and non-empty again at t=23; vertex 2 holds 200 tags at
// t=5 and vertex 3 a 300-byte tag at t=6 (multi-byte varints); every other
// list is empty, so most columns are all-empty. Doubles change every step.
TimeSeriesCollection mixedCollection(GraphTemplatePtr tmpl) {
  TimeSeriesCollection coll(tmpl, 100, 7);
  for (Timestep t = 0; t < 25; ++t) {
    GraphInstance& inst = coll.appendInstance();
    auto& lists = inst.vertexCol(0).asStringList();
    if (t == 3) {
      lists[1] = {"#a", "#b"};
    } else if (t == 23) {
      lists[1] = {"#c"};
    } else if (t == 5) {
      for (int i = 0; i < 200; ++i) {
        lists[2].push_back("#t" + std::to_string(i));
      }
    } else if (t == 6) {
      lists[3] = {"#" + std::string(300, 'x')};
    }
    for (std::size_t v = 0; v < 5; ++v) {
      inst.vertexCol(1).asDouble()[v] = 10.0 * t + static_cast<double>(v);
    }
    for (std::size_t e = 0; e < 3; ++e) {
      inst.edgeCol(0).asDouble()[e] = t + 0.25 * static_cast<double>(e);
    }
  }
  return coll;
}

// The gofs.resident_bytes definition (DESIGN.md, telemetry), walked over a
// resident instance.
std::int64_t residentBytesOf(const PartitionInstanceData& data) {
  std::int64_t bytes = 0;
  const auto add = [&](const AttributeColumn& col) {
    switch (col.type()) {
      case AttrType::kInt64:
      case AttrType::kDouble:
        bytes += static_cast<std::int64_t>(col.size() * 8);
        break;
      case AttrType::kBool:
        bytes += static_cast<std::int64_t>(col.size());
        break;
      case AttrType::kString:
        bytes += static_cast<std::int64_t>(col.size() * sizeof(std::string));
        for (const auto& s : col.asString()) {
          bytes += static_cast<std::int64_t>(s.size());
        }
        break;
      case AttrType::kStringList:
        bytes += static_cast<std::int64_t>(
            col.size() * sizeof(std::vector<std::string>));
        for (const auto& list : col.asStringList()) {
          for (const auto& s : list) {
            bytes += static_cast<std::int64_t>(sizeof(std::string) + s.size());
          }
        }
        break;
    }
  };
  for (const auto& col : data.vertex_cols) {
    add(col);
  }
  for (const auto& col : data.edge_cols) {
    add(col);
  }
  return bytes;
}

// The framing fields of a decoded slice, kept so it can be re-encoded.
struct SliceFrame {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint32_t fields[4] = {};  // partition, pack, t_begin, steps
  std::vector<std::pair<Timestep, std::int64_t>> stamps;
};

// Walks a tweet slice (one vertex column, no edge columns) and decodes each
// column into the reused `pack` through deserializeInto.
Status decodeTweetSlice(std::span<const std::uint8_t> bytes,
                        std::vector<AttributeColumn>& pack,
                        SliceFrame& frame) {
  BinaryReader file(bytes);
  TSG_RETURN_IF_ERROR(file.readU32(frame.magic));
  TSG_RETURN_IF_ERROR(file.readU8(frame.version));
  for (auto& field : frame.fields) {
    TSG_RETURN_IF_ERROR(file.readU32(field));
  }
  if (frame.fields[3] != pack.size()) {
    return Status::corruptData("steps");
  }
  frame.stamps.assign(pack.size(), {});
  for (std::size_t i = 0; i < pack.size(); ++i) {
    std::uint64_t record_bytes = 0;
    TSG_RETURN_IF_ERROR(file.readU64(record_bytes));
    std::span<const std::uint8_t> record;
    TSG_RETURN_IF_ERROR(file.readBytes(record_bytes, record));
    BinaryReader r(record);
    TSG_RETURN_IF_ERROR(r.readI32(frame.stamps[i].first));
    TSG_RETURN_IF_ERROR(r.readI64(frame.stamps[i].second));
    std::uint64_t count = 0;
    TSG_RETURN_IF_ERROR(r.readVarint(count));
    if (count != 1) {
      return Status::corruptData("vertex attr count");
    }
    auto decoded = pack[i].deserializeInto(r);
    if (!decoded.isOk()) {
      return decoded.status();
    }
    TSG_RETURN_IF_ERROR(r.readVarint(count));
    if (count != 0) {
      return Status::corruptData("edge attr count");
    }
    if (!r.atEnd()) {
      return Status::corruptData("trailing bytes in record");
    }
  }
  if (!file.atEnd()) {
    return Status::corruptData("trailing bytes");
  }
  return Status::ok();
}

std::vector<std::uint8_t> encodeTweetSlice(
    const SliceFrame& frame, const std::vector<AttributeColumn>& pack) {
  BinaryWriter w;
  w.writeU32(frame.magic);
  w.writeU8(frame.version);
  for (const auto field : frame.fields) {
    w.writeU32(field);
  }
  for (std::size_t i = 0; i < pack.size(); ++i) {
    BinaryWriter record;
    record.writeI32(frame.stamps[i].first);
    record.writeI64(frame.stamps[i].second);
    record.writeVarint(1);
    pack[i].serialize(record);
    record.writeVarint(0);
    w.writeU64(record.size());
    w.writeBytes(record.buffer().data(), record.size());
  }
  return w.takeBuffer();
}

class GofsTest : public ::testing::Test {
 protected:
  testing::TempDir tmp_{"tsg_gofs"};
  std::string dir_ = tmp_.path();
};

TEST_F(GofsTest, RoundtripRoadDataset) {
  auto tmpl = smallRoad(8, 8);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 12);

  GofsOptions options;
  options.temporal_packing = 5;
  ASSERT_TRUE(writeGofsDataset(dir_, "road", pg, coll, options).isOk());

  auto ds = unwrap(GofsDataset::open(dir_));
  EXPECT_EQ(ds.manifest().name, "road");
  EXPECT_EQ(ds.manifest().num_instances, 12u);
  EXPECT_EQ(ds.manifest().num_partitions, 3u);
  EXPECT_EQ(ds.manifest().options.temporal_packing, 5u);

  // The reopened partitioned graph must match the original decomposition.
  EXPECT_EQ(ds.partitionedGraph().numSubgraphs(), pg.numSubgraphs());
  EXPECT_EQ(ds.partitionedGraph().assignment(), pg.assignment());

  auto provider = ds.makeProvider();
  expectProvidersAgree(ds.partitionedGraph(), coll, *provider);
}

TEST_F(GofsTest, RoundtripTweetDatasetWithStringLists) {
  auto tmpl = smallSocial(80);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 7);
  ASSERT_TRUE(writeGofsDataset(dir_, "tweets", pg, coll, {}).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  expectProvidersAgree(ds.partitionedGraph(), coll, *provider);
}

TEST_F(GofsTest, PackingEdgeCases) {
  auto tmpl = smallRoad(5, 5);
  const auto pg = partitionGraph(tmpl, 2);
  // 7 instances, packing 3 -> packs of 3,3,1.
  const auto coll = roadCollection(tmpl, 7);
  GofsOptions options;
  options.temporal_packing = 3;
  ASSERT_TRUE(writeGofsDataset(dir_, "edge", pg, coll, options).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  expectProvidersAgree(ds.partitionedGraph(), coll, *provider);
}

TEST_F(GofsTest, PackingLargerThanSeries) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 3);
  GofsOptions options;
  options.temporal_packing = 10;  // single partial pack
  ASSERT_TRUE(writeGofsDataset(dir_, "short", pg, coll, options).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  expectProvidersAgree(ds.partitionedGraph(), coll, *provider);
}

TEST_F(GofsTest, LoadNsMeteredAtPackBoundaries) {
  auto tmpl = smallRoad(6, 6);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 10);
  GofsOptions options;
  options.temporal_packing = 5;
  ASSERT_TRUE(writeGofsDataset(dir_, "meter", pg, coll, options).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();

  // First access of a pack loads (nonzero time); in-pack accesses are free.
  (void)provider->instanceFor(0, 0);
  EXPECT_GT(provider->takeLoadNs(0), 0);
  (void)provider->instanceFor(0, 1);
  (void)provider->instanceFor(0, 4);
  EXPECT_EQ(provider->takeLoadNs(0), 0);
  (void)provider->instanceFor(0, 5);  // next pack
  EXPECT_GT(provider->takeLoadNs(0), 0);
  // takeLoadNs resets.
  EXPECT_EQ(provider->takeLoadNs(0), 0);
}

TEST_F(GofsTest, StorageStatsCountSliceFiles) {
  auto tmpl = smallRoad(5, 5);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 6);
  GofsOptions options;
  options.temporal_packing = 3;
  ASSERT_TRUE(writeGofsDataset(dir_, "stats", pg, coll, options).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  const auto stats = unwrap(ds.storageStats());
  // 2 partitions x 2 packs = 4 slice files.
  EXPECT_EQ(stats.slice_files, 4u);
  EXPECT_GT(stats.slice_bytes, 0u);
}

TEST_F(GofsTest, OpenMissingDirectoryFails) {
  auto ds = GofsDataset::open(dir_ + "/does_not_exist");
  ASSERT_FALSE(ds.isOk());
  EXPECT_EQ(ds.status().code(), ErrorCode::kIoError);
}

TEST_F(GofsTest, CorruptManifestRejected) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(writeTextFile(dir_ + "/manifest.bin", "garbage"));
  auto ds = GofsDataset::open(dir_);
  EXPECT_FALSE(ds.isOk());
}

TEST_F(GofsTest, ZeroPackingRejected) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 2);
  GofsOptions options;
  options.temporal_packing = 0;
  EXPECT_FALSE(writeGofsDataset(dir_, "bad", pg, coll, options).isOk());
}

TEST_F(GofsTest, CorruptSliceFailsStopWithPath) {
  auto tmpl = smallRoad(5, 5);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 4);
  GofsOptions options;
  options.temporal_packing = 2;
  ASSERT_TRUE(writeGofsDataset(dir_, "corrupt", pg, coll, options).isOk());

  // Flip bytes in the middle of one slice file (header survives, payload
  // doesn't): the lazy loader must fail-stop with the offending path.
  const std::string victim = slicePath(dir_, 0, 0);
  auto bytes = readFileBytes(victim);
  ASSERT_TRUE(bytes.isOk());
  auto data = std::move(bytes).value();
  ASSERT_GT(data.size(), 64u);
  for (std::size_t i = data.size() / 2; i < data.size() / 2 + 16; ++i) {
    data[i] ^= 0xFF;
  }
  ASSERT_TRUE(writeFileBytes(victim, data).isOk());

  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  EXPECT_DEATH((void)provider->instanceFor(0, 0), "slice");
}

TEST_F(GofsTest, TruncatedSliceRejected) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 2);
  ASSERT_TRUE(writeGofsDataset(dir_, "trunc", pg, coll, {}).isOk());
  const std::string victim = slicePath(dir_, 1, 0);
  auto bytes = readFileBytes(victim);
  ASSERT_TRUE(bytes.isOk());
  auto data = std::move(bytes).value();
  data.resize(data.size() / 3);
  ASSERT_TRUE(writeFileBytes(victim, data).isOk());

  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  // Partition 0 is intact and loads fine; partition 1 fail-stops.
  (void)provider->instanceFor(0, 0);
  EXPECT_DEATH((void)provider->instanceFor(1, 0), "TSG_CHECK");
}

TEST_F(GofsTest, MissingSliceFileReported) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 2);
  ASSERT_TRUE(writeGofsDataset(dir_, "missing", pg, coll, {}).isOk());
  std::filesystem::remove(slicePath(dir_, 0, 0));
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  EXPECT_DEATH((void)provider->instanceFor(0, 0), "cannot open");
}

TEST_F(GofsTest, TemplateAssignmentMismatchRejected) {
  // Writing one dataset then replacing assignment.bin with another
  // cardinality must fail at open().
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 2);
  ASSERT_TRUE(writeGofsDataset(dir_, "mismatch", pg, coll, {}).isOk());
  BinaryWriter w;
  w.writeU32(5);  // claims 5 partitions; manifest says 2
  w.writePodVector(pg.assignment());
  ASSERT_TRUE(writeFileBytes(dir_ + "/assignment.bin", w.buffer()).isOk());
  auto ds = GofsDataset::open(dir_);
  ASSERT_FALSE(ds.isOk());
  EXPECT_EQ(ds.status().code(), ErrorCode::kCorruptData);
}

// Decoding reuses each partition's pack buffers: cells that change between
// packs (lists emptying and refilling, doubles moving) must read exactly the
// stored values, in any load order, including a short last pack and a
// partition that owns no edges.
TEST_F(GofsTest, ReusedPackBuffersHoldNoStaleCells) {
  auto tmpl = mixedTemplate();
  const auto pg = unwrap(PartitionedGraph::build(tmpl, {0, 0, 0, 0, 1}, 2));
  ASSERT_EQ(pg.partition(1).numEdges(), 0u);
  const auto coll = mixedCollection(tmpl);
  ASSERT_TRUE(writeGofsDataset(dir_, "mixed", pg, coll, {}).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();

  const std::uint32_t v1 = pg.localIndexOfVertex(1);
  const auto tweets = [&](Timestep t) {
    return provider->instanceFor(0, t).vertex_cols[0].asStringList()[v1];
  };
  EXPECT_EQ(tweets(3), (std::vector<std::string>{"#a", "#b"}));
  EXPECT_TRUE(tweets(13).empty());
  EXPECT_EQ(tweets(23), (std::vector<std::string>{"#c"}));
  // Back to a full pack after the 5-step last one, then forward again.
  EXPECT_EQ(tweets(3), (std::vector<std::string>{"#a", "#b"}));
  EXPECT_EQ(provider->instanceFor(0, 9).vertex_cols[1].asDouble()[v1], 91.0);
  EXPECT_EQ(provider->instanceFor(0, 19).vertex_cols[1].asDouble()[v1],
            191.0);
  EXPECT_TRUE(tweets(13).empty());
  expectProvidersAgree(pg, coll, *provider);
}

// The gauge is summed from the decoder's reports, not walked per cell; it
// must equal a walk of the resident pack under DESIGN's definition.
TEST_F(GofsTest, ResidentBytesGaugeMatchesResidentPack) {
  auto tmpl = smallSocial(80);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 20, 0.5);
  ASSERT_TRUE(writeGofsDataset(dir_, "resident", pg, coll, {}).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  for (const Timestep pack_start : {0, 10}) {
    for (PartitionId p = 0; p < 2; ++p) {
      (void)provider->instanceFor(p, pack_start);
      const std::int64_t gauge =
          MetricsRegistry::global()
              .gauge("gofs.resident_bytes", static_cast<std::int32_t>(p))
              .value();
      std::int64_t walked = 0;
      for (Timestep t = pack_start; t < pack_start + 10; ++t) {
        walked += residentBytesOf(provider->instanceFor(p, t));
      }
      EXPECT_EQ(gauge, walked) << "p=" << p << " t=" << pack_start;
      EXPECT_GT(walked, 0);
    }
  }
}

TEST_F(GofsTest, FlippedTimestampRejectedWithPath) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 2);
  ASSERT_TRUE(writeGofsDataset(dir_, "stamp", pg, coll, {}).isOk());
  const std::string victim = slicePath(dir_, 0, 0);
  auto data = unwrap(readFileBytes(victim));
  // The first record's u64 byte count and i32 timestep follow the header;
  // its i64 stamp comes next.
  data[kSliceHeaderBytes + 8 + 4] ^= 0x01;
  ASSERT_TRUE(writeFileBytes(victim, data).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  (void)provider->instanceFor(1, 0);
  EXPECT_DEATH((void)provider->instanceFor(0, 0),
               "CorruptData: slice timestamp mismatch: .*part0/slice_p0\\.bin");
}

class GofsMalformedColumnTest : public GofsTest {
 protected:
  void SetUp() override {
    auto tmpl = smallSocial(12);
    pg_ = std::make_unique<PartitionedGraph>(partitionGraph(tmpl, 1));
    coll_ = std::make_unique<TimeSeriesCollection>(tweetCollection(tmpl, 1));
    ASSERT_TRUE(writeGofsDataset(dir_, "bad", *pg_, *coll_, {}).isOk());
  }

  std::size_t cells() const { return pg_->partition(0).numVertices(); }

  // Replaces the one-step slice with one whose only column is `column`.
  void writeSlice(const std::function<void(BinaryWriter&)>& column) const {
    BinaryWriter record;
    record.writeI32(0);
    record.writeI64(coll_->t0());
    record.writeVarint(1);
    column(record);
    record.writeVarint(0);
    BinaryWriter w;
    w.writeU32(kSliceMagic);
    w.writeU8(kSliceVersion);
    for (const std::uint32_t field : {0u, 0u, 0u, 1u}) {
      w.writeU32(field);
    }
    w.writeU64(record.size());
    w.writeBytes(record.buffer().data(), record.size());
    ASSERT_TRUE(writeFileBytes(slicePath(dir_, 0, 0), w.buffer()).isOk());
  }

  // A string-list column header claiming `n` lists and a length stream of
  // `stream.size()` bytes.
  static void listColumn(BinaryWriter& w, std::uint64_t n,
                         const std::vector<std::uint8_t>& stream) {
    w.writeU8(2);
    w.writeU8(static_cast<std::uint8_t>(AttrType::kStringList));
    w.writeVarint(n);
    w.writeVarint(stream.size());
    w.writeBytes(stream.data(), stream.size());
  }

  void expectCorrupt(const std::string& why) const {
    auto ds = unwrap(GofsDataset::open(dir_));
    auto provider = ds.makeProvider();
    EXPECT_DEATH((void)provider->instanceFor(0, 0),
                 "CorruptData: " + why + ": .*part0/slice_p0\\.bin");
  }

  std::unique_ptr<PartitionedGraph> pg_;
  std::unique_ptr<TimeSeriesCollection> coll_;
};

TEST_F(GofsMalformedColumnTest, HandBuiltSliceLoads) {
  writeSlice([&](BinaryWriter& w) {
    listColumn(w, cells(), std::vector<std::uint8_t>(cells(), 0));
  });
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  const auto& lists = provider->instanceFor(0, 0).vertex_cols[0];
  EXPECT_EQ(lists, AttributeColumn::make(AttrType::kStringList, cells()));
}

TEST_F(GofsMalformedColumnTest, TypeTagMismatch) {
  writeSlice([&](BinaryWriter& w) {
    AttributeColumn::make(AttrType::kDouble, cells()).serialize(w);
  });
  expectCorrupt("column type tag mismatch");
}

TEST_F(GofsMalformedColumnTest, SizeNotPartitionSize) {
  writeSlice([&](BinaryWriter& w) {
    listColumn(w, cells() + 1, std::vector<std::uint8_t>(cells() + 1, 0));
  });
  expectCorrupt("column size mismatch");
}

TEST_F(GofsMalformedColumnTest, TruncatedLengthStream) {
  writeSlice([&](BinaryWriter& w) {
    listColumn(w, cells(), std::vector<std::uint8_t>(cells() - 1, 0));
  });
  expectCorrupt("string-list length stream truncated");
}

TEST_F(GofsMalformedColumnTest, TrailingBytesInLengthStream) {
  writeSlice([&](BinaryWriter& w) {
    listColumn(w, cells(), std::vector<std::uint8_t>(cells() + 1, 0));
  });
  expectCorrupt("trailing bytes in string-list length stream");
}

TEST_F(GofsMalformedColumnTest, ListLongerThanBytesRemaining) {
  writeSlice([&](BinaryWriter& w) {
    std::vector<std::uint8_t> stream(cells(), 0);
    stream[0] = 100;  // 100 strings, but only the edge-count byte follows
    listColumn(w, cells(), stream);
  });
  expectCorrupt("string-list length exceeds the bytes remaining");
}

// Seeded byte flips over a small v2 tweet slice, decoded into the same
// reused buffers every round: each load either fails with corruptData or
// decodes to columns that re-encode to exactly the bytes it read.
TEST_F(GofsTest, SliceByteFlipFuzz) {
  auto tmpl = smallSocial(24);
  const auto pg = partitionGraph(tmpl, 1);
  const auto coll = tweetCollection(tmpl, 3, 0.5);
  ASSERT_TRUE(writeGofsDataset(dir_, "fuzz", pg, coll, {}).isOk());
  const auto original = unwrap(readFileBytes(slicePath(dir_, 0, 0)));

  const std::size_t n = pg.partition(0).numVertices();
  std::vector<AttributeColumn> pack(
      3, AttributeColumn::make(AttrType::kStringList, n));
  SliceFrame frame;
  ASSERT_TRUE(decodeTweetSlice(original, pack, frame).isOk());
  EXPECT_EQ(encodeTweetSlice(frame, pack), original);
  auto provider = unwrap(GofsDataset::open(dir_)).makeProvider();
  for (Timestep t = 0; t < 3; ++t) {
    EXPECT_EQ(provider->instanceFor(0, t).vertex_cols[0], pack[t]);
  }

  Rng rng(1717);
  int rejected = 0;
  for (int round = 0; round < 500; ++round) {
    auto mutated = original;
    const auto pos = rng.uniformBelow(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniformBelow(255));
    const Status s = decodeTweetSlice(mutated, pack, frame);
    if (!s.isOk()) {
      EXPECT_EQ(s.code(), ErrorCode::kCorruptData) << s.toString();
      ++rejected;
      continue;
    }
    ASSERT_EQ(encodeTweetSlice(frame, pack), mutated)
        << "round " << round << " flipped byte " << pos;
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace tsg
