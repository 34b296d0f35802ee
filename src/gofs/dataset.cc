#include "gofs/dataset.h"

#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "runtime/fault_injector.h"

namespace tsg {
namespace {

constexpr std::uint32_t kManifestMagic = 0x4753464D;  // "MFSG"
constexpr std::uint32_t kSliceMagic = 0x474C5354;     // "TSLG"
constexpr std::uint8_t kFormatVersion = 2;
// magic, version, partition, pack, t_begin, steps.
constexpr std::size_t kSliceHeaderBytes = 4 + 1 + 4 * 4;

}  // namespace

std::string slicePath(const std::string& dir, PartitionId p,
                      std::uint32_t pack_index) {
  return dir + "/part" + std::to_string(p) + "/slice_p" +
         std::to_string(pack_index) + ".bin";
}

Status writeGofsDataset(const std::string& dir, const std::string& name,
                        const PartitionedGraph& pg,
                        const TimeSeriesCollection& collection,
                        const GofsOptions& options) {
  if (options.temporal_packing == 0) {
    return Status::invalidArgument("temporal packing must be positive");
  }
  if (collection.templatePtr().get() != &pg.graphTemplate() &&
      !(collection.graphTemplate() == pg.graphTemplate())) {
    return Status::invalidArgument(
        "collection and partitioned graph use different templates");
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::ioError("cannot create dataset dir: " + dir);
  }

  const GraphTemplate& tmpl = pg.graphTemplate();
  const auto num_instances =
      static_cast<std::uint32_t>(collection.numInstances());

  // manifest.bin
  {
    BinaryWriter w;
    w.writeU32(kManifestMagic);
    w.writeU8(kFormatVersion);
    w.writeString(name);
    w.writeI64(collection.t0());
    w.writeI64(collection.delta());
    w.writeU32(num_instances);
    w.writeU32(pg.numPartitions());
    w.writeU32(options.temporal_packing);
    TSG_RETURN_IF_ERROR(writeFileBytes(dir + "/manifest.bin", w.buffer()));
  }
  // template.bin
  {
    BinaryWriter w;
    tmpl.serialize(w);
    TSG_RETURN_IF_ERROR(writeFileBytes(dir + "/template.bin", w.buffer()));
  }
  // assignment.bin
  {
    BinaryWriter w;
    w.writeU32(pg.numPartitions());
    w.writePodVector(pg.assignment());
    TSG_RETURN_IF_ERROR(writeFileBytes(dir + "/assignment.bin", w.buffer()));
  }

  // Slices. One writer buffer serves every slice: after the first slice it
  // has the capacity of a slice, so later ones encode without growing it.
  const std::uint32_t packing = options.temporal_packing;
  const std::uint32_t num_packs = (num_instances + packing - 1) / packing;
  BinaryWriter w;

  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    const Partition& part = pg.partition(p);
    std::filesystem::create_directories(dir + "/part" + std::to_string(p), ec);
    if (ec) {
      return Status::ioError("cannot create partition dir");
    }
    for (std::uint32_t pack = 0; pack < num_packs; ++pack) {
      const std::uint32_t t_begin = pack * packing;
      const std::uint32_t t_end = std::min(num_instances, t_begin + packing);
      w.clear();
      w.writeU32(kSliceMagic);
      w.writeU8(kFormatVersion);
      w.writeU32(p);
      w.writeU32(pack);
      w.writeU32(t_begin);
      w.writeU32(t_end - t_begin);
      for (std::uint32_t t = t_begin; t < t_end; ++t) {
        const GraphInstance& inst =
            collection.instance(static_cast<Timestep>(t));
        const std::size_t record_at = w.size();
        w.writeU64(0);  // the record's byte count, patched below
        w.writeI32(inst.timestep());
        w.writeI64(inst.timestamp());
        w.writeVarint(inst.numVertexAttrs());
        for (std::size_t a = 0; a < inst.numVertexAttrs(); ++a) {
          inst.vertexCol(a).serializeAt(part.vertices, w);
        }
        w.writeVarint(inst.numEdgeAttrs());
        for (std::size_t a = 0; a < inst.numEdgeAttrs(); ++a) {
          inst.edgeCol(a).serializeAt(part.edges, w);
        }
        w.patchU64(record_at, w.size() - record_at - sizeof(std::uint64_t));
      }
      TSG_RETURN_IF_ERROR(writeFileBytes(slicePath(dir, p, pack), w.buffer()));
    }
  }
  return Status::ok();
}

Result<GofsDataset> GofsDataset::open(const std::string& dir) {
  GofsDataset ds;
  ds.dir_ = dir;

  // manifest.bin
  {
    auto bytes = readFileBytes(dir + "/manifest.bin");
    if (!bytes.isOk()) {
      return bytes.status();
    }
    BinaryReader r(bytes.value());
    std::uint32_t magic = 0;
    TSG_RETURN_IF_ERROR(r.readU32(magic));
    if (magic != kManifestMagic) {
      return Status::corruptData("bad manifest magic");
    }
    std::uint8_t version = 0;
    TSG_RETURN_IF_ERROR(r.readU8(version));
    if (version != kFormatVersion) {
      return Status::corruptData("unsupported manifest version");
    }
    TSG_RETURN_IF_ERROR(r.readString(ds.manifest_.name));
    TSG_RETURN_IF_ERROR(r.readI64(ds.manifest_.t0));
    TSG_RETURN_IF_ERROR(r.readI64(ds.manifest_.delta));
    TSG_RETURN_IF_ERROR(r.readU32(ds.manifest_.num_instances));
    TSG_RETURN_IF_ERROR(r.readU32(ds.manifest_.num_partitions));
    TSG_RETURN_IF_ERROR(r.readU32(ds.manifest_.options.temporal_packing));
    if (ds.manifest_.options.temporal_packing == 0) {
      return Status::corruptData("zero temporal packing in manifest");
    }
  }
  // template.bin
  GraphTemplatePtr tmpl;
  {
    auto bytes = readFileBytes(dir + "/template.bin");
    if (!bytes.isOk()) {
      return bytes.status();
    }
    BinaryReader r(bytes.value());
    auto parsed = GraphTemplate::deserialize(r);
    if (!parsed.isOk()) {
      return parsed.status();
    }
    tmpl = std::make_shared<GraphTemplate>(std::move(parsed).value());
  }
  // assignment.bin
  {
    auto bytes = readFileBytes(dir + "/assignment.bin");
    if (!bytes.isOk()) {
      return bytes.status();
    }
    BinaryReader r(bytes.value());
    std::uint32_t k = 0;
    TSG_RETURN_IF_ERROR(r.readU32(k));
    if (k != ds.manifest_.num_partitions) {
      return Status::corruptData("assignment/manifest partition mismatch");
    }
    PartitionAssignment assignment;
    TSG_RETURN_IF_ERROR(r.readPodVector(assignment));
    auto pg = PartitionedGraph::build(tmpl, assignment, k);
    if (!pg.isOk()) {
      return pg.status();
    }
    ds.pg_ = std::make_shared<PartitionedGraph>(std::move(pg).value());
  }
  return ds;
}

Result<GofsDataset::StorageStats> GofsDataset::storageStats() const {
  StorageStats stats;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_, ec)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().starts_with("slice_")) {
      ++stats.slice_files;
      stats.slice_bytes += entry.file_size();
    }
  }
  if (ec) {
    return Status::ioError("cannot walk dataset dir: " + dir_);
  }
  return stats;
}

namespace {

// Lazy slice-backed provider. Caches one pack per partition; asking for a
// timestep outside the cached pack loads (and meters) the new pack.
class GofsInstanceProvider final : public InstanceProvider {
 public:
  GofsInstanceProvider(std::string dir, GofsManifest manifest,
                       std::shared_ptr<PartitionedGraph> pg)
      : dir_(std::move(dir)),
        manifest_(std::move(manifest)),
        pg_(std::move(pg)),
        states_(pg_->numPartitions()) {}

  [[nodiscard]] std::size_t numInstances() const override {
    return manifest_.num_instances;
  }
  [[nodiscard]] std::int64_t t0() const override { return manifest_.t0; }
  [[nodiscard]] std::int64_t delta() const override { return manifest_.delta; }

  const PartitionInstanceData& instanceFor(PartitionId p,
                                           Timestep t) override {
    TSG_CHECK(p < states_.size());
    TSG_CHECK(t >= 0 &&
              static_cast<std::uint32_t>(t) < manifest_.num_instances);
    auto& state = states_[p];
    const std::uint32_t packing = manifest_.options.temporal_packing;
    const auto pack = static_cast<std::uint32_t>(t) / packing;
    if (state.cached_pack != static_cast<std::int64_t>(pack)) {
      // Transient-load fault site: each injected kFailLoad consumes one
      // plan entry and costs one backoff'd retry; when the plan runs dry
      // the load proceeds normally.
      auto& inj = fault::FaultInjector::global();
      if (inj.armed()) [[unlikely]] {
        std::int64_t backoff_us = 50;
        while (inj.fire(fault::Site::kSliceLoad, p, t,
                        fault::Action::kFailLoad)) {
          MetricsRegistry::global()
              .counter("gofs.load_retries", static_cast<std::int32_t>(p))
              .increment();
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          backoff_us *= 2;
        }
      }
      TraceSpan span("gofs", "gofs.load_pack", "partition", p, "pack",
                     static_cast<std::int64_t>(pack));
      const std::int64_t load_ns_before = state.load_ns;
      {
        ScopedCpuTimer timer(state.load_ns);
        loadPack(p, pack, state);
      }
      state.cached_pack = pack;
      auto& registry = MetricsRegistry::global();
      registry.counter("gofs.packs_loaded", static_cast<std::int32_t>(p))
          .increment();
      registry.counter("gofs.load_ns", static_cast<std::int32_t>(p))
          .add(static_cast<std::uint64_t>(state.load_ns - load_ns_before));
      // Residency levels for the telemetry sampler: how many timestep
      // slices this partition holds in memory and what they weigh (the
      // heap bytes the decoder reported). One gauge write per pack load.
      registry.gauge("gofs.resident_slices", static_cast<std::int32_t>(p))
          .set(static_cast<std::int64_t>(state.pack_data.size()));
      registry.gauge("gofs.resident_bytes", static_cast<std::int32_t>(p))
          .set(state.resident_bytes);
    }
    const std::size_t offset = static_cast<std::uint32_t>(t) % packing;
    TSG_CHECK(offset < state.pack_data.size());
    return state.pack_data[offset];
  }

  std::int64_t takeLoadNs(PartitionId p) override {
    TSG_CHECK(p < states_.size());
    return std::exchange(states_[p].load_ns, 0);
  }

 private:
  struct PartitionState {
    std::int64_t cached_pack = -1;
    // The pack's timesteps; their columns are reused from pack to pack.
    std::vector<PartitionInstanceData> pack_data;
    std::vector<std::uint8_t> record;  // one timestep's slice bytes, reused
    std::int64_t resident_bytes = 0;  // heap bytes of pack_data's values
    std::int64_t load_ns = 0;
  };

  void loadPack(PartitionId p, std::uint32_t pack, PartitionState& state) {
    const Partition& part = pg_->partition(p);
    const GraphTemplate& tmpl = pg_->graphTemplate();
    const std::uint32_t packing = manifest_.options.temporal_packing;
    const std::uint32_t t_begin = pack * packing;
    const std::uint32_t t_end =
        std::min(manifest_.num_instances, t_begin + packing);
    const std::uint32_t steps = t_end - t_begin;

    // One slot per step. Only slots this partition has not held before get
    // fresh columns; the rest are overwritten in place by the decoder.
    const std::size_t shaped = state.pack_data.size();
    state.pack_data.resize(steps);
    for (std::uint32_t i = 0; i < steps; ++i) {
      auto& data = state.pack_data[i];
      if (i >= shaped) {
        for (const auto& def : tmpl.vertexSchema().defs()) {
          data.vertex_cols.push_back(
              AttributeColumn::make(def.type, part.vertices.size()));
        }
        for (const auto& def : tmpl.edgeSchema().defs()) {
          data.edge_cols.push_back(
              AttributeColumn::make(def.type, part.edges.size()));
        }
      }
      data.timestep = static_cast<Timestep>(t_begin + i);
      data.timestamp =
          manifest_.t0 + static_cast<std::int64_t>(t_begin + i) *
                             manifest_.delta;
    }

    const Status s = loadSlice(p, pack, t_begin, steps, state);
    TSG_CHECK_MSG(s.isOk(), s.toString());
  }

  // Reads one slice into the shaped pack buffers, one timestep record at a
  // time through a reused record buffer. Every decode failure names the
  // slice path.
  Status loadSlice(PartitionId p, std::uint32_t pack, std::uint32_t t_begin,
                   std::uint32_t steps, PartitionState& state) {
    const std::string path = slicePath(dir_, p, pack);
    auto file = FileReader::open(path);
    if (!file.isOk()) {
      return file.status();
    }
    const Status s = decodeSlice(file.value(), p, pack, t_begin, steps, state);
    if (!s.isOk()) {
      return Status(s.code(), s.message() + ": " + path);
    }
    return Status::ok();
  }

  Status decodeSlice(FileReader& file, PartitionId p, std::uint32_t pack,
                     std::uint32_t t_begin, std::uint32_t steps,
                     PartitionState& state) {
    TSG_RETURN_IF_ERROR(file.read(kSliceHeaderBytes, state.record));
    BinaryReader header(state.record);
    std::uint32_t magic = 0;
    TSG_RETURN_IF_ERROR(header.readU32(magic));
    if (magic != kSliceMagic) {
      return Status::corruptData("bad slice magic");
    }
    std::uint8_t version = 0;
    TSG_RETURN_IF_ERROR(header.readU8(version));
    if (version != kFormatVersion) {
      return Status::corruptData("unsupported slice version");
    }
    const std::uint32_t expected[] = {p, pack, t_begin, steps};
    for (const std::uint32_t field : expected) {
      std::uint32_t stored = 0;
      TSG_RETURN_IF_ERROR(header.readU32(stored));
      if (stored != field) {
        return Status::corruptData("slice header mismatch");
      }
    }
    std::size_t resident = 0;
    const auto decodeColumns = [&](BinaryReader& r,
                                   std::vector<AttributeColumn>& cols) {
      std::uint64_t count = 0;
      TSG_RETURN_IF_ERROR(r.readVarint(count));
      if (count != cols.size()) {
        return Status::corruptData("slice attr count mismatch");
      }
      for (auto& col : cols) {
        auto bytes = col.deserializeInto(r);
        if (!bytes.isOk()) {
          return bytes.status();
        }
        resident += bytes.value();
      }
      return Status::ok();
    };
    for (std::uint32_t i = 0; i < steps; ++i) {
      auto& data = state.pack_data[i];
      TSG_RETURN_IF_ERROR(file.read(sizeof(std::uint64_t), state.record));
      std::uint64_t record_bytes = 0;
      TSG_RETURN_IF_ERROR(BinaryReader(state.record).readU64(record_bytes));
      TSG_RETURN_IF_ERROR(file.read(record_bytes, state.record));
      BinaryReader r(state.record);
      Timestep ts = 0;
      std::int64_t stamp = 0;
      TSG_RETURN_IF_ERROR(r.readI32(ts));
      TSG_RETURN_IF_ERROR(r.readI64(stamp));
      if (ts != data.timestep) {
        return Status::corruptData("slice timestep mismatch");
      }
      if (stamp != data.timestamp) {
        return Status::corruptData("slice timestamp mismatch");
      }
      TSG_RETURN_IF_ERROR(decodeColumns(r, data.vertex_cols));
      TSG_RETURN_IF_ERROR(decodeColumns(r, data.edge_cols));
      if (!r.atEnd()) {
        return Status::corruptData("trailing bytes in timestep record");
      }
    }
    if (file.remaining() != 0) {
      return Status::corruptData("trailing bytes in slice");
    }
    state.resident_bytes = static_cast<std::int64_t>(resident);
    return Status::ok();
  }

  std::string dir_;
  GofsManifest manifest_;
  std::shared_ptr<PartitionedGraph> pg_;
  std::vector<PartitionState> states_;
};

}  // namespace

std::unique_ptr<InstanceProvider> GofsDataset::makeProvider() const {
  return std::make_unique<GofsInstanceProvider>(dir_, manifest_, pg_);
}

}  // namespace tsg
