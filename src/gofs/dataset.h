// GoFS — the distributed time-series graph store (our equivalent of the
// paper's GoFS, §IV-A).
//
// On-disk layout of a dataset directory (format v2):
//   manifest.bin    name, t0, δ, instance count, k, packing
//   template.bin    serialized GraphTemplate
//   assignment.bin  vertex -> partition map
//   part<p>/slice_p<pack>.bin
//
// A slice file holds, for ONE partition, `temporal_packing` consecutive
// instances: the paper's temporal packing of 10, laid out so that a run over
// timesteps touches disk only at pack boundaries (the every-10th-timestep
// spikes of Fig. 6). There is no subgraph binning: a pack load always needs
// every subgraph of its partition, so the partition is one bin.
//
// Slice layout: magic, version, header (partition, pack, t_begin, steps),
// then one record per timestep: its u64 byte count, the timestep and its
// timestamp (checked against t0 + t·δ), and every vertex then edge
// attribute column in the AttributeColumn codec. Each column lists the
// partition's cells in partition-local order (Partition::vertices /
// Partition::edges), the index order of PartitionInstanceData, so the
// reader decodes it straight into the partition's pack buffers, which it
// reuses from one pack to the next. The reader reads one record at a time
// into a reused buffer, so a load holds one timestep's bytes, not a pack's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gofs/instance_provider.h"
#include "graph/collection.h"
#include "partition/partitioned_graph.h"

namespace tsg {

struct GofsOptions {
  std::uint32_t temporal_packing = 10;  // instances per slice
};

struct GofsManifest {
  std::string name;
  std::int64_t t0 = 0;
  std::int64_t delta = 1;
  std::uint32_t num_instances = 0;
  std::uint32_t num_partitions = 0;
  GofsOptions options;
};

// Writes a complete dataset (template + assignment + all slices).
// The directory is created; existing files are overwritten.
Status writeGofsDataset(const std::string& dir, const std::string& name,
                        const PartitionedGraph& pg,
                        const TimeSeriesCollection& collection,
                        const GofsOptions& options);

// An opened dataset: metadata resident, instance data loaded lazily.
class GofsDataset {
 public:
  // Reads manifest/template/assignment and rebuilds the partitioned graph.
  static Result<GofsDataset> open(const std::string& dir);

  [[nodiscard]] const GofsManifest& manifest() const { return manifest_; }
  [[nodiscard]] const PartitionedGraph& partitionedGraph() const {
    return *pg_;
  }

  // Creates a lazy provider over this dataset. Each provider owns its own
  // cache; create one per run. The dataset must outlive the provider.
  [[nodiscard]] std::unique_ptr<InstanceProvider> makeProvider() const;

  // Total slice files and bytes on disk (for reporting).
  struct StorageStats {
    std::uint64_t slice_files = 0;
    std::uint64_t slice_bytes = 0;
  };
  [[nodiscard]] Result<StorageStats> storageStats() const;

 private:
  GofsDataset() = default;

  std::string dir_;
  GofsManifest manifest_;
  std::shared_ptr<PartitionedGraph> pg_;
};

// Path of one slice file (exposed for tests and tooling).
std::string slicePath(const std::string& dir, PartitionId p,
                      std::uint32_t pack_index);

}  // namespace tsg
