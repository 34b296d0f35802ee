// Timestep-boundary checkpointing for TI-BSP runs.
//
// A completed timestep is a natural consistent cut: sequentially dependent
// patterns carry state across timesteps only through program members and
// explicit next-timestep messages, both of which the coordinator holds
// quiesced between timesteps (workers are parked at the round barrier, the
// fabric is empty). A Checkpoint captures exactly that cut: per-partition
// program state (opaque bytes written by TiBspProgram::saveState), emitted
// outputs, the carried inter-timestep and merge message pools, and the
// aggregator snapshot. Restoring it and re-running from timestep+1 is
// byte-identical to never having crashed.
//
// Two stores:
//   * MemoryCheckpointStore — keeps the latest encoded pack in memory.
//     Every load still round-trips the codec, so tests exercise the same
//     byte path as the durable store without filesystem traffic.
//   * FileCheckpointStore — GoFS-adjacent on-disk layout:
//       <dir>/ckpt_<t>.bin    one pack per checkpointed timestep, written
//                             to a temp file and atomically renamed
//       <dir>/manifest.log    append-only fixed-size records
//                             {timestep, pack size, pack checksum, record
//                             checksum}; a torn tail or a corrupt pack is
//                             detected and loadLatest() falls back to the
//                             newest intact checkpoint with a diagnostic.
//     The store is process-crash consistent; not power-loss durable (no
//     fsync): a killed process loses at most the save in progress, but
//     after a power loss the OS may have persisted the manifest record
//     without its pack, which loadLatest() then skips as corrupt.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "graph/types.h"
#include "runtime/message.h"

namespace tsg {

// One partition's slice of the cut.
struct PartitionCheckpoint {
  std::vector<std::uint8_t> program_state;  // TiBspProgram::saveState bytes
  std::vector<std::string> outputs;         // lines emitted so far
};

struct Checkpoint {
  // Last completed timestep. first_timestep - 1 marks the initial
  // checkpoint written before any timestep runs (pristine program state),
  // so every recovery loads from a checkpoint instead of special-casing
  // "restart from scratch".
  Timestep timestep = -1;
  std::int32_t timesteps_executed = 0;
  std::vector<PartitionCheckpoint> partitions;
  std::vector<Message> pending_next;  // carried inter-timestep messages
  std::vector<Message> merge_pool;    // accumulated merge traffic
  std::map<std::string, std::uint64_t> aggregates;  // last timestep's sums
};

// Codec (magic + versioned; reusing the library serializer). Decoding is
// fully bounds-checked: truncated or bit-flipped packs come back as a
// Status, never a partial Checkpoint.
std::vector<std::uint8_t> encodeCheckpoint(const Checkpoint& ckpt);
Result<Checkpoint> decodeCheckpoint(std::span<const std::uint8_t> bytes);

class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  virtual Status save(const Checkpoint& ckpt) = 0;
  // Newest intact checkpoint; Status if none exists (or all are corrupt).
  virtual Result<Checkpoint> loadLatest() = 0;
  [[nodiscard]] virtual bool hasCheckpoint() const = 0;
};

// In-memory store holding the latest encoded pack. loadLatest() decodes it,
// so the codec is exercised on every recovery.
class MemoryCheckpointStore final : public CheckpointStore {
 public:
  Status save(const Checkpoint& ckpt) override;
  Result<Checkpoint> loadLatest() override;
  [[nodiscard]] bool hasCheckpoint() const override { return !latest_.empty(); }

  // Number of save() calls (for tests asserting checkpoint cadence).
  [[nodiscard]] std::uint64_t saves() const { return saves_; }

 private:
  std::vector<std::uint8_t> latest_;
  std::uint64_t saves_ = 0;
};

class FileCheckpointStore final : public CheckpointStore {
 public:
  // Creates dir if needed. Fallible I/O surfaces from save()/loadLatest().
  explicit FileCheckpointStore(std::string dir);

  Status save(const Checkpoint& ckpt) override;
  Result<Checkpoint> loadLatest() override;
  [[nodiscard]] bool hasCheckpoint() const override;

  // Paths, exposed for crash-consistency tests that corrupt them.
  [[nodiscard]] std::string packPath(Timestep t) const;
  [[nodiscard]] std::string manifestPath() const;

 private:
  std::string dir_;
};

}  // namespace tsg
