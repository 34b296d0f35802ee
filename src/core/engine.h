// TiBspEngine — executes a TI-BSP application over a time-series graph
// collection (§II-D, Fig. 3).
//
// The outer loop iterates timesteps (one BSP per graph instance); the inner
// loop iterates barriered supersteps over subgraphs. The configured design
// pattern decides ordering and messaging:
//   * kSequentiallyDependent — timesteps run strictly in order; messages
//     sent with SendToNextTimestep arrive at superstep 0 of the next
//     timestep. Optional While-mode stops when every subgraph
//     VoteToHaltTimestep()s and no inter-timestep messages are in flight.
//   * kIndependent — each timestep's BSP is self-contained; with
//     TemporalMode::kConcurrent, timesteps execute in parallel ("pleasingly
//     temporally parallel", §II-B).
//   * kEventuallyDependent — like kIndependent plus a Merge BSP after all
//     timesteps, seeded with SendMessageToMerge traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.h"
#include "gofs/instance_provider.h"
#include "partition/partitioned_graph.h"
#include "metrics/stats.h"

namespace tsg {

class CheckpointStore;  // gofs/checkpoint.h

enum class Pattern : std::uint8_t {
  kIndependent,
  kEventuallyDependent,
  kSequentiallyDependent,
};

enum class TemporalMode : std::uint8_t {
  kSerial,      // timesteps one after another (what GoFFish did; §IV-B)
  kConcurrent,  // temporal parallelism for independent/eventually patterns
};

enum class Schedule : std::uint8_t {
  // Global per-superstep barrier (the paper's model; the checked reference).
  kBsp,
  // Dependency-driven waves: only ready partitions run each superstep,
  // idle workers steal straggler partitions' tasks and halted partitions
  // skip rounds. Output is identical to kBsp by construction
  // (whole-partition tasks replay the BSP send order); see DESIGN.md
  // "Scheduling".
  kAsync,
};

struct TiBspConfig {
  Pattern pattern = Pattern::kSequentiallyDependent;
  TemporalMode temporal_mode = TemporalMode::kSerial;
  Schedule schedule = Schedule::kBsp;

  Timestep first_timestep = 0;
  // Number of instances to process; -1 = all remaining in the provider.
  std::int32_t num_timesteps = -1;
  // Sequentially dependent only: stop early once all subgraphs vote to halt
  // the timestep loop and no next-timestep messages exist (While-loop mode).
  bool while_mode = false;

  // Safety valve against non-terminating programs.
  std::int32_t max_supersteps_per_timestep = 100000;

  // If > 0, a synchronized maintenance pause (allocator trim — the stand-in
  // for the paper's forced System.gc(), §IV-D) runs every N timesteps.
  std::int32_t maintenance_period = 0;

  // Application inputs, delivered at superstep 0: of the first timestep for
  // the sequentially dependent pattern, of every timestep otherwise (§II-D).
  std::vector<Message> input_messages;

  // Fault tolerance (serial temporal mode only; see gofs/checkpoint.h).
  // When set, the engine writes an initial checkpoint before the timestep
  // loop, then one per `checkpoint_period` completed timesteps; a worker
  // fault (thrown fault::WorkerFault / fault::RecoveryNeeded) triggers a
  // respawn + rollback to the newest checkpoint instead of an abort. Null
  // (the default) keeps the hot path fault-oblivious: faults abort.
  CheckpointStore* checkpoint_store = nullptr;
  std::int32_t checkpoint_period = 1;
  // Hard cap on rollbacks per run; exceeding it is a contract failure (a
  // fault plan that never lets the run finish is a test bug, not a crash
  // to paper over).
  std::int32_t max_recoveries = 8;

  // Streaming ingestion (serial temporal mode only; see src/stream/). When
  // set, the timestep loop blocks on stream->awaitTimestep(t) before running
  // t, and subgraphs whose program is skippableWhenClean() are halted at
  // superstep 0 when they are message-free and stream->subgraphDirty says
  // nothing of theirs changed. Null (the default) is the batch path.
  TimestepStream* stream = nullptr;
};

struct TiBspResult {
  RunStats stats;
  // Lines emitted via SubgraphContext::output, ordered by
  // (timestep-of-emission stability, partition, emission order).
  std::vector<std::string> outputs;
  Timestep timesteps_executed = 0;
};

class TiBspEngine {
 public:
  // Both referents must outlive the engine.
  TiBspEngine(const PartitionedGraph& pg, InstanceProvider& provider);

  // Runs one application to completion. The factory is called once per
  // partition (serial/seq-dep) or once per (timestep, partition) when
  // temporally concurrent.
  TiBspResult run(const ProgramFactory& factory, const TiBspConfig& config);

 private:
  const PartitionedGraph& pg_;
  InstanceProvider& provider_;
};

}  // namespace tsg
