#include "algorithms/tdsp.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "algorithms/codec.h"
#include "algorithms/subgraph_dijkstra.h"

namespace tsg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kTotalFinalizedAgg = "tdsp_total_finalized";

static_assert(TdspOptions::kNoExistsAttr == SubgraphDijkstra::kNoAttr);

class TdspProgram final : public TiBspProgram {
 public:
  TdspProgram(const PartitionedGraph& pg, PartitionId partition,
              const TdspOptions& options, std::vector<double>& tdsp,
              std::vector<Timestep>& finalized_at)
      : pg_(pg),
        partition_(partition),
        options_(options),
        tdsp_(tdsp),
        finalized_at_(finalized_at),
        label_(pg.graphTemplate().numVertices(), kInf),
        dijkstra_(label_, options.latency_attr, options.exists_attr) {}

  // Checkpoint hooks: the frontier F and done_ flag carry across timesteps,
  // and endOfTimestep writes this partition's slice of the shared tdsp_/
  // finalized_at_ results — all of it must roll back with the engine, or a
  // replayed timestep would skip vertices the aborted attempt finalized.
  // label_ and the kernel's scratch stay out: compute rebuilds label_ at
  // superstep 0 of every timestep.
  void saveState(BinaryWriter& w) const override {
    w.writeBool(done_);
    for (const VertexIndex v : pg_.partition(partition_).vertices) {
      w.writeDouble(tdsp_[v]);
      w.writeI32(finalized_at_[v]);
    }
    std::vector<SubgraphId> ids;
    ids.reserve(finalized_by_sg_.size());
    for (const auto& [sg, frontier] : finalized_by_sg_) {
      ids.push_back(sg);
    }
    std::sort(ids.begin(), ids.end());  // deterministic checkpoint bytes
    w.writeVarint(ids.size());
    for (const SubgraphId sg : ids) {
      w.writeU32(sg);
      w.writePodVector(finalized_by_sg_.at(sg));
    }
  }

  Status loadState(BinaryReader& r) override {
    TSG_RETURN_IF_ERROR(r.readBool(done_));
    for (const VertexIndex v : pg_.partition(partition_).vertices) {
      TSG_RETURN_IF_ERROR(r.readDouble(tdsp_[v]));
      TSG_RETURN_IF_ERROR(r.readI32(finalized_at_[v]));
    }
    std::uint64_t entries = 0;
    TSG_RETURN_IF_ERROR(r.readVarint(entries));
    finalized_by_sg_.clear();
    for (std::uint64_t i = 0; i < entries; ++i) {
      SubgraphId sg = kInvalidSubgraph;
      TSG_RETURN_IF_ERROR(r.readU32(sg));
      TSG_RETURN_IF_ERROR(r.readPodVector(finalized_by_sg_[sg]));
    }
    return Status::ok();
  }

  void compute(SubgraphContext& ctx) override {
    const Subgraph& sg = ctx.subgraph();
    const Timestep t = ctx.timestep();
    const double delta = static_cast<double>(ctx.delta());
    const double horizon = delta * static_cast<double>(t + 1);
    const auto& pg = ctx.partitionedGraph();

    // Global-completion check (While-mode): aggregated total from the
    // previous timestep covers all vertices -> nothing left to do.
    if (options_.while_mode && ctx.superstep() == 0 &&
        ctx.aggregatedU64(kTotalFinalizedAgg) >=
            ctx.graphTemplate().numVertices()) {
      done_ = true;
    }
    if (done_) {
      ctx.voteToHaltTimestep();
      ctx.voteToHalt();
      return;
    }

    if (ctx.superstep() == 0) {
      // Fresh tentative labels for this instance; finalized vertices keep
      // their arrival in tdsp_ and re-enter as roots at t·δ (idling edges).
      for (const VertexIndex v : sg.vertices) {
        label_[v] = kInf;
      }
      if (t == options_.first_timestep &&
          pg.subgraphOfVertex(options_.source) == sg.id) {
        dijkstra_.seed(ctx, options_.source, 0.0);
      }
      // Roots from the previous timestep's frontier (messages carry the
      // accumulated finalized set F of this subgraph; Alg. 2 line 9-11).
      dijkstra_.seedRootsFromMessages(ctx, delta * static_cast<double>(t));
    } else {
      // Relaxations arriving over remote edges (Alg. 2 line 13-18).
      dijkstra_.seedFromMessages(ctx);
    }
    // ModifiedSSSP: horizon-bounded Dijkstra inside the subgraph.
    dijkstra_.run(ctx, horizon);
    ctx.voteToHalt();
  }

  void endOfTimestep(SubgraphContext& ctx) override {
    const Subgraph& sg = ctx.subgraph();
    const Timestep t = ctx.timestep();

    if (done_) {
      // Global completion confirmed last timestep: keep quiet so the
      // engine's While-loop drains (no F resend; Alg. 2's termination).
      ctx.aggregate(kTotalFinalizedAgg, finalizedOf(sg).size());
      return;
    }

    // Finalize everything that arrived within this timestep's horizon
    // (Alg. 2 line 27-28) and grow F.
    auto& finalized = finalizedOf(sg);
    std::uint64_t newly = 0;
    for (const VertexIndex v : sg.vertices) {
      if (finalized_at_[v] < 0 && label_[v] < kInf) {
        finalized_at_[v] = t;
        tdsp_[v] = label_[v];
        finalized.push_back(v);
        ++newly;
        if (options_.emit_outputs) {
          ctx.output("tdsp," +
                     std::to_string(ctx.graphTemplate().vertexId(v)) + "," +
                     std::to_string(t) + "," + std::to_string(label_[v]));
        }
      }
    }
    ctx.addCounter(kTdspFinalizedCounter, newly);
    ctx.aggregate(kTotalFinalizedAgg, finalized.size());

    // Pass the whole frontier to the same subgraph in the next instance
    // (Alg. 2 line 29-30), unless this is the final planned timestep.
    const bool last_planned =
        t + 1 >= options_.first_timestep +
                     static_cast<Timestep>(ctx.numTimestepsPlanned());
    if (!finalized.empty() && !last_planned) {
      ctx.sendToNextTimestep(encodeVertexList(finalized));
    }
  }

 private:
  std::vector<VertexIndex>& finalizedOf(const Subgraph& sg) {
    return finalized_by_sg_[sg.id];
  }

  const PartitionedGraph& pg_;
  const PartitionId partition_;
  const TdspOptions& options_;
  std::vector<double>& tdsp_;
  std::vector<Timestep>& finalized_at_;
  std::vector<double> label_;  // tentative labels, this partition's vertices
  SubgraphDijkstra dijkstra_;  // relaxes label_
  std::unordered_map<SubgraphId, std::vector<VertexIndex>> finalized_by_sg_;
  bool done_ = false;
};

}  // namespace

TdspRun runTdsp(const PartitionedGraph& pg, InstanceProvider& provider,
                const TdspOptions& options) {
  TSG_CHECK(options.source < pg.graphTemplate().numVertices());
  TdspRun run;
  run.tdsp.assign(pg.graphTemplate().numVertices(), kInf);
  run.finalized_at.assign(pg.graphTemplate().numVertices(), -1);

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.first_timestep = options.first_timestep;
  config.num_timesteps = options.num_timesteps;
  config.while_mode = options.while_mode;
  config.maintenance_period = options.maintenance_period;
  config.checkpoint_store = options.checkpoint_store;
  config.schedule = options.schedule;
  config.stream = options.stream;

  TiBspEngine engine(pg, provider);
  run.exec = engine.run(
      [&](PartitionId p) {
        return std::make_unique<TdspProgram>(pg, p, options, run.tdsp,
                                             run.finalized_at);
      },
      config);
  return run;
}

}  // namespace tsg
