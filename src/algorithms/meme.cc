#include "algorithms/meme.h"

#include <algorithm>
#include <unordered_map>

#include "algorithms/codec.h"

namespace tsg {
namespace {

class MemeProgram final : public TiBspProgram {
 public:
  MemeProgram(const PartitionedGraph& pg, PartitionId partition,
              const MemeOptions& options, std::vector<Timestep>& colored_at)
      : pg_(pg),
        partition_(partition),
        options_(options),
        colored_at_(colored_at),
        marks_(pg.graphTemplate().numVertices(), 0),
        frontier_(pg.partition(partition).subgraphs.size()),
        newly_(frontier_.size()) {}

  // Checkpoint hooks: only this partition's slice of the shared colored_at_
  // result is saved. The frontier and the sent-notification marks follow
  // from it, so loadState leaves them empty and asks the next superstep 0 to
  // re-root every colored vertex once (see compute), which rebuilds both.
  void saveState(BinaryWriter& w) const override {
    for (const VertexIndex v : pg_.partition(partition_).vertices) {
      w.writeI32(colored_at_[v]);
    }
  }

  Status loadState(BinaryReader& r) override {
    for (const VertexIndex v : pg_.partition(partition_).vertices) {
      TSG_RETURN_IF_ERROR(r.readI32(colored_at_[v]));
    }
    reflood_ = true;
    return Status::ok();
  }

  // A message-free subgraph whose cells did not change has no frontier
  // member that turned carrier, so superstep 0 would color and send
  // nothing. Not while a restore's reflood is pending: the frontier is
  // rebuilt only by computing every subgraph.
  [[nodiscard]] bool skippableWhenClean() const override { return !reflood_; }

  void compute(SubgraphContext& ctx) override {
    const Subgraph& sg = ctx.subgraph();
    const Timestep t = ctx.timestep();
    const auto local = pg_.subgraphIndexInPartition(sg.id);
    auto& frontier = frontier_[local];

    auto hasMeme = [&](VertexIndex v) {
      const auto& tweets = ctx.vertexStringList(options_.tweets_attr, v);
      return std::find(tweets.begin(), tweets.end(), options_.meme) !=
             tweets.end();
    };

    std::vector<VertexIndex> queue;
    auto color = [&](VertexIndex v) {
      colored_at_[v] = t;
      newly_[local].push_back(v);
      queue.push_back(v);
    };
    // An own uncolored vertex gains a colored in-neighbour: it is colored if
    // it carries the meme at t, and joins the frontier otherwise. Frontier
    // members were already tested at t, so each vertex is tested once.
    auto reach = [&](VertexIndex v) {
      if (colored_at_[v] >= 0 || (marks_[v] & kInFrontier) != 0) {
        return;
      }
      if (hasMeme(v)) {
        color(v);
      } else {
        marks_[v] |= kInFrontier;
        frontier.push_back(v);
      }
    };

    if (ctx.superstep() == 0) {
      if (t == options_.first_timestep) {
        // Alg. 1 line 4: vertices already carrying the meme are the roots.
        for (const VertexIndex v : sg.vertices) {
          if (hasMeme(v)) {
            color(v);
          }
        }
      } else if (reflood_) {
        // After a restore: re-root the colored set once (Alg. 1's C*).
        for (const VertexIndex v : sg.vertices) {
          if (colored_at_[v] >= 0) {
            queue.push_back(v);
          }
        }
      } else {
        // The roots are the frontier members that carry the meme now.
        std::erase_if(frontier, [&](VertexIndex v) {
          if (!hasMeme(v)) {
            return false;
          }
          marks_[v] &= ~kInFrontier;
          color(v);
          return true;
        });
      }
    } else {
      // Alg. 1 line 8: remote notifications of a newly colored in-neighbour.
      for (const Message& msg : ctx.messages()) {
        for (const VertexIndex v : decodeVertexList(msg.payload)) {
          reach(v);
        }
      }
    }

    // MemeBFS (Alg. 1 line 10) over uncolored vertices only. Each remote
    // out-neighbour is notified once per run, batched per destination.
    std::unordered_map<SubgraphId, std::vector<VertexIndex>> remote_touched;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const auto& oe : ctx.graphTemplate().outEdges(queue[head])) {
        const SubgraphId dst_sg = pg_.subgraphOfVertex(oe.dst);
        if (dst_sg == sg.id) {
          reach(oe.dst);
        } else if ((marks_[oe.dst] & kNotified) == 0) {
          marks_[oe.dst] |= kNotified;
          remote_touched[dst_sg].push_back(oe.dst);
        }
      }
    }
    for (auto& [dst_sg, vertices] : remote_touched) {
      ctx.sendToSubgraph(dst_sg, encodeVertexList(vertices));
    }
    ctx.voteToHalt();
  }

  void endOfTimestep(SubgraphContext& ctx) override {
    reflood_ = false;  // every subgraph's superstep 0 has re-rooted
    auto& newly = newly_[pg_.subgraphIndexInPartition(ctx.subgraphId())];
    ctx.addCounter(kMemeColoredCounter, newly.size());
    if (options_.emit_outputs) {
      // The paper prints the frontier Cₜ (Alg. 1 line 18).
      for (const VertexIndex v : newly) {
        ctx.output("meme," +
                   std::to_string(ctx.graphTemplate().vertexId(v)) + "," +
                   std::to_string(ctx.timestep()));
      }
    }
    newly.clear();
  }

 private:
  static constexpr std::uint8_t kInFrontier = 1;  // own vertex, in F
  static constexpr std::uint8_t kNotified = 2;    // notification sent

  const PartitionedGraph& pg_;
  const PartitionId partition_;
  const MemeOptions& options_;
  std::vector<Timestep>& colored_at_;  // shared result (own vertices)
  std::vector<std::uint8_t> marks_;    // per template vertex
  // Per subgraph (by index in the partition): the frontier F, i.e. the own
  // uncolored vertices with a colored in-neighbour, and the vertices colored
  // this timestep.
  std::vector<std::vector<VertexIndex>> frontier_;
  std::vector<std::vector<VertexIndex>> newly_;
  bool reflood_ = false;  // restored from a checkpoint, not yet re-rooted
};

}  // namespace

MemeRun runMemeTracking(const PartitionedGraph& pg, InstanceProvider& provider,
                        const MemeOptions& options) {
  MemeRun run;
  run.colored_at.assign(pg.graphTemplate().numVertices(), -1);

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.first_timestep = options.first_timestep;
  config.num_timesteps = options.num_timesteps;
  config.maintenance_period = options.maintenance_period;
  config.checkpoint_store = options.checkpoint_store;
  config.schedule = options.schedule;
  config.stream = options.stream;

  TiBspEngine engine(pg, provider);
  run.exec = engine.run(
      [&](PartitionId p) {
        return std::make_unique<MemeProgram>(pg, p, options, run.colored_at);
      },
      config);
  return run;
}

}  // namespace tsg
