#include "baselines/full_read_bfs_tree.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

namespace {
constexpr int kFixRoot = 0;
constexpr int kRecompute = 1;
}  // namespace

FullReadBfsTree::FullReadBfsTree(const Graph& g, ProcessId root)
    : root_(root),
      max_distance_(static_cast<Value>(g.num_vertices() - 1)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "FULL-READ-BFS-TREE requires a connected network with n >= 2");
  SSS_REQUIRE(root >= 0 && root < g.num_vertices(),
              "FULL-READ-BFS-TREE root must be a process id in [0, n)");
  spec_.comm.emplace_back("D", VarDomain{0, max_distance_});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("R", VarDomain{0, 1}, /*is_constant=*/true);
}

void FullReadBfsTree::install_constants(const Graph& g,
                                        Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kRootVar, p == root_ ? 1 : 0);
  }
}

template <class Ctx>
int FullReadBfsTree::guard(Ctx& ctx) const {
  const Value dist = ctx.self_comm(kDistVar);
  const Value parent = ctx.self_comm(kParentVar);
  if (ctx.self_comm(kRootVar) == 1) {
    return (dist != 0 || parent != 0) ? kFixRoot : kDisabled;
  }
  // Local checking reads the whole neighborhood (the Delta-efficient
  // baseline cost the paper's Section 3 charges).
  Value best = max_distance_;
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    best = std::min(best, ctx.nbr_comm(ch, kDistVar));
  }
  const Value target = std::min<Value>(best + 1, max_distance_);
  if (dist != target) return kRecompute;
  if (parent == 0 ||
      ctx.nbr_comm(static_cast<NbrIndex>(parent), kDistVar) != best) {
    return kRecompute;
  }
  return kDisabled;
}

template <class Ctx>
void FullReadBfsTree::act(int action, Ctx& ctx) const {
  if (action == kFixRoot) {
    ctx.set_comm(kDistVar, 0);
    ctx.set_comm(kParentVar, 0);
    return;
  }
  SSS_ASSERT(action == kRecompute, "FULL-READ-BFS-TREE has two actions");
  Value best = max_distance_;
  NbrIndex best_channel = 1;
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    const Value d = ctx.nbr_comm(ch, kDistVar);
    if (d < best) {
      best = d;
      best_channel = ch;
    }
  }
  ctx.set_comm(kDistVar, std::min<Value>(best + 1, max_distance_));
  ctx.set_comm(kParentVar, static_cast<Value>(best_channel));
}

template class RuleProtocol<FullReadBfsTree>;

}  // namespace sss
