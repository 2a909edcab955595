#include "baselines/full_read_leader_election.hpp"

#include <algorithm>
#include <unordered_set>

#include "support/require.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {

namespace {
constexpr int kReset = 0;
constexpr int kElect = 1;

/// The lexicographically best (leader, depth) offer among neighbors whose
/// depth leaves room for one more tree level; returns 0 when none exists.
struct Offer {
  Value leader = 0;
  Value depth = 0;
  NbrIndex channel = 0;
};

template <class Ctx>
SSS_RULE Offer best_offer(Ctx& ctx, int leader_var, int dist_var, Value dmax) {
  Offer best;
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    const Value leader = ctx.nbr_comm(ch, leader_var);
    const Value depth = ctx.nbr_comm(ch, dist_var);
    if (depth + 1 > dmax) continue;
    if (best.channel == 0 || leader < best.leader ||
        (leader == best.leader && depth < best.depth)) {
      best = Offer{leader, depth, ch};
    }
  }
  return best;
}

}  // namespace

FullReadLeaderElection::FullReadLeaderElection(const Graph& g,
                                               std::vector<Value> ids)
    : ids_(std::move(ids)),
      max_distance_(static_cast<Value>(g.num_vertices() - 1)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "FULL-READ-LEADER-ELECTION requires a connected network with "
              "n >= 2");
  SSS_REQUIRE(static_cast<int>(ids_.size()) == g.num_vertices(),
              "FULL-READ-LEADER-ELECTION needs one identifier per process");
  std::unordered_set<Value> seen;
  for (const Value id : ids_) {
    SSS_REQUIRE(id >= 0, "identifiers must be non-negative");
    SSS_REQUIRE(seen.insert(id).second, "identifiers must be distinct");
  }
  min_id_ = *std::min_element(ids_.begin(), ids_.end());
  max_id_ = *std::max_element(ids_.begin(), ids_.end());
  spec_.comm.emplace_back("L", VarDomain{min_id_, max_id_});
  spec_.comm.emplace_back("D", VarDomain{0, max_distance_});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("ID", VarDomain{min_id_, max_id_},
                          /*is_constant=*/true);
}

void FullReadLeaderElection::install_constants(const Graph& g,
                                               Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kIdVar, ids_[static_cast<std::size_t>(p)]);
  }
}

template <class Ctx>
int FullReadLeaderElection::guard(Ctx& ctx) const {
  const Value id = ctx.self_comm(kIdVar);
  const Value leader = ctx.self_comm(kLeaderVar);
  const Value dist = ctx.self_comm(kDistVar);
  const Value parent = ctx.self_comm(kParentVar);

  if (leader > id) return kReset;
  if (leader == id) {
    if (dist != 0 || parent != 0) return kReset;
  } else {
    if (parent == 0 || dist == 0) return kReset;
    const auto pr = static_cast<NbrIndex>(parent);
    if (ctx.nbr_comm(pr, kLeaderVar) > leader ||
        ctx.nbr_comm(pr, kDistVar) == max_distance_) {
      return kReset;
    }
  }

  const Offer best = best_offer(ctx, kLeaderVar, kDistVar, max_distance_);
  if (best.channel != 0) {
    if (best.leader < leader) return kElect;
    if (leader < id && best.leader == leader && best.depth + 1 < dist) {
      return kElect;
    }
  }
  if (leader < id &&
      dist != ctx.nbr_comm(static_cast<NbrIndex>(parent), kDistVar) + 1) {
    // Depth drifted from the parent's: re-elect to re-sync the tree level
    // (the parent itself is always a candidate offer here, since the
    // reset guard above rules out a parent at the depth cap).
    return kElect;
  }
  return kDisabled;
}

template <class Ctx>
void FullReadLeaderElection::act(int action, Ctx& ctx) const {
  if (action == kReset) {
    ctx.set_comm(kLeaderVar, ctx.self_comm(kIdVar));
    ctx.set_comm(kDistVar, 0);
    ctx.set_comm(kParentVar, 0);
    return;
  }
  SSS_ASSERT(action == kElect, "FULL-READ-LEADER-ELECTION has two actions");
  const Offer best = best_offer(ctx, kLeaderVar, kDistVar, max_distance_);
  SSS_ASSERT(best.channel != 0, "elect fired without a candidate offer");
  ctx.set_comm(kLeaderVar, best.leader);
  ctx.set_comm(kDistVar, best.depth + 1);
  ctx.set_comm(kParentVar, static_cast<Value>(best.channel));
}

template class RuleProtocol<FullReadLeaderElection>;
template class RuleProtocol<GenericEfficiency<FullReadLeaderElection>>;

}  // namespace sss
