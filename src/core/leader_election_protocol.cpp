#include "core/leader_election_protocol.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "support/require.hpp"
#include "support/rng.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {

namespace {
constexpr int kReset = 0;    // A1
constexpr int kInherit = 1;  // A2
constexpr int kFollow = 2;   // A3
constexpr int kAdopt = 3;    // A4
constexpr int kImprove = 4;  // A5
constexpr int kScan = 5;     // A6
}  // namespace

LeaderElectionProtocol::LeaderElectionProtocol(const Graph& g,
                                               std::vector<Value> ids)
    : ids_(std::move(ids)),
      max_distance_(static_cast<Value>(g.num_vertices() - 1)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "LEADER-ELECTION requires a connected network with n >= 2");
  SSS_REQUIRE(static_cast<int>(ids_.size()) == g.num_vertices(),
              "LEADER-ELECTION needs one identifier per process");
  std::unordered_set<Value> seen;
  for (const Value id : ids_) {
    SSS_REQUIRE(id >= 0, "LEADER-ELECTION identifiers must be non-negative");
    SSS_REQUIRE(seen.insert(id).second,
                "LEADER-ELECTION identifiers must be distinct");
  }
  min_id_ = *std::min_element(ids_.begin(), ids_.end());
  max_id_ = *std::max_element(ids_.begin(), ids_.end());
  spec_.comm.emplace_back("L", VarDomain{min_id_, max_id_});
  spec_.comm.emplace_back("D", VarDomain{0, max_distance_});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("ID", VarDomain{min_id_, max_id_},
                          /*is_constant=*/true);
  spec_.internal.emplace_back("cur", domain_channel());
}

void LeaderElectionProtocol::install_constants(const Graph& g,
                                               Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kIdVar, ids_[static_cast<std::size_t>(p)]);
  }
}

template <class Ctx>
int LeaderElectionProtocol::guard(Ctx& ctx) const {
  const Value id = ctx.self_comm(kIdVar);
  const Value leader = ctx.self_comm(kLeaderVar);
  const Value dist = ctx.self_comm(kDistVar);
  const Value parent = ctx.self_comm(kParentVar);
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));

  if (leader > id) return kReset;
  if (leader == id) {
    if (dist != 0 || parent != 0) return kReset;
    // Self state: the only remaining duty is checking cur for a better
    // candidate (A4), then rotating.
    if (ctx.nbr_comm(cur, kLeaderVar) < leader &&
        ctx.nbr_comm(cur, kDistVar) + 1 <= max_distance_) {
      return kAdopt;
    }
    return kScan;
  }

  // leader < id: the claim must be backed by a parent chain.
  if (parent == 0 || dist == 0) return kReset;
  const auto pr = static_cast<NbrIndex>(parent);
  const Value parent_leader = ctx.nbr_comm(pr, kLeaderVar);
  const Value parent_dist = ctx.nbr_comm(pr, kDistVar);
  if (parent_leader > leader || parent_dist == max_distance_) return kReset;
  if (parent_leader < leader) return kInherit;
  if (dist != parent_dist + 1) return kFollow;

  const Value cur_leader = ctx.nbr_comm(cur, kLeaderVar);
  const Value cur_dist = ctx.nbr_comm(cur, kDistVar);
  if (cur_leader < leader && cur_dist + 1 <= max_distance_) return kAdopt;
  if (cur_leader == leader && cur_dist + 1 < dist) return kImprove;
  return kScan;
}

template <class Ctx>
void LeaderElectionProtocol::act(int action, Ctx& ctx) const {
  const auto cur = static_cast<Value>(ctx.self_internal(kCurVar));
  const Value next = (cur % static_cast<Value>(ctx.degree())) + 1;
  const auto cur_ch = static_cast<NbrIndex>(cur);
  switch (action) {
    case kReset:
      ctx.set_comm(kLeaderVar, ctx.self_comm(kIdVar));
      ctx.set_comm(kDistVar, 0);
      ctx.set_comm(kParentVar, 0);
      break;
    case kInherit: {
      const auto pr = static_cast<NbrIndex>(ctx.self_comm(kParentVar));
      ctx.set_comm(kLeaderVar, ctx.nbr_comm(pr, kLeaderVar));
      ctx.set_comm(kDistVar, ctx.nbr_comm(pr, kDistVar) + 1);
      break;
    }
    case kFollow: {
      const auto pr = static_cast<NbrIndex>(ctx.self_comm(kParentVar));
      ctx.set_comm(kDistVar, ctx.nbr_comm(pr, kDistVar) + 1);
      break;
    }
    case kAdopt:
      ctx.set_comm(kLeaderVar, ctx.nbr_comm(cur_ch, kLeaderVar));
      ctx.set_comm(kDistVar, ctx.nbr_comm(cur_ch, kDistVar) + 1);
      ctx.set_comm(kParentVar, cur);
      ctx.set_internal(kCurVar, next);
      break;
    case kImprove:
      ctx.set_comm(kDistVar, ctx.nbr_comm(cur_ch, kDistVar) + 1);
      ctx.set_comm(kParentVar, cur);
      ctx.set_internal(kCurVar, next);
      break;
    case kScan:
      ctx.set_internal(kCurVar, next);
      break;
    default:
      SSS_ASSERT(false, "LEADER-ELECTION has exactly six actions");
  }
}

std::vector<Value> make_id_assignment(const Graph& g,
                                      const std::string& scheme,
                                      std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<Value> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  if (scheme == "identity") return ids;
  if (scheme == "reverse") {
    std::reverse(ids.begin(), ids.end());
    return ids;
  }
  if (scheme == "random") {
    Rng rng(seed);
    shuffle(ids, rng);
    return ids;
  }
  throw PreconditionError("unknown id scheme \"" + scheme +
                          "\" (accepted: identity, reverse, random)");
}

template class RuleProtocol<LeaderElectionProtocol>;
template class RuleProtocol<GenericEfficiency<LeaderElectionProtocol>>;

}  // namespace sss
