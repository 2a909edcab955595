#include "core/spanning_forest_protocol.hpp"

#include <algorithm>

#include "support/require.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {

namespace {
constexpr int kFixRoot = 0;  // A1
constexpr int kFollow = 1;   // A2
constexpr int kAdopt = 2;    // A3
constexpr int kImprove = 3;  // A4
constexpr int kScan = 4;     // A5
}  // namespace

SpanningForestProtocol::SpanningForestProtocol(const Graph& g,
                                               std::vector<ProcessId> roots,
                                               std::string name)
    : name_(std::move(name)),
      roots_(std::move(roots)),
      max_distance_(static_cast<Value>(g.num_vertices() - 1)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              name_ + " requires a connected network with n >= 2");
  SSS_REQUIRE(!roots_.empty(), name_ + " needs at least one root");
  std::sort(roots_.begin(), roots_.end());
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    SSS_REQUIRE(roots_[i] >= 0 && roots_[i] < g.num_vertices(),
                name_ + " roots must be process ids in [0, n)");
    SSS_REQUIRE(i == 0 || roots_[i] != roots_[i - 1],
                name_ + " roots must be distinct");
  }
  spec_.comm.emplace_back("D", VarDomain{0, max_distance_});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("R", VarDomain{0, 1}, /*is_constant=*/true);
  spec_.internal.emplace_back("cur", domain_channel());
}

void SpanningForestProtocol::install_constants(const Graph& g,
                                               Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kRootVar, 0);
  }
  for (const ProcessId root : roots_) config.set_comm(root, kRootVar, 1);
}

template <class Ctx>
int SpanningForestProtocol::guard(Ctx& ctx) const {
  const Value dist = ctx.self_comm(kDistVar);
  const Value parent = ctx.self_comm(kParentVar);
  if (ctx.self_comm(kRootVar) == 1) {
    return (dist != 0 || parent != 0) ? kFixRoot : kDisabled;
  }
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));
  if (parent == 0) return kAdopt;
  // Neighbor reads are lazy: the parent settles A2 before the cur
  // neighbor is fetched for A4, so an evaluation costs at most two
  // distinct neighbor reads (the protocol's k = 2 certificate).
  const Value via_parent = std::min<Value>(
      ctx.nbr_comm(static_cast<NbrIndex>(parent), kDistVar) + 1,
      max_distance_);
  if (dist != via_parent) return kFollow;
  if (ctx.nbr_comm(cur, kDistVar) + 1 < dist) return kImprove;
  return kScan;
}

template <class Ctx>
void SpanningForestProtocol::act(int action, Ctx& ctx) const {
  const auto cur = static_cast<Value>(ctx.self_internal(kCurVar));
  const Value next = (cur % static_cast<Value>(ctx.degree())) + 1;
  switch (action) {
    case kFixRoot:
      ctx.set_comm(kDistVar, 0);
      ctx.set_comm(kParentVar, 0);
      break;
    case kFollow: {
      const auto parent =
          static_cast<NbrIndex>(ctx.self_comm(kParentVar));
      ctx.set_comm(kDistVar,
                   std::min<Value>(ctx.nbr_comm(parent, kDistVar) + 1,
                                   max_distance_));
      break;
    }
    case kAdopt:
      ctx.set_comm(kParentVar, cur);
      ctx.set_comm(
          kDistVar,
          std::min<Value>(
              ctx.nbr_comm(static_cast<NbrIndex>(cur), kDistVar) + 1,
              max_distance_));
      ctx.set_internal(kCurVar, next);
      break;
    case kImprove:
      ctx.set_comm(kParentVar, cur);
      ctx.set_comm(kDistVar,
                   ctx.nbr_comm(static_cast<NbrIndex>(cur), kDistVar) + 1);
      ctx.set_internal(kCurVar, next);
      break;
    case kScan:
      ctx.set_internal(kCurVar, next);
      break;
    default:
      SSS_ASSERT(false, "SPANNING-FOREST has exactly five actions");
  }
}

template class RuleProtocol<SpanningForestProtocol>;
template class RuleProtocol<GenericEfficiency<SpanningForestProtocol>>;

}  // namespace sss
