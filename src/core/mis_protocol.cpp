#include "core/mis_protocol.hpp"

#include <algorithm>

#include "support/require.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {

namespace {
constexpr int kDemote = 0;   // first action: Dominator loses to a neighbor
constexpr int kPromote = 1;  // second action: dominated claims domination
constexpr int kScan = 2;     // third action: Dominator keeps patrolling
}  // namespace

MisProtocol::MisProtocol(const Graph& g, Coloring colors,
                         bool promote_on_higher_color)
    : name_(promote_on_higher_color ? "MIS" : "MIS(no-boost)"),
      colors_(std::move(colors)),
      num_colors_(count_colors(colors_)),
      promote_on_higher_color_(promote_on_higher_color) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "MIS requires a connected network with n >= 2");
  SSS_REQUIRE(is_proper_coloring(g, colors_),
              "MIS requires a proper local coloring (C.p unique among "
              "neighbors)");
  const Value max_color =
      *std::max_element(colors_.begin(), colors_.end());
  spec_.comm.emplace_back("S", VarDomain{kDominated, kDominator});
  spec_.comm.emplace_back("C", VarDomain{1, max_color}, /*is_constant=*/true);
  spec_.internal.emplace_back("cur", domain_channel());
}

void MisProtocol::install_constants(const Graph& g,
                                    Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kColorVar,
                    static_cast<Value>(colors_[static_cast<std::size_t>(p)]));
  }
}

template <class Ctx>
int MisProtocol::guard(Ctx& ctx) const {
  // Guards read the checked neighbor's variables lazily: own-variable
  // conjuncts are tested first and the color is only fetched when the
  // state comparison leaves the guard undecided. This never changes which
  // action fires — it only keeps the measured communication complexity at
  // what the guards actually need (Definition 5).
  const Value own_state = ctx.self_comm(kStateVar);
  const Value own_color = ctx.self_comm(kColorVar);
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));
  const Value nbr_state = ctx.nbr_comm(cur, kStateVar);

  if (own_state == kDominator) {
    if (nbr_state == kDominator &&
        ctx.nbr_comm(cur, kColorVar) < own_color) {
      return kDemote;
    }
    return kScan;
  }
  // own_state == kDominated.
  if (nbr_state == kDominated ||
      (promote_on_higher_color_ &&
       own_color < ctx.nbr_comm(cur, kColorVar))) {
    return kPromote;
  }
  return kDisabled;
}

template <class Ctx>
void MisProtocol::act(int action, Ctx& ctx) const {
  const auto cur = static_cast<Value>(ctx.self_internal(kCurVar));
  const Value next = (cur % static_cast<Value>(ctx.degree())) + 1;
  switch (action) {
    case kDemote:
      // Deliberately keeps cur pointing at the winning Dominator.
      ctx.set_comm(kStateVar, kDominated);
      break;
    case kPromote:
      ctx.set_comm(kStateVar, kDominator);
      ctx.set_internal(kCurVar, next);
      break;
    case kScan:
      ctx.set_internal(kCurVar, next);
      break;
    default:
      SSS_ASSERT(false, "MIS has exactly three actions");
  }
}

template class RuleProtocol<MisProtocol>;
template class RuleProtocol<GenericEfficiency<MisProtocol>>;

}  // namespace sss
