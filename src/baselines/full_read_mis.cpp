#include "baselines/full_read_mis.hpp"

#include <algorithm>

#include "support/require.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {

namespace {
constexpr int kRetreat = 0;
constexpr int kJoin = 1;
}  // namespace

FullReadMis::FullReadMis(const Graph& g, Coloring colors)
    : colors_(std::move(colors)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "FULL-READ-MIS requires a connected network with n >= 2");
  SSS_REQUIRE(is_proper_coloring(g, colors_),
              "FULL-READ-MIS requires a proper coloring");
  const Value max_color = *std::max_element(colors_.begin(), colors_.end());
  spec_.comm.emplace_back("S", VarDomain{kOut, kIn});
  spec_.comm.emplace_back("C", VarDomain{1, max_color}, /*is_constant=*/true);
}

void FullReadMis::install_constants(const Graph& g,
                                    Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kColorVar,
                    static_cast<Value>(colors_[static_cast<std::size_t>(p)]));
  }
}

template <class Ctx>
int FullReadMis::guard(Ctx& ctx) const {
  const Value own_state = ctx.self_comm(kStateVar);
  const Value own_color = ctx.self_comm(kColorVar);
  bool lower_in = false;
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    const Value nbr_state = ctx.nbr_comm(ch, kStateVar);
    const Value nbr_color = ctx.nbr_comm(ch, kColorVar);
    if (nbr_color < own_color && nbr_state == kIn) lower_in = true;
  }
  if (own_state == kIn && lower_in) return kRetreat;
  if (own_state == kOut && !lower_in) return kJoin;
  return kDisabled;
}

template <class Ctx>
void FullReadMis::act(int action, Ctx& ctx) const {
  SSS_ASSERT(action == kRetreat || action == kJoin,
             "FULL-READ-MIS has exactly two actions");
  ctx.set_comm(kStateVar, action == kRetreat ? kOut : kIn);
}

template class RuleProtocol<FullReadMis>;
template class RuleProtocol<GenericEfficiency<FullReadMis>>;

}  // namespace sss
