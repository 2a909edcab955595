#include "baselines/full_read_matching.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

namespace {
constexpr int kUpdate = 0;
constexpr int kAbandon = 1;
constexpr int kAccept = 2;
constexpr int kPropose = 3;

constexpr Value kFalse = 0;
constexpr Value kTrue = 1;
}  // namespace

FullReadMatching::FullReadMatching(const Graph& g, Coloring colors)
    : colors_(std::move(colors)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "FULL-READ-MATCHING requires a connected network with n >= 2");
  SSS_REQUIRE(is_proper_coloring(g, colors_),
              "FULL-READ-MATCHING requires a proper coloring");
  const Value max_color = *std::max_element(colors_.begin(), colors_.end());
  spec_.comm.emplace_back("M", VarDomain{kFalse, kTrue});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("C", VarDomain{1, max_color}, /*is_constant=*/true);
}

void FullReadMatching::install_constants(const Graph& g,
                                         Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kColorVar,
                    static_cast<Value>(colors_[static_cast<std::size_t>(p)]));
  }
}

template <class Ctx>
bool FullReadMatching::married(Ctx& ctx) {
  const Value pr = ctx.self_comm(kPrVar);
  if (pr == 0) return false;
  const auto ch = static_cast<NbrIndex>(pr);
  return ctx.nbr_comm(ch, kPrVar) ==
         static_cast<Value>(ctx.self_index_at(ch));
}

template <class Ctx>
NbrIndex FullReadMatching::first_proposer(Ctx& ctx) {
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    if (ctx.nbr_comm(ch, kPrVar) ==
        static_cast<Value>(ctx.self_index_at(ch))) {
      return ch;
    }
  }
  return 0;
}

template <class Ctx>
NbrIndex FullReadMatching::first_candidate(Ctx& ctx) {
  const Value own_color = ctx.self_comm(kColorVar);
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    if (ctx.nbr_comm(ch, kPrVar) == 0 &&
        ctx.nbr_comm(ch, kMarriedVar) == kFalse &&
        own_color < ctx.nbr_comm(ch, kColorVar)) {
      return ch;
    }
  }
  return 0;
}

template <class Ctx>
int FullReadMatching::guard(Ctx& ctx) const {
  const Value pr = ctx.self_comm(kPrVar);
  const Value announced = ctx.self_comm(kMarriedVar);
  const Value own_color = ctx.self_comm(kColorVar);

  if ((announced == kTrue) != married(ctx)) return kUpdate;

  if (pr != 0) {
    const auto ch = static_cast<NbrIndex>(pr);
    const Value nbr_pr = ctx.nbr_comm(ch, kPrVar);
    if (nbr_pr != static_cast<Value>(ctx.self_index_at(ch)) &&
        (ctx.nbr_comm(ch, kMarriedVar) == kTrue ||
         ctx.nbr_comm(ch, kColorVar) < own_color)) {
      return kAbandon;
    }
  }

  if (pr == 0) {
    if (first_proposer(ctx) != 0) return kAccept;
    if (first_candidate(ctx) != 0) return kPropose;
  }

  return kDisabled;
}

template <class Ctx>
void FullReadMatching::act(int action, Ctx& ctx) const {
  switch (action) {
    case kUpdate:
      ctx.set_comm(kMarriedVar, married(ctx) ? kTrue : kFalse);
      break;
    case kAbandon:
      ctx.set_comm(kPrVar, 0);
      break;
    case kAccept:
      ctx.set_comm(kPrVar, static_cast<Value>(first_proposer(ctx)));
      break;
    case kPropose:
      ctx.set_comm(kPrVar, static_cast<Value>(first_candidate(ctx)));
      break;
    default:
      SSS_ASSERT(false, "FULL-READ-MATCHING has exactly four actions");
  }
}

bool MutualPrMatchingProblem::holds(const Graph& g,
                                    const Configuration& config) const {
  return is_maximal_matching(g, extract_mutual_pr_edges(g, config));
}

template class RuleProtocol<FullReadMatching>;

}  // namespace sss
