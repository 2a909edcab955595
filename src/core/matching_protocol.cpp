#include "core/matching_protocol.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

namespace {
// Action indices, in the priority order of Figure 10.
constexpr int kRepoint = 0;   // A1
constexpr int kAnnounce = 1;  // A2
constexpr int kAccept = 2;    // A3
constexpr int kAbandon = 3;   // A4
constexpr int kPropose = 4;   // A5
constexpr int kAdvance = 5;   // A6

constexpr Value kFalse = 0;
constexpr Value kTrue = 1;
}  // namespace

MatchingProtocol::MatchingProtocol(const Graph& g, Coloring colors)
    : colors_(std::move(colors)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "MATCHING requires a connected network with n >= 2");
  SSS_REQUIRE(is_proper_coloring(g, colors_),
              "MATCHING requires a proper local coloring");
  const Value max_color = *std::max_element(colors_.begin(), colors_.end());
  spec_.comm.emplace_back("M", VarDomain{kFalse, kTrue});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("C", VarDomain{1, max_color}, /*is_constant=*/true);
  spec_.internal.emplace_back("cur", domain_channel());
}

void MatchingProtocol::install_constants(const Graph& g,
                                         Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kColorVar,
                    static_cast<Value>(colors_[static_cast<std::size_t>(p)]));
  }
}

template <class Ctx>
bool MatchingProtocol::pr_married(Ctx& ctx) {
  const Value pr = ctx.self_comm(kPrVar);
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));
  if (pr != static_cast<Value>(cur)) return false;
  // PR.(cur.p) = p: the neighbor's pointer names the channel through which
  // it sees this process.
  const Value nbr_pr = ctx.nbr_comm(cur, kPrVar);
  return nbr_pr == static_cast<Value>(ctx.self_index_at(cur));
}

template <class Ctx>
int MatchingProtocol::guard(Ctx& ctx) const {
  // Guards evaluate lazily: neighbor variables are read only when the
  // preceding conjuncts leave a guard undecided (a married process, for
  // instance, settles everything after reading only PR.(cur.p)). The
  // fired action never changes; only the measured bit traffic does.
  const Value pr = ctx.self_comm(kPrVar);
  const Value married = ctx.self_comm(kMarriedVar);
  const Value own_color = ctx.self_comm(kColorVar);
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));
  const Value cur_value = static_cast<Value>(cur);

  // A1: the pointer is stale (neither free nor the checked neighbor).
  if (pr != 0 && pr != cur_value) return kRepoint;

  // From here pr is 0 or cur_value. PR.(cur.p) decides both the marriage
  // predicate and most remaining guards.
  const Value nbr_pr = ctx.nbr_comm(cur, kPrVar);
  const Value back_channel = static_cast<Value>(ctx.self_index_at(cur));
  const bool is_married = pr == cur_value && nbr_pr == back_channel;

  // A2: the marriage announcement is out of date.
  if ((married == kTrue) != is_married) return kAnnounce;

  if (pr == 0) {
    // A3: a free process accepts a proposal from the checked neighbor.
    if (nbr_pr == back_channel) return kAccept;
    // A5/A6: the neighbor's pointer state picks the cheap path first.
    if (nbr_pr != 0) return kAdvance;  // A6 first disjunct
    if (ctx.nbr_comm(cur, kColorVar) < own_color) return kAdvance;
    if (ctx.nbr_comm(cur, kMarriedVar) == kTrue) return kAdvance;
    // nbr free, unmarried, higher-colored: propose (A5).
    return kPropose;
  }

  // pr == cur_value and not married (A2 handled the married case).
  if (!is_married) {
    // A4: give up on a neighbor married elsewhere or lower-colored.
    if (ctx.nbr_comm(cur, kMarriedVar) == kTrue ||
        ctx.nbr_comm(cur, kColorVar) < own_color) {
      return kAbandon;
    }
  }

  return kDisabled;
}

template <class Ctx>
void MatchingProtocol::act(int action, Ctx& ctx) const {
  const auto cur = static_cast<Value>(ctx.self_internal(kCurVar));
  switch (action) {
    case kRepoint:
      ctx.set_comm(kPrVar, cur);
      break;
    case kAnnounce:
      ctx.set_comm(kMarriedVar, pr_married(ctx) ? kTrue : kFalse);
      break;
    case kAccept:
      ctx.set_comm(kPrVar, cur);
      break;
    case kAbandon:
      ctx.set_comm(kPrVar, 0);
      break;
    case kPropose:
      ctx.set_comm(kPrVar, cur);
      break;
    case kAdvance:
      ctx.set_internal(kCurVar,
                       (cur % static_cast<Value>(ctx.degree())) + 1);
      break;
    default:
      SSS_ASSERT(false, "MATCHING has exactly six actions");
  }
}

template class RuleProtocol<MatchingProtocol>;

}  // namespace sss
