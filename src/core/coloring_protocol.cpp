#include "core/coloring_protocol.hpp"

#include "support/require.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {

namespace {
constexpr int kConflict = 0;  // first action of Figure 7
constexpr int kAdvance = 1;   // second action of Figure 7
}  // namespace

ColoringProtocol::ColoringProtocol(const Graph& g, int palette_size)
    : palette_size_(palette_size == 0 ? g.max_degree() + 1 : palette_size) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "COLORING requires a connected network with n >= 2");
  SSS_REQUIRE(palette_size_ >= g.max_degree() + 1,
              "COLORING needs at least Delta+1 colors (Figure 7)");
  spec_.comm.emplace_back(
      "C", VarDomain{1, static_cast<Value>(palette_size_)});
  spec_.internal.emplace_back("cur", domain_channel());
}

template <class Ctx>
int ColoringProtocol::guard(Ctx& ctx) const {
  const Value own = ctx.self_comm(kColorVar);
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));
  const Value checked = ctx.nbr_comm(cur, kColorVar);
  // Exactly one of the two guards holds, so the process is always enabled.
  return own == checked ? kConflict : kAdvance;
}

template <class Ctx>
void ColoringProtocol::act(int action, Ctx& ctx) const {
  const auto cur = static_cast<Value>(ctx.self_internal(kCurVar));
  const Value next = (cur % static_cast<Value>(ctx.degree())) + 1;
  switch (action) {
    case kConflict:
      ctx.set_comm(kColorVar,
                   ctx.random_range(1, static_cast<Value>(palette_size_)));
      ctx.set_internal(kCurVar, next);
      break;
    case kAdvance:
      ctx.set_internal(kCurVar, next);
      break;
    default:
      SSS_ASSERT(false, "COLORING has exactly two actions");
  }
}

template class RuleProtocol<ColoringProtocol>;
template class RuleProtocol<GenericEfficiency<ColoringProtocol>>;

}  // namespace sss
