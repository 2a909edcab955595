#include "baselines/full_read_coloring.hpp"

#include <cstdint>
#include <vector>

#include "support/require.hpp"

namespace sss {

FullReadColoring::FullReadColoring(const Graph& g, int palette_size)
    : palette_size_(palette_size == 0 ? g.max_degree() + 1 : palette_size) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "FULL-READ-COLORING requires a connected network with n >= 2");
  SSS_REQUIRE(palette_size_ >= g.max_degree() + 1,
              "palette must have at least Delta+1 colors");
  spec_.comm.emplace_back("C", VarDomain{1, static_cast<Value>(palette_size_)});
}

template <class Ctx>
int FullReadColoring::guard(Ctx& ctx) const {
  const Value own = ctx.self_comm(kColorVar);
  // Local checking: scan the entire neighborhood for a conflict.
  bool conflict = false;
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    if (ctx.nbr_comm(ch, kColorVar) == own) conflict = true;
  }
  return conflict ? 0 : kDisabled;
}

template <class Ctx>
void FullReadColoring::act(int action, Ctx& ctx) const {
  SSS_ASSERT(action == 0, "FULL-READ-COLORING has one action");
  // Per-thread scratch, refilled per call: the action runs once per fired
  // process on every engine path, so it must not allocate.
  thread_local std::vector<std::uint8_t> used;
  used.assign(static_cast<std::size_t>(palette_size_) + 1, 0);
  Value taken = 0;
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    const auto c = static_cast<std::size_t>(ctx.nbr_comm(ch, kColorVar));
    if (used[c] == 0) ++taken;
    used[c] = 1;
  }
  const Value num_free = static_cast<Value>(palette_size_) - taken;
  SSS_ASSERT(num_free > 0, "a Delta+1 palette always leaves a free color");
  // The pick-th free color in ascending order.
  Value pick = ctx.random_range(0, num_free - 1);
  Value c = 1;
  for (;; ++c) {
    if (!used[static_cast<std::size_t>(c)] && pick-- == 0) break;
  }
  ctx.set_comm(kColorVar, c);
}

template class RuleProtocol<FullReadColoring>;

}  // namespace sss
