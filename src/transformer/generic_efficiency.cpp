#include "transformer/generic_efficiency.hpp"

#include "support/require.hpp"

namespace sss {

namespace detail {

ProtocolSpec generic_efficiency_spec(const Graph& g, const Protocol* inner) {
  SSS_REQUIRE(inner != nullptr, "GENERIC-EFFICIENCY needs a protocol");
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "GENERIC-EFFICIENCY requires a connected network with n >= 2");
  const ProtocolSpec& base = inner->spec();
  const int num_comm = base.num_comm();
  SSS_REQUIRE(num_comm >= 1,
              "GENERIC-EFFICIENCY wraps protocols with communication state");
  // The wrapped protocol's variables keep their indices: comm vars are
  // shared (the legitimacy predicate applies unchanged), inner internals
  // come first in the internal section so pass-through reads and writes
  // need no translation.
  ProtocolSpec spec;
  spec.comm = base.comm;
  spec.internal = base.internal;
  spec.internal.emplace_back("tcur", domain_channel());
  // The mirror bank: one slot per (channel, comm var) up to the network's
  // maximum degree, channel-major so a process's mirror of one neighbor
  // is a contiguous row MirrorContext indexes. A slot past the process's
  // degree has the degenerate domain {0} — arbitrary initialization
  // cannot put noise where no neighbor exists. An in-range slot ranges
  // over the *neighbor's* domain of that variable (domains may be
  // per-process, e.g. a PR pointer's [0..delta.q]).
  for (NbrIndex ch = 1; ch <= g.max_degree(); ++ch) {
    for (int v = 0; v < num_comm; ++v) {
      const VarSpec mirrored = base.comm[static_cast<std::size_t>(v)];
      spec.internal.emplace_back(
          "m" + std::to_string(ch) + "." + mirrored.name(),
          [mirrored, ch](const Graph& graph, ProcessId p) -> VarDomain {
            if (ch > graph.degree(p)) return VarDomain{0, 0};
            return mirrored.domain(graph, graph.neighbor(p, ch));
          });
    }
  }
  return spec;
}

int ErasedInnerHooks::first_enabled(GuardContext& ctx) const {
  return static_cast<const GenericEfficiency<Protocol>&>(*this).guard(ctx);
}

void ErasedInnerHooks::execute(int action, ActionContext& ctx) const {
  static_cast<const GenericEfficiency<Protocol>&>(*this).act(action, ctx);
}

}  // namespace detail

template class GenericEfficiency<Protocol>;

}  // namespace sss
