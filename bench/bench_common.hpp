#pragma once
/// \file bench_common.hpp
/// Shared plumbing for the bench binaries: the experiment graph menagerie
/// and small formatting helpers. Every bench is deterministic (fixed
/// seeds) and runs standalone in a few seconds.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "analysis/report.hpp"
#include "graph/builders.hpp"
#include "graph/coloring.hpp"
#include "graph/properties.hpp"
#include "support/bench_json.hpp"
#include "support/require.hpp"
#include "support/text_table.hpp"

namespace sss::bench {

/// Graphs used by the convergence/stability tables: spans degree spread,
/// symmetry, bottlenecks and the paper's own gadgets.
///
/// Each randomized family draws from a fresh Rng seeded 0x2009 (= 8201) —
/// exactly what the manifests spell as {"seed": 8201} — so a graph named
/// "regular(24,4)" is the same topology in every bench and in every
/// manifest-driven run. (A single shared stream would make later families
/// depend on earlier ones, which no manifest can express.)
inline std::vector<Graph> experiment_graphs() {
  constexpr std::uint64_t kSeed = 0x2009ULL;
  std::vector<Graph> graphs;
  graphs.push_back(path(24));
  graphs.push_back(cycle(24));
  graphs.push_back(complete(8));
  graphs.push_back(star(12));
  graphs.push_back(grid(5, 6));
  graphs.push_back(hypercube(4));
  graphs.push_back(petersen());
  graphs.push_back(balanced_binary_tree(31));
  {
    Rng rng(kSeed);
    graphs.push_back(erdos_renyi_connected(30, 0.15, rng));
  }
  {
    Rng rng(kSeed);
    graphs.push_back(random_regular(24, 4, rng));
  }
  return graphs;
}

/// "n=24 Delta=3" style context cell.
inline std::string graph_stats(const Graph& g) {
  return "n=" + std::to_string(g.num_vertices()) +
         " m=" + std::to_string(g.num_edges()) +
         " D=" + std::to_string(g.max_degree());
}

}  // namespace sss::bench
