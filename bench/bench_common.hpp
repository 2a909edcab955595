#pragma once
/// \file bench_common.hpp
/// Shared plumbing for the bench binaries: the experiment graph menagerie
/// and small formatting helpers. Every bench is deterministic (fixed
/// seeds) and runs standalone in a few seconds.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "analysis/plan.hpp"
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

/// Shared body of the efficient-vs-full-read comparison shells
/// (bench_bfs_tree, bench_leader_election): run the manifest as one
/// batch, print the convergence/reads table, emit BENCH_<name>.json, and
/// enforce the claim — every run stabilizes, and items whose protocol is
/// named `efficient_protocol` keep the k <= `efficient_k` read pattern.
inline int run_efficiency_comparison(const std::string& banner,
                                     const std::string& manifest_path,
                                     const std::string& bench_name,
                                     const std::string& efficient_protocol,
                                     int efficient_k) {
  print_banner(banner);
  print_note("every run starts from a uniformly random configuration;");
  print_note("silent = certified by the exact quiescence check;");
  print_note("k = max distinct neighbors any process read in any step.");

  const ExperimentPlan plan = plan_from_manifest_file(manifest_path);
  const BatchResult result = run_batch(plan.items, BatchOptions{});

  TextTable table({"item", "size", "runs", "silent", "rounds(med)",
                   "rounds(max)", "steps(med)", "k", "bits"});
  BenchJsonWriter json(bench_name);
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const Graph& g = *plan.items[i].graph;
    const SweepSummary& s = result.summaries[i];
    table.row()
        .add(plan.items[i].label)
        .add(graph_stats(g))
        .add(s.runs)
        .add(s.silent_runs)
        .add(s.rounds_to_silence.median, 1)
        .add(static_cast<std::int64_t>(s.max_rounds_to_silence))
        .add(s.steps_to_silence.median, 1)
        .add(s.k_measured)
        .add(s.bits_measured);
    json.record()
        .field("item", plan.items[i].label)
        .field("n", g.num_vertices())
        .field("runs", s.runs)
        .field("silent_runs", s.silent_runs)
        .field("rounds_to_silence_median", s.rounds_to_silence.median)
        .field("rounds_to_silence_max",
               static_cast<std::int64_t>(s.max_rounds_to_silence))
        .field("steps_to_silence_median", s.steps_to_silence.median)
        .field("k_measured", s.k_measured)
        .field("bits_measured", s.bits_measured);
    SSS_REQUIRE(s.silent_runs == s.runs,
                plan.items[i].label + ": a run failed to stabilize");
    // The manifests bind a problem, so silence alone is not the claim:
    // every trial's trajectory must have reached the legitimacy predicate.
    SSS_REQUIRE(s.legitimate_runs == s.runs,
                plan.items[i].label +
                    ": a run stabilized without reaching legitimacy");
    if (plan.items[i].protocol->name() == efficient_protocol) {
      SSS_REQUIRE(s.k_measured <= efficient_k,
                  plan.items[i].label + ": k exceeded the " +
                      std::to_string(efficient_k) + "-read pattern");
    }
  }
  std::printf("%s\n", table.str().c_str());
  print_note("claim check: silent == runs everywhere; k <= " +
             std::to_string(efficient_k) + " for " + efficient_protocol +
             " vs k = Delta for the full-read baseline.");
  std::fflush(stdout);
  json.write();
  return 0;
}

}  // namespace sss::bench
