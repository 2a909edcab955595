/// E5 — Figure 10 / Theorem 7 / Lemma 9.
///
/// Protocol MATCHING reaches a silent configuration within (Delta+1)n + 2
/// rounds. Worst measured rounds across six daemons x five seeds vs bound.
///
/// Runs the menagerie as one batch plan (analysis/batch.hpp) and emits
/// BENCH_matching_convergence.json next to the table.

#include <cstdio>

#include "analysis/batch.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/matching_protocol.hpp"
#include "core/problems.hpp"
#include "runtime/daemon.hpp"
#include "support/bench_json.hpp"

int main() {
  using namespace sss;
  using namespace sss::bench;

  print_banner(
      "E5: MATCHING convergence vs the (Delta+1)n+2 round bound (Lemma 9)");
  const MatchingProblem problem;
  BatchStore store;
  std::vector<BatchItem> plan;
  for (const Graph& g : experiment_graphs()) {
    const Graph& stored = store.add(g);
    const MatchingProtocol& protocol =
        store.emplace_protocol<MatchingProtocol>(stored,
                                                 greedy_coloring(stored));
    BatchItem item;
    item.label = stored.name();
    item.graph = &stored;
    item.protocol = &protocol;
    item.problem = &problem;
    item.daemons = daemon_names();
    item.seeds_per_daemon = 5;
    item.run.max_steps = 6'000'000;
    plan.push_back(std::move(item));
  }
  const BatchResult result = run_batch(plan, BatchOptions{});

  TextTable table({"graph", "size", "runs", "silent", "rounds(med)",
                   "rounds(max)", "bound", "max/bound", "k"});
  BenchJsonWriter json("matching_convergence");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Graph& g = *plan[i].graph;
    const SweepSummary& s = result.summaries[i];
    const std::int64_t bound =
        matching_round_bound(g.num_vertices(), g.max_degree());
    const double ratio = static_cast<double>(s.max_rounds_to_silence) /
                         static_cast<double>(bound);
    table.row()
        .add(g.name())
        .add(graph_stats(g))
        .add(s.runs)
        .add(s.silent_runs)
        .add(s.rounds_to_silence.median, 1)
        .add(static_cast<std::int64_t>(s.max_rounds_to_silence))
        .add(bound)
        .add(ratio, 2)
        .add(s.k_measured);
    json.record()
        .field("graph", g.name())
        .field("n", g.num_vertices())
        .field("runs", s.runs)
        .field("silent_runs", s.silent_runs)
        .field("rounds_to_silence_median", s.rounds_to_silence.median)
        .field("rounds_to_silence_max",
               static_cast<std::int64_t>(s.max_rounds_to_silence))
        .field("round_bound", bound)
        .field("max_over_bound", ratio)
        .field("k_measured", s.k_measured);
  }
  std::printf("%s\n", table.str().c_str());
  print_note("paper claim check: rounds(max) <= bound everywhere, k == 1.");
  std::fflush(stdout);
  json.write();
  return 0;
}
