/// E3 — Figure 8 / Theorem 5 / Lemma 4.
///
/// Protocol MIS reaches a silent configuration within Delta * #C rounds.
/// The table reports the worst measured rounds-to-silence across all six
/// daemons and five seeds each, next to the bound.
///
/// Runs the menagerie as one batch plan (analysis/batch.hpp) and emits
/// BENCH_mis_convergence.json next to the table.

#include <cstdio>

#include "analysis/batch.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "runtime/daemon.hpp"
#include "support/bench_json.hpp"

int main() {
  using namespace sss;
  using namespace sss::bench;

  print_banner("E3: MIS convergence vs the Delta*#C round bound (Lemma 4)");
  const MisProblem problem;
  BatchStore store;
  std::vector<BatchItem> plan;
  std::vector<const MisProtocol*> protocols;
  for (const Graph& g : experiment_graphs()) {
    const Graph& stored = store.add(g);
    const MisProtocol& protocol =
        store.emplace_protocol<MisProtocol>(stored, greedy_coloring(stored));
    protocols.push_back(&protocol);
    BatchItem item;
    item.label = stored.name();
    item.graph = &stored;
    item.protocol = &protocol;
    item.problem = &problem;
    item.daemons = daemon_names();
    item.seeds_per_daemon = 5;
    item.run.max_steps = 4'000'000;
    plan.push_back(std::move(item));
  }
  const BatchResult result = run_batch(plan, BatchOptions{});

  TextTable table({"graph", "size", "#C", "runs", "silent", "rounds(med)",
                   "rounds(max)", "bound", "max/bound", "k"});
  BenchJsonWriter json("mis_convergence");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Graph& g = *plan[i].graph;
    const SweepSummary& s = result.summaries[i];
    const std::int64_t bound =
        mis_round_bound(g.max_degree(), protocols[i]->num_colors());
    const double ratio = static_cast<double>(s.max_rounds_to_silence) /
                         static_cast<double>(bound);
    table.row()
        .add(g.name())
        .add(graph_stats(g))
        .add(protocols[i]->num_colors())
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
  print_note("paper claim check: rounds(max) <= bound everywhere "
             "(Lemma 4 is an upper bound; headroom is expected), k == 1.");
  std::fflush(stdout);
  json.write();
  return 0;
}
