/// E16 — ablation of Fig 8's "faster convergence" clause.
///
/// The second action of Protocol MIS promotes a dominated process not only
/// when its checked neighbor is dominated, but also "if the neighbor it
/// points out has a greater color (even if it is a Dominator)". This
/// table ablates that disjunct: both variants stabilize to a maximal
/// independent set, but without the clause convergence is slower, the
/// Delta*#C argument of Lemma 4 no longer protects the rounds, and the
/// silent output stops being the unique greedy-by-color MIS.

#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "runtime/daemon.hpp"
#include "runtime/quiescence.hpp"
#include "verify/enumerate.hpp"

int main() {
  using namespace sss;
  using namespace sss::bench;

  print_banner("E16: ablating Fig 8's promote-on-higher-color clause");
  TextTable table({"graph", "variant", "runs", "silent", "rounds(med)",
                   "rounds(max)", "Lemma4 bound", "within bound"});
  const MisProblem problem;
  for (const Graph& g : experiment_graphs()) {
    const Coloring colors = greedy_coloring(g);
    for (const bool boost : {true, false}) {
      const MisProtocol protocol(g, colors, boost);
      BatchItem item;  // default daemons and seeds
      item.label = g.name();
      item.graph = &g;
      item.protocol = &protocol;
      item.problem = &problem;
      item.run.max_steps = 6'000'000;
      const SweepSummary s =
          run_batch({item}, BatchOptions{}).summaries.front();
      const std::int64_t bound =
          mis_round_bound(g.max_degree(), protocol.num_colors());
      table.row()
          .add(g.name())
          .add(boost ? "Fig 8" : "no-boost")
          .add(s.runs)
          .add(s.silent_runs)
          .add(s.rounds_to_silence.median, 1)
          .add(static_cast<std::int64_t>(s.max_rounds_to_silence))
          .add(bound)
          .add(static_cast<std::int64_t>(s.max_rounds_to_silence) <= bound);
    }
  }
  std::printf("%s\n", table.str().c_str());
  print_note("both variants stabilize to a maximal independent set; the "
             "clause is what makes Lemma 4's induction run, and without "
             "it the measured worst case can exceed Delta*#C.");

  print_banner("E16b: the clause also pins the silent output");
  const Graph g = path(4);
  const Coloring colors = greedy_coloring(g);
  TextTable outputs({"variant", "distinct silent S-outputs (exhaustive)"});
  for (const bool boost : {true, false}) {
    const MisProtocol protocol(g, colors, boost);
    std::set<std::vector<Value>> silent_outputs;
    for_each_configuration(g, protocol, 1u << 16,
                           [&](const Configuration& c) {
                             if (!is_comm_quiescent(g, protocol, c)) return;
                             std::vector<Value> s_state;
                             for (ProcessId p = 0; p < g.num_vertices(); ++p) {
                               s_state.push_back(
                                   c.comm(p, MisProtocol::kStateVar));
                             }
                             silent_outputs.insert(std::move(s_state));
                           });
    outputs.row()
        .add(boost ? "Fig 8" : "no-boost")
        .add(static_cast<std::int64_t>(silent_outputs.size()));
  }
  std::printf("%s\n", outputs.str().c_str());
  print_note("Fig 8 converges to exactly one S-output on a fixed coloring "
             "(the greedy MIS by color); the ablated variant accepts any "
             "maximal independent set as a silent output.");
  return 0;
}
