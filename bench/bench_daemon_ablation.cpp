/// E11 — scheduler ablation.
///
/// The paper assumes one adversary class (distributed fair daemons); this
/// table probes each protocol against six members of that class. Claims
/// must hold under all of them — convergence does, and the spread in
/// rounds shows how much the adversary matters in practice.
///
/// All 18 (protocol x daemon) sweeps run as one batch plan
/// (analysis/batch.hpp); emits BENCH_daemon_ablation.json.

#include <cstdio>

#include "analysis/batch.hpp"
#include "bench_common.hpp"
#include "core/coloring_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "runtime/daemon.hpp"
#include "support/bench_json.hpp"

int main() {
  using namespace sss;
  using namespace sss::bench;

  print_banner("E11: daemon ablation (rounds to silence, med over 8 seeds)");
  const Graph g = grid(5, 5);
  print_note("graph: " + g.name() + " (" + graph_stats(g) + ")");

  const Coloring colors = greedy_coloring(g);
  const ColoringProtocol coloring(g);
  const MisProtocol mis(g, colors);
  const MatchingProtocol matching(g, colors);
  const std::vector<std::pair<std::string, const Protocol*>> protocols = {
      {"COLORING", &coloring}, {"MIS", &mis}, {"MATCHING", &matching}};

  // One batch item per (daemon, protocol); daemon-major so the reduction
  // below walks the plan in table order.
  std::vector<BatchItem> plan;
  for (const std::string& daemon : daemon_names()) {
    for (const auto& [protocol_name, protocol] : protocols) {
      BatchItem item;
      item.label = daemon + "/" + protocol_name;
      item.graph = &g;
      item.protocol = protocol;
      item.daemons = {daemon};
      item.seeds_per_daemon = 8;
      item.run.max_steps = 6'000'000;
      plan.push_back(std::move(item));
    }
  }
  const BatchResult result = run_batch(plan, BatchOptions{});

  TextTable table({"daemon", "COLORING med", "COLORING max", "MIS med",
                   "MIS max", "MATCHING med", "MATCHING max", "all silent"});
  BenchJsonWriter json("daemon_ablation");
  std::size_t next = 0;
  for (const std::string& daemon : daemon_names()) {
    const SweepSummary& c = result.summaries[next++];
    const SweepSummary& m = result.summaries[next++];
    const SweepSummary& t = result.summaries[next++];
    const bool all_silent = c.silent_runs == c.runs &&
                            m.silent_runs == m.runs &&
                            t.silent_runs == t.runs;
    table.row()
        .add(daemon)
        .add(c.rounds_to_silence.median, 1)
        .add(static_cast<std::int64_t>(c.max_rounds_to_silence))
        .add(m.rounds_to_silence.median, 1)
        .add(static_cast<std::int64_t>(m.max_rounds_to_silence))
        .add(t.rounds_to_silence.median, 1)
        .add(static_cast<std::int64_t>(t.max_rounds_to_silence))
        .add(all_silent);
    const SweepSummary* per_protocol[] = {&c, &m, &t};
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const SweepSummary& s = *per_protocol[i];
      json.record()
          .field("daemon", daemon)
          .field("protocol", protocols[i].first)
          .field("runs", s.runs)
          .field("silent_runs", s.silent_runs)
          .field("rounds_to_silence_median", s.rounds_to_silence.median)
          .field("rounds_to_silence_max",
                 static_cast<std::int64_t>(s.max_rounds_to_silence));
    }
  }
  std::printf("%s\n", table.str().c_str());
  print_note("paper claim check: silence under every fair daemon; the "
             "bounds of Lemmas 4 and 9 are daemon-independent.");
  std::fflush(stdout);
  json.write();
  return 0;
}
