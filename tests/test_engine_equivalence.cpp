/// Differential tests for the incremental engine rewrite.
///
/// `Engine` replaced full per-step scans with dirty queues, incremental
/// counters, and scratch arenas; `ReferenceEngine` preserves the original
/// full-scan implementation. These tests drive both from identical seeds
/// and assert the observable semantics never diverge:
///  * step-for-step: configurations, StepInfo, round counts, read metrics,
///    and enabledness probes across all six daemons x seeds x the graph
///    menagerie, for deterministic and randomized protocols alike;
///  * run-level: full RunStats equality over every registry protocol and
///    its generic-efficiency composition, at patience 1 and the default,
///    across a mid-run corruption and a rerun from silence, exercising the
///    lazy quiescence certification against the original
///    O(n*Delta)-per-checkpoint check;
///  * sweep-level: a one-item run_batch sweep is identical at 1 and N
///    threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "core/coloring_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problem_registry.hpp"
#include "core/problems.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "graph/coloring.hpp"
#include "runtime/engine.hpp"
#include "runtime/reference_engine.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

/// Drives both engines `steps` steps in lockstep, asserting equivalence of
/// everything observable after every step.
void expect_lockstep(const Graph& g, const Protocol& protocol,
                     const std::string& daemon_name, std::uint64_t seed,
                     int steps) {
  Engine fast(g, protocol, make_daemon(daemon_name), seed);
  ReferenceEngine oracle(g, protocol, make_daemon(daemon_name), seed);
  fast.randomize_state();
  oracle.randomize_state();
  ASSERT_TRUE(fast.config() == oracle.config());

  for (int s = 0; s < steps; ++s) {
    const Engine::StepInfo a = fast.step();
    const Engine::StepInfo b = oracle.step();
    ASSERT_EQ(a.selected, b.selected) << daemon_name << " step " << s;
    ASSERT_EQ(a.fired, b.fired) << daemon_name << " step " << s;
    ASSERT_EQ(a.comm_changed, b.comm_changed) << daemon_name << " step " << s;
    ASSERT_TRUE(fast.config() == oracle.config())
        << daemon_name << " diverged at step " << s;
    ASSERT_EQ(fast.rounds(), oracle.rounds()) << daemon_name << " step " << s;
    ASSERT_EQ(fast.rounds_inclusive(), oracle.rounds_inclusive());
    ASSERT_EQ(fast.read_counter().total_reads(),
              oracle.read_counter().total_reads());
    ASSERT_EQ(fast.read_counter().total_bits(),
              oracle.read_counter().total_bits());
    ASSERT_EQ(fast.read_counter().max_reads_per_process_step(),
              oracle.read_counter().max_reads_per_process_step());
    ASSERT_EQ(fast.read_counter().max_bits_per_process_step(),
              oracle.read_counter().max_bits_per_process_step());
    if (s % 8 == 0) {
      ASSERT_EQ(fast.num_enabled(), oracle.num_enabled());
      for (ProcessId p = 0; p < g.num_vertices(); ++p) {
        ASSERT_EQ(fast.is_enabled(p), oracle.is_enabled(p))
            << daemon_name << " enabledness of " << p << " at step " << s;
      }
    }
  }
}

std::unique_ptr<Protocol> make_protocol(const std::string& kind,
                                        const Graph& g) {
  if (kind == "coloring") return std::make_unique<ColoringProtocol>(g);
  if (kind == "mis") return std::make_unique<MisProtocol>(g, greedy_coloring(g));
  return std::make_unique<MatchingProtocol>(g, greedy_coloring(g));
}

TEST(EngineEquivalence, LockstepAcrossDaemonsSeedsGraphsProtocols) {
  for (const auto& named : testing::sweep_graphs()) {
    for (const std::string kind : {"coloring", "mis", "matching"}) {
      const auto protocol = make_protocol(kind, named.graph);
      for (const std::string& daemon_name : daemon_names()) {
        for (std::uint64_t seed : {11u, 227u}) {
          expect_lockstep(named.graph, *protocol, daemon_name, seed, 160);
        }
      }
    }
  }
}

void expect_same_stats(const RunStats& a, const RunStats& b,
                       const std::string& context) {
  EXPECT_EQ(a.steps, b.steps) << context;
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.silent, b.silent) << context;
  EXPECT_EQ(a.steps_to_silence, b.steps_to_silence) << context;
  EXPECT_EQ(a.rounds_to_silence, b.rounds_to_silence) << context;
  EXPECT_EQ(a.reached_legitimate, b.reached_legitimate) << context;
  EXPECT_EQ(a.steps_to_legitimate, b.steps_to_legitimate) << context;
  EXPECT_EQ(a.rounds_to_legitimate, b.rounds_to_legitimate) << context;
  EXPECT_EQ(a.total_reads, b.total_reads) << context;
  EXPECT_EQ(a.total_read_bits, b.total_read_bits) << context;
  EXPECT_EQ(a.max_reads_per_process_step, b.max_reads_per_process_step)
      << context;
  EXPECT_EQ(a.max_bits_per_process_step, b.max_bits_per_process_step)
      << context;
}

/// One run sequence on both engines, compared field for field after each
/// run: a partial run that stops short of silence, a mid-run corruption
/// of two victims, a run to silence, and a rerun from the silent point.
/// Patience 1 puts a quiescence checkpoint after every comm-quiet step,
/// so the lazy cache's early return and partial drain are exercised at
/// every such step against the oracle's full check.
void expect_run_sequence_matches(const Graph& g, const Protocol& protocol,
                                 const LegitimacyPredicate& legitimacy,
                                 const std::string& daemon_name,
                                 std::uint64_t seed, std::uint64_t patience,
                                 const std::string& context) {
  Engine fast(g, protocol, make_daemon(daemon_name), seed);
  ReferenceEngine oracle(g, protocol, make_daemon(daemon_name), seed);
  fast.randomize_state();
  oracle.randomize_state();
  RunOptions options;
  options.quiescence_patience = patience;
  options.legitimacy = legitimacy;
  options.max_steps = 7;
  expect_same_stats(fast.run(options), oracle.run(options),
                    context + "/partial");
  Rng fast_faults(seed ^ 0xc0ffeeULL);
  Rng oracle_faults(seed ^ 0xc0ffeeULL);
  const std::vector<ProcessId> victims = {0, g.num_vertices() - 1};
  fast.apply_external_corruption(victims, fast_faults);
  oracle.apply_external_corruption(victims, oracle_faults);
  options.max_steps = 30'000;
  const RunStats a = fast.run(options);
  expect_same_stats(a, oracle.run(options), context);
  EXPECT_TRUE(fast.config() == oracle.config()) << context;
  // A second run from the silent point must certify instantly on both.
  const RunStats a2 = fast.run(options);
  expect_same_stats(a2, oracle.run(options), context + "/rerun");
  if (a.silent) EXPECT_EQ(a2.steps, 0u) << context;
}

TEST(EngineEquivalence, RunStatsMatchIncludingQuiescenceCertification) {
  const ColoringProblem problem;
  for (const auto& named : testing::sweep_graphs()) {
    const ColoringProtocol protocol(named.graph);
    for (const std::string& daemon_name : daemon_names()) {
      for (const std::uint64_t patience : {1u, 0u}) {
        expect_run_sequence_matches(
            named.graph, protocol, problem.predicate(), daemon_name,
            900 + named.graph.num_vertices(), patience,
            named.label + "/" + daemon_name + "/patience " +
                std::to_string(patience));
      }
    }
  }
  // Every registry protocol and its generic-efficiency composition, under
  // each daemon its entry allows.
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const std::vector<Graph> graphs = {petersen(), grid_of_clusters(2, 2, 4)};
  int compared = 0;
  for (const std::string& name : registry.protocol_names()) {
    for (const ProtocolSelection& selection :
         {ProtocolSelection::base(name),
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base(name))}) {
      const ProtocolRegistry::ComposedInfo info = registry.resolve(selection);
      const std::unique_ptr<Problem> problem =
          ProblemRegistry::instance().make(info.problem);
      for (const Graph& g : graphs) {
        const std::unique_ptr<Protocol> protocol = registry.make(selection, g);
        for (const std::string& daemon_name : daemon_names()) {
          if (!info.daemons.empty() &&
              std::find(info.daemons.begin(), info.daemons.end(),
                        daemon_name) == info.daemons.end()) {
            continue;
          }
          for (const std::uint64_t patience : {1u, 0u}) {
            expect_run_sequence_matches(
                g, *protocol, problem->predicate(), daemon_name,
                700 + static_cast<std::uint64_t>(compared), patience,
                info.label + "/" + g.name() + "/" + daemon_name +
                    "/patience " + std::to_string(patience));
            if (HasFailure()) return;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

void expect_same_summary(const Summary& a, const Summary& b,
                         const std::string& context) {
  EXPECT_EQ(a.count, b.count) << context;
  EXPECT_EQ(a.min, b.min) << context;
  EXPECT_EQ(a.max, b.max) << context;
  EXPECT_EQ(a.mean, b.mean) << context;
  EXPECT_EQ(a.median, b.median) << context;
  EXPECT_EQ(a.stddev, b.stddev) << context;
  EXPECT_EQ(a.p90, b.p90) << context;
}

TEST(SweepEquivalence, ThreadCountDoesNotChangeResults) {
  const Graph g = grid(4, 5);
  const MisProtocol protocol(g, greedy_coloring(g));
  const MisProblem problem;
  BatchItem item;
  item.label = "grid";
  item.graph = &g;
  item.protocol = &protocol;
  item.problem = &problem;
  item.daemons = {"distributed", "central-rr", "synchronous", "adversarial"};
  item.seeds_per_daemon = 3;
  item.run.max_steps = 20'000;

  const std::vector<BatchItem> plan = {item};
  BatchOptions batch;
  batch.threads = 1;
  const SweepSummary serial = run_batch(plan, batch).summaries.front();
  for (int threads : {2, 4, 8}) {
    batch.threads = threads;
    const SweepSummary parallel = run_batch(plan, batch).summaries.front();
    const std::string context = "threads=" + std::to_string(threads);
    EXPECT_EQ(serial.runs, parallel.runs) << context;
    EXPECT_EQ(serial.silent_runs, parallel.silent_runs) << context;
    EXPECT_EQ(serial.max_rounds_to_silence, parallel.max_rounds_to_silence)
        << context;
    EXPECT_EQ(serial.max_steps_to_silence, parallel.max_steps_to_silence)
        << context;
    EXPECT_EQ(serial.k_measured, parallel.k_measured) << context;
    EXPECT_EQ(serial.bits_measured, parallel.bits_measured) << context;
    EXPECT_EQ(serial.mean_total_reads, parallel.mean_total_reads) << context;
    EXPECT_EQ(serial.mean_total_bits, parallel.mean_total_bits) << context;
    expect_same_summary(serial.rounds_to_silence, parallel.rounds_to_silence,
                        context);
    expect_same_summary(serial.steps_to_silence, parallel.steps_to_silence,
                        context);
    expect_same_summary(serial.rounds_to_legitimate,
                        parallel.rounds_to_legitimate, context);
  }
}

}  // namespace
}  // namespace sss
