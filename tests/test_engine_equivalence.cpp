/// Differential tests for the incremental engine rewrite.
///
/// `Engine` replaced full per-step scans with dirty queues, incremental
/// counters, and scratch arenas; `ReferenceEngine` preserves the original
/// full-scan implementation. These tests drive both from identical seeds
/// and assert the observable semantics never diverge:
///  * step-for-step: configurations, StepInfo, round counts, read metrics,
///    and enabledness probes across all six daemons x seeds x the graph
///    menagerie, for deterministic and randomized protocols alike;
///  * run-level: full RunStats equality, exercising the cached quiescence
///    certification against the original O(n*Delta)-per-checkpoint check;
///  * sweep-level: a one-item run_batch sweep is identical at 1 and N
///    threads.

#include <gtest/gtest.h>

#include <memory>

#include "analysis/batch.hpp"
#include "core/coloring_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
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

TEST(EngineEquivalence, RunStatsMatchIncludingQuiescenceCertification) {
  const ColoringProblem problem;
  for (const auto& named : testing::sweep_graphs()) {
    const ColoringProtocol protocol(named.graph);
    for (const std::string& daemon_name : daemon_names()) {
      const std::uint64_t seed = 900 + named.graph.num_vertices();
      Engine fast(named.graph, protocol, make_daemon(daemon_name), seed);
      ReferenceEngine oracle(named.graph, protocol, make_daemon(daemon_name),
                             seed);
      fast.randomize_state();
      oracle.randomize_state();
      RunOptions options;
      options.max_steps = 30'000;
      options.legitimacy = problem.predicate();
      const RunStats a = fast.run(options);
      const RunStats b = oracle.run(options);
      expect_same_stats(a, b, named.label + "/" + daemon_name);
      EXPECT_TRUE(fast.config() == oracle.config());
      // A second run from the silent point must certify instantly on both.
      const RunStats a2 = fast.run(options);
      const RunStats b2 = oracle.run(options);
      expect_same_stats(a2, b2, named.label + "/" + daemon_name + "/rerun");
    }
  }
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
