/// Tests for single-sweep batches (one make_batch_item through run_batch)
/// and report formatting shared by the bench harness.

#include <gtest/gtest.h>

#include "analysis/batch.hpp"
#include "analysis/experiment.hpp"
#include "analysis/report.hpp"
#include "core/coloring_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "graph/builders.hpp"
#include "support/require.hpp"

namespace sss {
namespace {

/// One (graph, protocol) sweep: the one-item batch plan.
SweepSummary sweep(const Graph& g, const Protocol& protocol,
                   const Problem* problem, const SweepOptions& options) {
  return run_batch({make_batch_item(g.name(), g, protocol, problem, options)},
                   BatchOptions{})
      .summaries.front();
}

TEST(Sweep, DeterministicForSameOptions) {
  const Graph g = cycle(8);
  const ColoringProtocol protocol(g);
  const ColoringProblem problem;
  SweepOptions options;
  options.seeds_per_daemon = 3;
  const SweepSummary a = sweep(g, protocol, &problem, options);
  const SweepSummary b = sweep(g, protocol, &problem, options);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.silent_runs, b.silent_runs);
  EXPECT_EQ(a.max_rounds_to_silence, b.max_rounds_to_silence);
  EXPECT_DOUBLE_EQ(a.rounds_to_silence.mean, b.rounds_to_silence.mean);
  EXPECT_DOUBLE_EQ(a.mean_total_reads, b.mean_total_reads);
}

TEST(Sweep, CountsRunsAndCertifiesEfficiency) {
  const Graph g = path(6);
  const ColoringProtocol protocol(g);
  const ColoringProblem problem;
  SweepOptions options;
  options.daemons = {"distributed", "enumerator"};
  options.seeds_per_daemon = 4;
  const SweepSummary summary = sweep(g, protocol, &problem, options);
  EXPECT_EQ(summary.runs, 8);
  EXPECT_EQ(summary.silent_runs, 8);
  EXPECT_EQ(summary.k_measured, 1);  // 1-efficiency across the whole sweep
  EXPECT_EQ(summary.rounds_to_legitimate.count, 8u);
  EXPECT_GT(summary.mean_total_reads, 0.0);
}

TEST(Sweep, DifferentSeedsChangeTrajectories) {
  const Graph g = cycle(8);
  const ColoringProtocol protocol(g);
  SweepOptions a;
  a.base_seed = 1;
  a.daemons = {"distributed"};
  a.seeds_per_daemon = 5;
  SweepOptions b = a;
  b.base_seed = 777;
  const SweepSummary sa = sweep(g, protocol, nullptr, a);
  const SweepSummary sb = sweep(g, protocol, nullptr, b);
  // Same protocol, same graph: both silent, but trajectories (and hence
  // step counts) differ with overwhelming probability.
  EXPECT_EQ(sa.silent_runs, sb.silent_runs);
  EXPECT_NE(sa.steps_to_silence.mean, sb.steps_to_silence.mean);
}

TEST(Sweep, RejectsEmptyPlans) {
  const Graph g = path(4);
  const ColoringProtocol protocol(g);
  SweepOptions options;
  options.daemons = {};
  EXPECT_THROW(sweep(g, protocol, nullptr, options), PreconditionError);
}

TEST(Sweep, MisBoundHoldsAcrossTheSweep) {
  const Graph g = grid(3, 3);
  const MisProtocol protocol(g, greedy_coloring(g));
  const MisProblem problem;
  SweepOptions options;
  options.seeds_per_daemon = 3;
  const SweepSummary summary = sweep(g, protocol, &problem, options);
  EXPECT_EQ(summary.silent_runs, summary.runs);
  EXPECT_LE(summary.max_rounds_to_silence,
            static_cast<std::uint64_t>(g.max_degree()) *
                static_cast<std::uint64_t>(protocol.num_colors()));
}

TEST(Report, FormatVsBound) {
  EXPECT_EQ(format_vs_bound(5.0, 10.0), "5.0/10.0 (50.0%)");
  EXPECT_EQ(format_vs_bound(3.0, 0.0), "3.0/0.0");
}

}  // namespace
}  // namespace sss
