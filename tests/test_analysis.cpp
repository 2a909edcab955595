/// Tests for single-sweep batches (one BatchItem through run_batch).

#include <gtest/gtest.h>

#include "analysis/batch.hpp"
#include "core/coloring_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "graph/builders.hpp"
#include "support/require.hpp"

namespace sss {
namespace {

/// The item sweeping `protocol` on `g` with the default daemons and seeds.
BatchItem item_for(const Graph& g, const Protocol& protocol,
                   const Problem* problem) {
  BatchItem item;
  item.label = g.name();
  item.graph = &g;
  item.protocol = &protocol;
  item.problem = problem;
  return item;
}

/// One (graph, protocol) sweep: the one-item batch plan.
SweepSummary sweep(const BatchItem& item) {
  return run_batch({item}, BatchOptions{}).summaries.front();
}

TEST(Sweep, DeterministicForSameOptions) {
  const Graph g = cycle(8);
  const ColoringProtocol protocol(g);
  const ColoringProblem problem;
  BatchItem item = item_for(g, protocol, &problem);
  item.seeds_per_daemon = 3;
  const SweepSummary a = sweep(item);
  const SweepSummary b = sweep(item);
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
  BatchItem item = item_for(g, protocol, &problem);
  item.daemons = {"distributed", "enumerator"};
  item.seeds_per_daemon = 4;
  const SweepSummary summary = sweep(item);
  EXPECT_EQ(summary.runs, 8);
  EXPECT_EQ(summary.silent_runs, 8);
  EXPECT_EQ(summary.k_measured, 1);  // 1-efficiency across the whole sweep
  EXPECT_EQ(summary.rounds_to_legitimate.count, 8u);
  EXPECT_GT(summary.mean_total_reads, 0.0);
}

TEST(Sweep, DifferentSeedsChangeTrajectories) {
  const Graph g = cycle(8);
  const ColoringProtocol protocol(g);
  BatchItem a = item_for(g, protocol, nullptr);
  a.base_seed = 1;
  a.daemons = {"distributed"};
  a.seeds_per_daemon = 5;
  BatchItem b = a;
  b.base_seed = 777;
  const SweepSummary sa = sweep(a);
  const SweepSummary sb = sweep(b);
  // Same protocol, same graph: both silent, but trajectories (and hence
  // step counts) differ with overwhelming probability.
  EXPECT_EQ(sa.silent_runs, sb.silent_runs);
  EXPECT_NE(sa.steps_to_silence.mean, sb.steps_to_silence.mean);
}

TEST(Sweep, RejectsEmptyPlans) {
  const Graph g = path(4);
  const ColoringProtocol protocol(g);
  BatchItem item = item_for(g, protocol, nullptr);
  item.daemons = {};
  EXPECT_THROW(sweep(item), PreconditionError);
}

TEST(Sweep, MisBoundHoldsAcrossTheSweep) {
  const Graph g = grid(3, 3);
  const MisProtocol protocol(g, greedy_coloring(g));
  const MisProblem problem;
  BatchItem item = item_for(g, protocol, &problem);
  item.seeds_per_daemon = 3;
  const SweepSummary summary = sweep(item);
  EXPECT_EQ(summary.silent_runs, summary.runs);
  EXPECT_LE(summary.max_rounds_to_silence,
            static_cast<std::uint64_t>(g.max_degree()) *
                static_cast<std::uint64_t>(protocol.num_colors()));
}

}  // namespace
}  // namespace sss
