/// Tests for the sharded multi-graph batch runner (analysis/batch.hpp).
///
/// The contract under test: a batch plan's results are bit-identical at
/// every thread count, every item's summary equals the serial
/// single-sweep result it replaces, and trial seeds derive from trial
/// indices alone — never from scheduling.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/batch.hpp"
#include "core/coloring_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "graph/coloring.hpp"
#include "runtime/engine.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

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

void expect_same_sweep(const SweepSummary& a, const SweepSummary& b,
                       const std::string& context) {
  EXPECT_EQ(a.runs, b.runs) << context;
  EXPECT_EQ(a.silent_runs, b.silent_runs) << context;
  EXPECT_EQ(a.max_rounds_to_silence, b.max_rounds_to_silence) << context;
  EXPECT_EQ(a.max_steps_to_silence, b.max_steps_to_silence) << context;
  EXPECT_EQ(a.k_measured, b.k_measured) << context;
  EXPECT_EQ(a.bits_measured, b.bits_measured) << context;
  EXPECT_EQ(a.mean_total_reads, b.mean_total_reads) << context;
  EXPECT_EQ(a.mean_total_bits, b.mean_total_bits) << context;
  expect_same_summary(a.rounds_to_silence, b.rounds_to_silence, context);
  expect_same_summary(a.steps_to_silence, b.steps_to_silence, context);
  expect_same_summary(a.rounds_to_legitimate, b.rounds_to_legitimate, context);
}

/// A small but genuinely multi-graph plan: three topologies, three
/// protocols, mixed daemons — enough trials that scheduling differences
/// would surface as result differences if determinism were broken.
std::vector<BatchItem> build_plan(BatchStore& store, const Problem* problem) {
  std::vector<BatchItem> items;
  const std::vector<std::string> daemons = {"distributed", "central-random",
                                            "central-rr"};
  int which = 0;
  for (const auto& named : testing::sweep_graphs()) {
    if (which >= 3) break;
    const Graph& g = store.add(named.graph);
    const Protocol* protocol = nullptr;
    if (which == 0) {
      protocol = &store.emplace_protocol<ColoringProtocol>(g);
    } else if (which == 1) {
      protocol = &store.emplace_protocol<MisProtocol>(g, greedy_coloring(g));
    } else {
      protocol =
          &store.emplace_protocol<MatchingProtocol>(g, greedy_coloring(g));
    }
    BatchItem item;
    item.label = named.label;
    item.graph = &g;
    item.protocol = protocol;
    item.problem = which == 0 ? problem : nullptr;
    item.daemons = daemons;
    item.seeds_per_daemon = 2;
    item.run.max_steps = 20'000;
    item.base_seed = 42 + static_cast<std::uint64_t>(which);
    items.push_back(std::move(item));
    ++which;
  }
  return items;
}

TEST(BatchRunner, BitIdenticalAcrossThreadsAndShards) {
  BatchStore store;
  const ColoringProblem problem;
  const std::vector<BatchItem> items = build_plan(store, &problem);

  BatchOptions serial;
  serial.threads = 1;
  const BatchResult reference = run_batch(items, serial);
  ASSERT_EQ(reference.summaries.size(), items.size());
  ASSERT_EQ(reference.total_trials, 3 * 3 * 2);

  // One shard per item: 4 and 16 workers outnumber the 3 shards, so
  // workers share shards from the start and steal across them.
  for (int threads : {1, 4, 16}) {
    BatchOptions options;
    options.threads = threads;
    const BatchResult result = run_batch(items, options);
    ASSERT_EQ(result.summaries.size(), reference.summaries.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      expect_same_sweep(result.summaries[i], reference.summaries[i],
                        items[i].label + " threads=" +
                            std::to_string(threads));
    }
  }
}

TEST(BatchRunner, SingleItemMatchesAcrossThreads) {
  const Graph g = grid(4, 4);
  const MisProtocol protocol(g, greedy_coloring(g));
  const MisProblem problem;
  BatchItem item;
  item.label = "grid";
  item.graph = &g;
  item.protocol = &protocol;
  item.problem = &problem;
  item.daemons = {"distributed", "synchronous", "central-random"};
  item.seeds_per_daemon = 3;
  item.run.max_steps = 20'000;
  const std::vector<BatchItem> items = {item};

  BatchOptions serial;
  serial.threads = 1;
  BatchOptions pooled;
  pooled.threads = 3;
  expect_same_sweep(run_batch(items, pooled).summaries.front(),
                    run_batch(items, serial).summaries.front(),
                    "threads=3 vs threads=1");
}

/// The seed contract, stated against raw engines: trial j of an item runs
/// an Engine seeded base_seed + 1 + j regardless of where the scheduler
/// placed it.
TEST(BatchRunner, TrialSeedsDeriveFromTrialIndicesAlone) {
  const Graph g = cycle(9);
  const ColoringProtocol protocol(g);
  BatchItem item;
  item.label = "cycle9";
  item.graph = &g;
  item.protocol = &protocol;
  item.daemons = {"central-random", "distributed"};
  item.seeds_per_daemon = 2;
  item.run.max_steps = 20'000;
  item.base_seed = 512;

  std::vector<RunStats> direct;
  for (int j = 0; j < 4; ++j) {
    Engine engine(g, protocol, make_daemon(item.daemons[j / 2]),
                  item.base_seed + 1 + static_cast<std::uint64_t>(j));
    engine.randomize_state();
    direct.push_back(engine.run(item.run));
  }
  const SweepSummary expected =
      summarize_runs(direct.data(), static_cast<int>(direct.size()));

  BatchOptions options;
  options.threads = 4;
  const BatchResult result = run_batch({item}, options);
  expect_same_sweep(result.summaries.front(), expected, "batch vs direct");
}

TEST(BatchRunner, ExtraStepsExtendTheReadMaximaWindow) {
  const Graph g = star(6);
  const ColoringProtocol protocol(g);
  BatchItem item;
  item.label = "star6";
  item.graph = &g;
  item.protocol = &protocol;
  item.daemons = {"distributed"};
  item.seeds_per_daemon = 2;
  item.run.max_steps = 100'000;
  BatchOptions options;
  options.threads = 1;

  const BatchResult plain = run_batch({item}, options);
  item.extra_steps = 400;
  const BatchResult extended = run_batch({item}, options);
  // The post-run window can only observe more, never less.
  EXPECT_GE(extended.summaries[0].k_measured, plain.summaries[0].k_measured);
  EXPECT_GE(extended.summaries[0].bits_measured,
            plain.summaries[0].bits_measured);
  // And it is deterministic.
  const BatchResult again = run_batch({item}, options);
  expect_same_sweep(again.summaries[0], extended.summaries[0], "extra rerun");
}

TEST(BatchRunner, SkipTrialExcludesRowsWithoutChangingTheRest) {
  BatchStore store;
  const ColoringProblem problem;
  const std::vector<BatchItem> items = build_plan(store, &problem);

  // Reference: every row of the full run, keyed by (item, trial).
  std::map<std::pair<int, int>, std::uint64_t> reference_seeds;
  BatchOptions full;
  full.threads = 1;
  full.on_trial = [&](const BatchTrialRow& row) {
    reference_seeds[{row.item, row.trial}] = row.engine_seed;
  };
  const BatchResult full_result = run_batch(items, full);
  ASSERT_EQ(full_result.total_trials, 18);

  // Skip a scattered third of the trials; the rows that do run must be
  // the same rows (same seeds, a subset of the keys), and the accounting
  // must split executed vs skipped exactly.
  BatchOptions partial;
  partial.threads = 4;
  partial.skip_trial = [](int item, int trial) {
    return (item + trial) % 3 == 0;
  };
  std::mutex seen_mutex;
  std::map<std::pair<int, int>, std::uint64_t> seen;
  partial.on_trial = [&](const BatchTrialRow& row) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen[{row.item, row.trial}] = row.engine_seed;
  };
  const BatchResult result = run_batch(items, partial);
  EXPECT_EQ(result.planned_trials, 18);
  EXPECT_EQ(result.total_trials + result.skipped_trials, 18);
  EXPECT_EQ(result.total_trials, static_cast<int>(seen.size()));
  EXPECT_FALSE(result.cancelled);
  for (const auto& [key, seed] : seen) {
    EXPECT_NE((key.first + key.second) % 3, 0);
    EXPECT_EQ(seed, reference_seeds.at(key));
  }
}

TEST(BatchRunner, CancelledStopsAtTrialBoundaries) {
  BatchStore store;
  const ColoringProblem problem;
  const std::vector<BatchItem> items = build_plan(store, &problem);

  // Cancel after the 4th completed trial; at threads=1 exactly 4 rows ran.
  int rows = 0;
  BatchOptions options;
  options.threads = 1;
  options.on_trial = [&rows](const BatchTrialRow&) { ++rows; };
  options.cancelled = [&rows] { return rows >= 4; };
  const BatchResult result = run_batch(items, options);
  EXPECT_EQ(rows, 4);
  EXPECT_EQ(result.total_trials, 4);
  EXPECT_EQ(result.planned_trials, 18);
  EXPECT_TRUE(result.cancelled);

  // Cancelled-from-the-start runs nothing and reduces to empty summaries.
  BatchOptions nothing;
  nothing.threads = 1;
  nothing.cancelled = [] { return true; };
  const BatchResult none = run_batch(items, nothing);
  EXPECT_EQ(none.total_trials, 0);
  EXPECT_TRUE(none.cancelled);
  ASSERT_EQ(none.summaries.size(), items.size());
  EXPECT_EQ(none.summaries[0].runs, 0);
}

TEST(BatchRunner, ValidatesPlans) {
  EXPECT_THROW(run_batch({}, BatchOptions{}), PreconditionError);

  const Graph g = path(4);
  const ColoringProtocol protocol(g);
  BatchItem item;
  item.label = "bad";
  item.graph = &g;
  item.protocol = nullptr;
  EXPECT_THROW(run_batch({item}, BatchOptions{}), PreconditionError);

  item.protocol = &protocol;
  item.daemons.clear();
  EXPECT_THROW(run_batch({item}, BatchOptions{}), PreconditionError);

  item.daemons = {"distributed"};
  item.extra_steps = -1;
  EXPECT_THROW(run_batch({item}, BatchOptions{}), PreconditionError);
}

}  // namespace
}  // namespace sss
