/// Tests for the engine's opt-in frozen-process exclusion
/// (Engine::set_exclude_frozen): classification correctness, equivalence
/// against ReferenceEngine, round-accounting liveness, and the daemon-
/// facing exclusion itself.
///
/// The semantic claim under test: a frozen process's only enabled action
/// is a verified self-loop, so excluding it from the daemon's sampled set
/// is indistinguishable (configuration-wise) from selecting it. Under the
/// synchronous daemon with a deterministic protocol the claim is exact —
/// Engine with exclusion on must track ReferenceEngine (which never
/// excludes) configuration-for-configuration, because the only selection
/// difference is dropped self-loops and neither daemon consumes rng.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/coloring_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "graph/builders.hpp"
#include "graph/coloring.hpp"
#include "runtime/engine.hpp"
#include "runtime/reference_engine.hpp"
#include "runtime/trace.hpp"

namespace sss {
namespace {

/// Rounds by their definition, observed from outside the engine: a
/// round completes once every process has been selected, or seen
/// disabled or frozen before some step of the round. Under frozen
/// exclusion the engine derives its covering from `active_` (a round
/// restarts as its word complement), and this is the check that the
/// derivation counts the same rounds.
class NaiveRounds {
 public:
  explicit NaiveRounds(int n) : covered_(static_cast<std::size_t>(n), 0) {}

  /// Call before engine.step().
  void before_step(Engine& engine) {
    for (ProcessId p = 0; p < engine.graph().num_vertices(); ++p) {
      if (!engine.is_enabled(p) || engine.is_frozen(p)) {
        covered_[static_cast<std::size_t>(p)] = 1;
      }
    }
  }
  /// Call after engine.step().
  void after_step(const Engine& engine) {
    for (const ProcessId p : engine.last_selection()) {
      covered_[static_cast<std::size_t>(p)] = 1;
    }
    if (std::find(covered_.begin(), covered_.end(), 0) == covered_.end()) {
      ++rounds_;
      std::fill(covered_.begin(), covered_.end(), 0);
    }
  }
  std::uint64_t rounds() const { return rounds_; }

 private:
  std::vector<std::uint8_t> covered_;
  std::uint64_t rounds_ = 0;
};

TEST(FrozenFlag, SynchronousLockstepMatchesReferenceEngine) {
  // Deterministic protocols under the synchronous daemon: dropping frozen
  // self-loops from the selection must leave every configuration
  // bit-identical to the reference (non-excluding) engine. Frozen
  // exclusion pins the one-range scalar refresh and per-process execution
  // whatever the engine's worker count and sweep mode, so a pool and
  // force_scalar must change nothing; grid(12, 12) spans three 64-aligned
  // worker ranges. central-rr and distributed select differently once
  // frozen processes drop out, so there the reference is the first cell
  // of the (workers x mode) grid; under every daemon the rounds must
  // equal the naive count step by step.
  const std::vector<Graph> graphs = {star(7), grid(3, 4), caterpillar(4, 3),
                                     grid(12, 12)};
  for (const Graph& g : graphs) {
    for (const bool use_matching : {false, true}) {
      const Coloring colors = greedy_coloring(g);
      std::unique_ptr<Protocol> protocol;
      if (use_matching) {
        protocol = std::make_unique<MatchingProtocol>(g, colors);
      } else {
        protocol = std::make_unique<MisProtocol>(g, colors);
      }
      for (const std::string daemon :
           {"synchronous", "central-rr", "distributed"}) {
        const bool synchronous = daemon == "synchronous";
        std::vector<Configuration> first_cell;
        for (const int workers : {1, 3}) {
          for (const SweepMode mode :
               {SweepMode::kAuto, SweepMode::kForceScalar}) {
            const std::string where =
                g.name() + (use_matching ? " MATCHING " : " MIS ") + daemon +
                " workers " + std::to_string(workers) + " mode " +
                sweep_mode_name(mode);
            Engine engine(g, *protocol, make_daemon(daemon), 99);
            engine.set_exclude_frozen(true);
            engine.set_parallel_threads(workers);
            engine.set_sweep_mode(mode);
            ReferenceEngine reference(g, *protocol, make_daemon(daemon), 99);
            engine.randomize_state();
            reference.set_config(engine.config());
            NaiveRounds naive(g.num_vertices());
            const bool record = first_cell.empty();
            for (int step = 0; step < 400; ++step) {
              naive.before_step(engine);
              engine.step();
              naive.after_step(engine);
              ASSERT_EQ(engine.rounds(), naive.rounds())
                  << where << " step " << step;
              if (synchronous) {
                reference.step();
                ASSERT_TRUE(engine.config() == reference.config())
                    << where << " step " << step;
                ASSERT_EQ(engine.rounds(), reference.rounds())
                    << where << " step " << step;
              } else if (record) {
                first_cell.push_back(engine.config());
              } else {
                ASSERT_TRUE(engine.config() ==
                            first_cell[static_cast<std::size_t>(step)])
                    << where << " step " << step;
              }
            }
          }
        }
      }
    }
  }
}

TEST(FrozenFlag, ClassifiesSilentStarLeavesAsFrozen) {
  // After a star stabilizes under COLORING, every leaf's only enabled
  // action is the degree-1 pointer rotation cur <- (cur mod 1) + 1 — a
  // verified self-loop. The hub keeps genuinely rotating.
  const Graph g = star(8);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 5);
  engine.set_exclude_frozen(true);
  engine.randomize_state();
  const RunStats stats = engine.run(RunOptions{});
  ASSERT_TRUE(stats.silent);
  for (ProcessId leaf = 1; leaf < g.num_vertices(); ++leaf) {
    EXPECT_TRUE(engine.is_enabled(leaf));
    EXPECT_TRUE(engine.is_frozen(leaf)) << leaf;
  }
  EXPECT_TRUE(engine.is_enabled(0));
  EXPECT_FALSE(engine.is_frozen(0));  // hub: cur genuinely advances
}

TEST(FrozenFlag, ExcludedProcessesAreNeverSelected) {
  const Graph g = star(8);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 5);
  engine.set_exclude_frozen(true);
  engine.randomize_state();
  ASSERT_TRUE(engine.run(RunOptions{}).silent);

  TraceRecorder trace;
  engine.set_trace(&trace);
  const std::uint64_t rounds_before = engine.rounds();
  for (int i = 0; i < 64; ++i) engine.step();
  engine.set_trace(nullptr);
  for (const TraceEvent& event : trace.events()) {
    ASSERT_EQ(event.selected.size(), 1u);
    EXPECT_EQ(event.selected.front(), 0);  // only the hub is sampled
  }
  // Frozen processes count as covered, so rounds must keep completing —
  // with 8 of 9 processes never selected a round would otherwise stall.
  EXPECT_GT(engine.rounds(), rounds_before);
}

TEST(FrozenFlag, RandomizedRunsStillConvergeAndStayCorrect) {
  // COLORING + distributed daemon: exclusion changes the daemon's coin
  // stream (the sampled set shrinks), so trajectories differ from the
  // non-excluding run — but stabilization and the output predicate must
  // be unaffected.
  const ColoringProblem problem;
  for (const Graph& g : {star(10), caterpillar(5, 2), grid(4, 4)}) {
    const ColoringProtocol protocol(g);
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      Engine engine(g, protocol, make_distributed_random_daemon(), seed);
      engine.set_exclude_frozen(true);
      engine.randomize_state();
      RunOptions options;
      options.max_steps = 2'000'000;
      const RunStats stats = engine.run(options);
      ASSERT_TRUE(stats.silent) << g.name() << " seed " << seed;
      EXPECT_TRUE(problem.holds(g, engine.config()))
          << g.name() << " seed " << seed;
    }
  }
}

TEST(FrozenFlag, UniqueFixedPointMatchesWithAndWithoutExclusion) {
  // MIS with the promote disjunct stabilizes to the unique greedy-by-color
  // MIS, so even under a randomized daemon the frozen-on and frozen-off
  // runs must land on the same silent configuration.
  const Graph g = caterpillar(5, 2);
  const Coloring colors = greedy_coloring(g);
  const MisProtocol protocol(g, colors);

  Engine plain(g, protocol, make_distributed_random_daemon(), 17);
  plain.randomize_state();
  ASSERT_TRUE(plain.run(RunOptions{}).silent);

  Engine frozen(g, protocol, make_distributed_random_daemon(), 17);
  frozen.set_exclude_frozen(true);
  frozen.randomize_state();
  ASSERT_TRUE(frozen.run(RunOptions{}).silent);

  EXPECT_EQ(extract_mis(g, plain.config()), extract_mis(g, frozen.config()));
}

TEST(FrozenFlag, OffByDefaultAndInert) {
  const Graph g = star(6);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 3);
  EXPECT_FALSE(engine.exclude_frozen());
  engine.randomize_state();
  ASSERT_TRUE(engine.run(RunOptions{}).silent);
  // Exclusion off: is_frozen reports false even for self-loop leaves.
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    EXPECT_FALSE(engine.is_frozen(p));
  }
}

TEST(FrozenFlag, ToggleMidRunReclassifiesEverything) {
  const Graph g = star(6);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 3);
  engine.randomize_state();
  ASSERT_TRUE(engine.run(RunOptions{}).silent);
  engine.set_exclude_frozen(true);
  EXPECT_TRUE(engine.is_frozen(1));
  engine.set_exclude_frozen(false);
  EXPECT_FALSE(engine.is_frozen(1));
}

}  // namespace
}  // namespace sss
