/// Churn runtime tests.
///
/// The lockstep suites are the safety proof ISSUE'd for the mid-run
/// corruption hook and the churn driver: `Engine::apply_external_corruption`
/// repairs its incremental caches locally (victims + neighborhoods), while
/// `ReferenceEngine` falls back to full invalidation — if the local repair
/// missed a stale entry, the engines would diverge within a step or two.
/// The driver-level suites run the whole `ChurnRunner` (schedules, victim
/// draws, recovery certification, topology re-attach) on both engine types
/// and assert the trajectories and every accumulated statistic agree,
/// topology-churn trajectories included.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "runtime/churn.hpp"
#include "runtime/engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/reference_engine.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

std::unique_ptr<Protocol> make_registry_protocol(const std::string& name,
                                                 const Graph& g) {
  return ProtocolRegistry::instance().make(name, g, {});
}

ProtocolFactory registry_factory(const std::string& name) {
  return [name](const Graph& g) {
    return ProtocolRegistry::instance().make(name, g, {});
  };
}

/// Drives both engines through interleaved step / external-corruption /
/// step sequences and asserts every observable agrees after every step.
void expect_corruption_lockstep(const Graph& g, const Protocol& protocol,
                                const std::string& daemon_name,
                                std::uint64_t seed, int steps) {
  Engine fast(g, protocol, make_daemon(daemon_name), seed);
  ReferenceEngine oracle(g, protocol, make_daemon(daemon_name), seed);
  fast.randomize_state();
  oracle.randomize_state();
  ASSERT_TRUE(fast.config() == oracle.config());

  Rng fault_fast(seed ^ 0xfa17c0deULL);
  Rng fault_oracle(seed ^ 0xfa17c0deULL);
  const int max_victims = std::min(3, g.num_vertices());

  for (int s = 0; s < steps; ++s) {
    if (s % 7 == 3) {
      const int count =
          1 + static_cast<int>(fault_fast.below(
                  static_cast<std::uint64_t>(max_victims)));
      const int count_oracle =
          1 + static_cast<int>(fault_oracle.below(
                  static_cast<std::uint64_t>(max_victims)));
      ASSERT_EQ(count, count_oracle);
      const std::vector<ProcessId> victims =
          choose_victims(g.num_vertices(), count, fault_fast);
      const std::vector<ProcessId> victims_oracle =
          choose_victims(g.num_vertices(), count_oracle, fault_oracle);
      ASSERT_EQ(victims, victims_oracle);
      fast.apply_external_corruption(victims, fault_fast);
      oracle.apply_external_corruption(victims_oracle, fault_oracle);
      ASSERT_TRUE(fast.config() == oracle.config())
          << daemon_name << " diverged on corruption at step " << s;
    }
    const Engine::StepInfo a = fast.step();
    const Engine::StepInfo b = oracle.step();
    ASSERT_EQ(a.selected, b.selected) << daemon_name << " step " << s;
    ASSERT_EQ(a.fired, b.fired) << daemon_name << " step " << s;
    ASSERT_EQ(a.comm_changed, b.comm_changed) << daemon_name << " step " << s;
    ASSERT_TRUE(fast.config() == oracle.config())
        << daemon_name << " diverged at step " << s;
    ASSERT_EQ(fast.rounds(), oracle.rounds()) << daemon_name << " step " << s;
    ASSERT_EQ(fast.rounds_inclusive(), oracle.rounds_inclusive())
        << daemon_name << " step " << s;
    ASSERT_EQ(fast.read_counter().total_reads(),
              oracle.read_counter().total_reads())
        << daemon_name << " step " << s;
    ASSERT_EQ(fast.read_counter().total_bits(),
              oracle.read_counter().total_bits())
        << daemon_name << " step " << s;
    ASSERT_EQ(fast.num_enabled(), oracle.num_enabled())
        << daemon_name << " step " << s;
    // The fast engine certifies through the solo hook (the kernel), the
    // oracle through the scalar is_comm_quiescent.
    const bool silent = oracle.quiescent();
    ASSERT_EQ(fast.quiescent(), silent) << daemon_name << " step " << s;
    ASSERT_EQ(fast.certified_silent(), silent)
        << daemon_name << " step " << s;
  }
}

TEST(ChurnEngineLockstep, CorruptionInterleavedWithStepsMatchesReference) {
  const Graph g = grid(3, 3);
  for (const std::string& protocol_name :
       {std::string("coloring"), std::string("matching"),
        std::string("bfs-tree")}) {
    const auto protocol = make_registry_protocol(protocol_name, g);
    for (const std::string& daemon : daemon_names()) {
      expect_corruption_lockstep(g, *protocol, daemon,
                                 0xc0ffee + protocol_name.size(), 120);
    }
  }
}

/// Satellite regression: set_config mid-run (not just at t=0) must rebuild
/// every incremental cache. Interleaves step / set_config(corrupted copy) /
/// step against the reference.
TEST(ChurnEngineLockstep, SetConfigMidRunMatchesReference) {
  const Graph g = grid(3, 3);
  const auto protocol = make_registry_protocol("coloring", g);
  for (const std::string& daemon : daemon_names()) {
    Engine fast(g, *protocol, make_daemon(daemon), 99);
    ReferenceEngine oracle(g, *protocol, make_daemon(daemon), 99);
    fast.randomize_state();
    oracle.randomize_state();
    Rng fault_fast(0x5e7cULL);
    Rng fault_oracle(0x5e7cULL);
    for (int s = 0; s < 90; ++s) {
      if (s % 11 == 5) {
        Configuration cfg = fast.config();
        Configuration cfg_oracle = oracle.config();
        corrupt_processes(g, protocol->spec(), cfg, {0, 4, 8}, fault_fast);
        corrupt_processes(g, protocol->spec(), cfg_oracle, {0, 4, 8},
                          fault_oracle);
        fast.set_config(cfg);
        oracle.set_config(cfg_oracle);
      }
      const Engine::StepInfo a = fast.step();
      const Engine::StepInfo b = oracle.step();
      ASSERT_EQ(a.fired, b.fired) << daemon << " step " << s;
      ASSERT_TRUE(fast.config() == oracle.config())
          << daemon << " diverged at step " << s;
      ASSERT_EQ(fast.rounds_inclusive(), oracle.rounds_inclusive())
          << daemon << " step " << s;
      ASSERT_EQ(fast.read_counter().total_reads(),
                oracle.read_counter().total_reads())
          << daemon << " step " << s;
    }
  }
}

/// Runs the full churn driver on both engine types in lockstep. Returns
/// the first divergence — configuration, topology, rounds, reads, bits or
/// the running legitimate-step count after any step, or the final
/// statistics — or a failed invariant (e.g. the tracker's full-predicate
/// confirmation); empty when the runners agree throughout. `fast_stats`
/// receives the Engine runner's final statistics.
template <typename MakeRunner>
std::string runner_divergence(MakeRunner&& make, ChurnStats& fast_stats) try {
  auto fast = make(static_cast<Engine*>(nullptr));
  auto oracle = make(static_cast<ReferenceEngine*>(nullptr));

  const RunStats sa = fast->stabilize();
  const RunStats sb = oracle->stabilize();
  if (sa.silent != sb.silent || sa.steps != sb.steps ||
      sa.rounds != sb.rounds || sa.reached_legitimate != sb.reached_legitimate ||
      sa.steps_to_legitimate != sb.steps_to_legitimate ||
      !(fast->config() == oracle->config())) {
    return "stabilization diverged";
  }

  std::uint64_t step = 0;
  const auto at = [&step](const char* what) {
    return std::string(what) + " diverged at window step " +
           std::to_string(step);
  };
  while (true) {
    const bool more_a = fast->step_once();
    const bool more_b = oracle->step_once();
    if (more_a != more_b) return at("window length");
    if (!more_a) break;
    if (fast->graph().num_vertices() != oracle->graph().num_vertices() ||
        fast->graph().edges() != oracle->graph().edges()) {
      return at("topology");
    }
    if (!(fast->config() == oracle->config())) return at("configuration");
    if (fast->total_rounds() != oracle->total_rounds()) return at("rounds");
    if (fast->total_reads() != oracle->total_reads()) return at("reads");
    if (fast->total_bits() != oracle->total_bits()) return at("bits");
    if (fast->stats().legitimate_steps != oracle->stats().legitimate_steps) {
      return at("availability");
    }
    ++step;
  }

  if (!(fast->stats() == oracle->stats())) return "final statistics differ";
  fast_stats = fast->stats();
  return {};
} catch (const InvariantError& error) {
  return std::string("invariant failed: ") + error.what();
}

/// Asserts the lockstep agrees and the trajectory was disrupted enough to
/// prove anything.
template <typename MakeRunner>
void expect_runner_lockstep(MakeRunner&& make, bool expect_topology) {
  ChurnStats a;
  ASSERT_EQ(runner_divergence(make, a), "");
  EXPECT_GT(a.disruptions, 0u);
  if (expect_topology) {
    EXPECT_GE(a.topology_events(), 3u)
        << "topology trajectory too quiet to prove anything";
  }
}

TEST(ChurnRunnerLockstep, CorruptionAndResetTrajectoriesMatch) {
  const Graph g = grid(3, 3);
  const auto problem = ProblemRegistry::instance().make(
      ProtocolRegistry::instance().info("coloring").problem);
  const auto protocol = make_registry_protocol("coloring", g);
  for (const std::string& daemon :
       {std::string("central-rr"), std::string("distributed")}) {
    ChurnOptions options;
    options.event_probability = 0.05;
    options.window_steps = 400;
    options.seed = 0xabcdULL;
    options.max_victims = 3;
    options.corruption_weight = 2;
    options.node_reset_weight = 1;
    auto make = [&](auto* tag) {
      using EngineT = std::remove_pointer_t<decltype(tag)>;
      return std::make_unique<ChurnRunner<EngineT>>(
          g, *protocol, daemon, 4242, options, problem->predicate());
    };
    expect_runner_lockstep(make, /*expect_topology=*/false);
  }
}

TEST(ChurnRunnerLockstep, TopologyChurnTrajectoriesMatch) {
  const auto problem = ProblemRegistry::instance().make(
      ProtocolRegistry::instance().info("coloring").problem);
  for (const std::string& daemon :
       {std::string("central-rr"), std::string("distributed")}) {
    ChurnOptions options;
    options.period = 25;
    options.window_steps = 500;
    options.seed = 0x70d0ULL;
    options.corruption_weight = 1;
    options.topology_weight = 3;
    auto make = [&](auto* tag) {
      using EngineT = std::remove_pointer_t<decltype(tag)>;
      return std::make_unique<ChurnRunner<EngineT>>(
          grid(3, 3), registry_factory("coloring"), daemon, 777, options,
          problem->predicate());
    };
    expect_runner_lockstep(make, /*expect_topology=*/true);
  }
}

/// The two churn schedules of the registry-wide lockstep: a Bernoulli
/// corruption/reset mix, and a period with topology churn.
ChurnOptions lockstep_schedule(bool topology) {
  ChurnOptions options;
  if (topology) {
    options.period = 25;
    options.window_steps = 500;
    options.seed = 0x70d0ULL;
    options.corruption_weight = 1;
    options.topology_weight = 3;
  } else {
    options.event_probability = 0.05;
    options.window_steps = 400;
    options.seed = 0xabcdULL;
    options.max_victims = 3;
    options.corruption_weight = 2;
    options.node_reset_weight = 1;
  }
  return options;
}

/// ChurnRunner<Engine> bound to `problem`'s local form against
/// ChurnRunner<ReferenceEngine> on its full predicate alone, for one
/// selection, daemon and schedule. Owning mode (with a registry factory)
/// under topology churn, borrowed mode otherwise.
std::string local_form_divergence(const ProtocolSelection& selection,
                                  const Problem& problem,
                                  const std::string& daemon, bool topology,
                                  std::uint64_t engine_seed,
                                  ChurnStats& fast_stats) {
  const Graph g = grid(3, 3);
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make(selection, g);
  const ProtocolFactory factory = [selection](const Graph& h) {
    return ProtocolRegistry::instance().make(selection, h);
  };
  const ChurnOptions options = lockstep_schedule(topology);
  auto make = [&](auto* tag) {
    using EngineT = std::remove_pointer_t<decltype(tag)>;
    const LocalLegitimacy* form =
        std::is_same_v<EngineT, Engine> ? problem.local_form() : nullptr;
    if (topology) {
      return std::make_unique<ChurnRunner<EngineT>>(
          g, factory, daemon, engine_seed, options, problem.predicate(),
          form);
    }
    return std::make_unique<ChurnRunner<EngineT>>(
        g, *protocol, daemon, engine_seed, options, problem.predicate(), form);
  };
  return runner_divergence(make, fast_stats);
}

TEST(ChurnRunnerLockstep, LocalFormMatchesFullPredicateAcrossRegistry) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  int compared = 0;
  std::uint64_t topology_events = 0;
  for (const std::string& name : registry.protocol_names()) {
    for (const ProtocolSelection& selection :
         {ProtocolSelection::base(name),
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base(name))}) {
      const ProtocolRegistry::ComposedInfo info = registry.resolve(selection);
      ASSERT_FALSE(info.problem.empty()) << info.label;
      const std::unique_ptr<Problem> problem =
          ProblemRegistry::instance().make(info.problem);
      ASSERT_NE(problem->local_form(), nullptr) << info.label;
      for (const std::string daemon : {"central-rr", "distributed"}) {
        if (!info.daemons.empty() &&
            std::find(info.daemons.begin(), info.daemons.end(), daemon) ==
                info.daemons.end()) {
          continue;
        }
        for (const bool topology : {false, true}) {
          ChurnStats stats;
          ASSERT_EQ(local_form_divergence(selection, *problem, daemon,
                                          topology, 4242, stats),
                    "")
              << info.label << " under " << daemon
              << (topology ? " with topology churn" : " with corruption");
          EXPECT_GT(stats.disruptions, 0u) << info.label << " " << daemon;
          topology_events += stats.topology_events();
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 4 * static_cast<int>(registry.protocol_names().size()));
  EXPECT_GT(topology_events, 0u);
}

TEST(ChurnRunnerLockstep, CurBlindFormIsCaughtByTheLockstep) {
  // The planted form ignores cur-only writes, so either its count goes
  // stale (availability diverges from the oracle) or a stale zero fails
  // the full-predicate confirmation. Every combination must catch it, and
  // the same form declared honestly must pass.
  const testing::CurReadingColoring blind(/*declares_internal=*/false);
  const testing::CurReadingColoring honest(/*declares_internal=*/true);
  for (const std::string daemon : {"central-rr", "distributed"}) {
    for (const bool topology : {false, true}) {
      const std::string where =
          daemon + (topology ? " with topology churn" : " with corruption");
      ChurnStats stats;
      EXPECT_NE(local_form_divergence(ProtocolSelection::base("coloring"),
                                      blind, daemon, topology, 4242, stats),
                "")
          << where;
      EXPECT_EQ(local_form_divergence(ProtocolSelection::base("coloring"),
                                      honest, daemon, topology, 4242, stats),
                "")
          << where;
    }
  }
}

TEST(ChurnRunner, LocalFormNeedsItsPredicate) {
  const Graph g = path(4);
  const auto protocol = make_registry_protocol("coloring", g);
  const auto problem = ProblemRegistry::instance().make("vertex-coloring");
  ChurnOptions options;
  options.event_probability = 0.1;
  EXPECT_ANY_THROW(({
    ChurnRunner<Engine> runner(g, *protocol, "central-rr", 1, options, {},
                               problem->local_form());
  }));
}

TEST(ChurnRunner, SeedReproducible) {
  const auto problem = ProblemRegistry::instance().make("vertex-coloring");
  ChurnOptions options;
  options.event_probability = 0.03;
  options.window_steps = 300;
  options.seed = 0x1234ULL;
  options.node_reset_weight = 1;
  options.topology_weight = 1;
  auto run = [&]() {
    ChurnRunner<Engine> runner(grid(3, 3), registry_factory("coloring"),
                               "distributed", 31337, options,
                               problem->predicate());
    runner.stabilize();
    runner.run_window();
    return runner.stats();
  };
  const ChurnStats a = run();
  const ChurnStats b = run();
  EXPECT_EQ(a.disruptions, b.disruptions);
  EXPECT_EQ(a.legitimate_steps, b.legitimate_steps);
  EXPECT_EQ(a.recovery_rounds, b.recovery_rounds);
  EXPECT_EQ(a.recovery_reads, b.recovery_reads);
  EXPECT_EQ(a.idle_reads, b.idle_reads);
  EXPECT_EQ(a.topology_events(), b.topology_events());
}

TEST(ChurnRunner, StatsAreInternallyConsistent) {
  const auto problem = ProblemRegistry::instance().make("vertex-coloring");
  const Graph g = path(8);
  const auto protocol = make_registry_protocol("coloring", g);
  ChurnOptions options;
  options.period = 100;
  options.window_steps = 600;
  options.seed = 0x600dULL;
  options.max_victims = 2;
  ChurnRunner<Engine> runner(g, *protocol, "central-rr", 11, options,
                             problem->predicate());
  const RunStats s = runner.stabilize();
  ASSERT_TRUE(s.silent);
  runner.run_window();
  const ChurnStats& stats = runner.stats();
  EXPECT_EQ(stats.window_steps, 600u);
  // The periodic schedule fires exactly window/period corruption events.
  EXPECT_EQ(stats.disruptions, 6u);
  EXPECT_EQ(stats.corruptions, 6u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_LE(stats.recoveries, stats.disruptions);
  EXPECT_EQ(stats.recovery_rounds.size(), stats.recoveries);
  EXPECT_EQ(stats.recovery_step_counts.size(), stats.recoveries);
  EXPECT_EQ(stats.recovering_steps + stats.idle_steps, stats.window_steps);
  EXPECT_LE(stats.legitimate_steps, stats.window_steps);
  EXPECT_GT(stats.availability(), 0.0);
  EXPECT_LE(stats.availability(), 1.0);
  EXPECT_TRUE(stats.initial_silent);
  EXPECT_GT(stats.reads_per_disruption(), 0.0);
  // p50 <= p99 by construction of the nearest-rank percentile.
  EXPECT_LE(stats.recovery_rounds_percentile(50.0),
            stats.recovery_rounds_percentile(99.0));
}

TEST(ChurnRunner, BorrowedModeRejectsTopologyChurn) {
  const Graph g = path(4);
  const auto protocol = make_registry_protocol("coloring", g);
  ChurnOptions options;
  options.event_probability = 0.1;
  options.topology_weight = 1;
  EXPECT_ANY_THROW(({
    ChurnRunner<Engine> runner(g, *protocol, "central-rr", 1, options);
  }));
}

TEST(ChurnRunner, RejectsAmbiguousSchedule) {
  const Graph g = path(4);
  const auto protocol = make_registry_protocol("coloring", g);
  ChurnOptions both;
  both.event_probability = 0.1;
  both.period = 10;
  EXPECT_ANY_THROW(({
    ChurnRunner<Engine> runner(g, *protocol, "central-rr", 1, both);
  }));
  ChurnOptions neither;
  neither.event_probability = 0.0;
  neither.period = 0;
  EXPECT_ANY_THROW(({
    ChurnRunner<Engine> runner(g, *protocol, "central-rr", 1, neither);
  }));
}

TEST(ChurnSummary, PoolsTrialsAndComputesPercentiles) {
  ChurnStats a;
  a.window_steps = 100;
  a.legitimate_steps = 80;
  a.disruptions = 2;
  a.corruptions = 2;
  a.recoveries = 2;
  a.recovery_rounds = {2, 4};
  a.recovery_reads = 50;
  a.idle_steps = 60;
  a.idle_reads = 120;
  a.initial_silent = true;
  ChurnStats b;
  b.window_steps = 100;
  b.legitimate_steps = 100;
  b.disruptions = 3;
  b.node_joins = 1;
  b.recoveries = 3;
  b.recovery_rounds = {6, 8, 10};
  b.recovery_reads = 100;
  b.idle_steps = 40;
  b.idle_reads = 80;
  b.initial_silent = true;
  const ChurnStats trials[] = {a, b};
  const ChurnSweepSummary sum = summarize_churn(trials, 2);
  EXPECT_EQ(sum.runs, 2);
  EXPECT_EQ(sum.initial_silent_runs, 2);
  EXPECT_EQ(sum.disruptions, 5u);
  EXPECT_EQ(sum.recoveries, 5u);
  EXPECT_EQ(sum.topology_events, 1u);
  EXPECT_DOUBLE_EQ(sum.availability_mean, 0.9);
  EXPECT_DOUBLE_EQ(sum.recovery_rounds_p50, 6.0);
  EXPECT_DOUBLE_EQ(sum.reads_per_disruption, 30.0);
  EXPECT_DOUBLE_EQ(sum.idle_reads_per_step, 2.0);
  const ChurnSweepSummary empty = summarize_churn(nullptr, 0);
  EXPECT_EQ(empty.runs, 0);
  EXPECT_DOUBLE_EQ(empty.availability_mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.recovery_rounds_p99, 0.0);
}

}  // namespace
}  // namespace sss
