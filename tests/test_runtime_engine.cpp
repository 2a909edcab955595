/// Tests for the engine: snapshot semantics, rounds, read accounting,
/// probes, quiescence, fault injection, and trace recording.

#include <gtest/gtest.h>

#include "baselines/full_read_mis.hpp"
#include "core/coloring_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "graph/builders.hpp"
#include "graph/coloring.hpp"
#include "runtime/engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/rule.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

using testing::AlwaysFlip;
using testing::CopyChannelOne;
using testing::Inert;

TEST(Engine, RejectsDegenerateNetworks) {
  const Graph lonely = Graph::from_edges(1, {});
  const Inert protocol(lonely);
  EXPECT_THROW(Engine(lonely, protocol, make_fair_enumerator_daemon(), 1),
               PreconditionError);
}

TEST(Engine, SnapshotSemanticsOnSynchronousStep) {
  // CopyChannelOne on a 2-path from [3, 5]: both processes read the
  // pre-step value of the other, so one synchronous step must SWAP to
  // [5, 3] — sequential application would produce [5, 5].
  const Graph g = path(2);
  const CopyChannelOne protocol(g);
  Engine engine(g, protocol, make_synchronous_daemon(), 1);
  Configuration init = engine.config();
  init.set_comm(0, 0, 3);
  init.set_comm(1, 0, 5);
  engine.set_config(init);
  engine.step();
  EXPECT_EQ(engine.config().comm(0, 0), 5);
  EXPECT_EQ(engine.config().comm(1, 0), 3);
}

TEST(Engine, RoundsUnderEnumeratorAreNSteps) {
  const Graph g = path(5);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 2);
  for (int r = 1; r <= 3; ++r) {
    for (int s = 0; s < 5; ++s) engine.step();
    EXPECT_EQ(engine.rounds(), static_cast<std::uint64_t>(r));
  }
}

TEST(Engine, RoundsCountDisabledProcessesAsCovered) {
  // Under Inert everyone is disabled, so every step completes a round
  // regardless of who was selected.
  const Graph g = path(4);
  const Inert protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 3);
  engine.step();
  EXPECT_EQ(engine.rounds(), 1u);
  engine.step();
  EXPECT_EQ(engine.rounds(), 2u);
}

TEST(Engine, RoundsInclusiveCountsTheOpenRound) {
  const Graph g = path(3);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 4);
  EXPECT_EQ(engine.rounds_inclusive(), 0u);
  engine.step();
  EXPECT_EQ(engine.rounds(), 0u);
  EXPECT_EQ(engine.rounds_inclusive(), 1u);
}

TEST(Engine, ReadCounterSeesGuardReads) {
  const Graph g = path(3);
  const CopyChannelOne protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 5);
  engine.step();  // process 0 evaluates its guard: reads channel 1
  EXPECT_EQ(engine.read_counter().total_reads(), 1u);
  EXPECT_EQ(engine.read_counter().max_reads_per_process_step(), 1);
}

TEST(Engine, ReadLoggerAttachAndDetachAreChecked) {
  // Detaching a logger that was never attached must neither throw away
  // an attached one's reads nor unpin the serial logged path.
  class Counting final : public ReadLogger {
   public:
    std::uint64_t reads = 0;
    void on_read(ProcessId, ProcessId, int) override { ++reads; }
  };
  const Graph g = cycle(8);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_synchronous_daemon(), 3);
  engine.randomize_state();
  Counting attached;
  Counting stranger;
  engine.attach_read_logger(&attached);
  EXPECT_THROW(engine.attach_read_logger(&attached), PreconditionError);
  EXPECT_THROW(engine.detach_read_logger(&stranger), PreconditionError);
  for (int s = 0; s < 4; ++s) engine.step();
  EXPECT_GT(attached.reads, 0u);
  EXPECT_EQ(attached.reads, engine.read_counter().total_reads());
  engine.detach_read_logger(&attached);
  EXPECT_THROW(engine.detach_read_logger(&attached), PreconditionError);
  const std::uint64_t seen = attached.reads;
  engine.step();
  EXPECT_EQ(attached.reads, seen);
}

TEST(Engine, ProbesDoNotPerturbTheRun) {
  const Graph g = cycle(6);
  const ColoringProtocol protocol(g);
  Engine a(g, protocol, make_distributed_random_daemon(), 7);
  Engine b(g, protocol, make_distributed_random_daemon(), 7);
  a.randomize_state();
  b.randomize_state();
  for (int step = 0; step < 100; ++step) {
    b.num_enabled();  // extra probing must not consume main rng
    a.step();
    b.step();
  }
  EXPECT_TRUE(a.config() == b.config());
  EXPECT_EQ(a.steps(), b.steps());
}

TEST(Engine, IsEnabledMatchesFreshEvaluation) {
  const Graph g = path(4);
  const CopyChannelOne protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 8);
  Configuration init = engine.config();
  init.set_comm(0, 0, 1);  // 0 differs from its channel-1 neighbor
  engine.set_config(init);
  EXPECT_TRUE(engine.is_enabled(0));
  EXPECT_TRUE(engine.is_enabled(1));   // 1 reads 0 (value 1) != own 0
  EXPECT_FALSE(engine.is_enabled(3));  // 3 reads 2, both 0
}

TEST(Engine, SetConfigValidatesDomains) {
  const Graph g = path(3);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 9);
  Configuration bad = engine.config();
  bad.set_comm(0, 0, 99);  // outside {1..Delta+1}
  EXPECT_THROW(engine.set_config(bad), PreconditionError);
}

TEST(Engine, RunStatsAreRelativeToTheRun) {
  const Graph g = cycle(8);
  const ColoringProtocol protocol(g);
  const ColoringProblem problem;
  Engine engine(g, protocol, make_distributed_random_daemon(), 10);
  engine.randomize_state();
  RunOptions options;
  options.legitimacy = problem.predicate();
  const RunStats first = engine.run(options);
  ASSERT_TRUE(first.silent);
  // Second run starts silent: zero steps, already legitimate.
  const RunStats second = engine.run(options);
  EXPECT_TRUE(second.silent);
  EXPECT_EQ(second.steps, 0u);
  EXPECT_EQ(second.steps_to_silence, 0u);
  EXPECT_TRUE(second.reached_legitimate);
  EXPECT_EQ(second.steps_to_legitimate, 0u);
}

TEST(Engine, QuiescenceExactOnInert) {
  const Graph g = path(3);
  const Inert protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 11);
  EXPECT_TRUE(engine.quiescent());
}

TEST(Engine, QuiescenceFalseWhileFlipping) {
  const Graph g = path(3);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 12);
  EXPECT_FALSE(engine.quiescent());
}

TEST(Engine, RunStopsAtMaxStepsWhenNeverSilent) {
  const Graph g = path(3);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 13);
  RunOptions options;
  options.max_steps = 500;
  const RunStats stats = engine.run(options);
  EXPECT_FALSE(stats.silent);
  EXPECT_EQ(stats.steps, 500u);
}

TEST(Engine, SoloProbesStopAtTheFirstActiveProcess) {
  // Every ALWAYS-FLIP process would write its comm variable solo, so the
  // first checkpoint finds an active process with its first probe and
  // leaves the other entries dirty; while that clean active entry stands,
  // later checkpoints probe nothing.
  const Graph g = path(6);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 21);
  EXPECT_EQ(engine.solo_probes(), 0u);
  EXPECT_FALSE(engine.certified_silent());
  EXPECT_EQ(engine.solo_probes(), 1u);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(engine.certified_silent());
  EXPECT_EQ(engine.solo_probes(), 1u);
}

TEST(Engine, EachSoloDirtyingCostsAtMostOneProbe) {
  // Checkpoint after every step: a fired process dirties itself and, when
  // its comm changed, its neighbours, so the probes stay within the
  // initial n plus sum(1 + degree) over the selections (and a corruption
  // victim's closed neighbourhood). Once silence is certified, further
  // checkpoints probe nothing.
  const Graph g = grid(4, 4);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 22);
  engine.randomize_state();
  std::uint64_t dirtyings = static_cast<std::uint64_t>(g.num_vertices());
  const auto step_to_silence = [&] {
    for (int s = 0; s < 20'000 && !engine.certified_silent(); ++s) {
      ASSERT_LE(engine.solo_probes(), dirtyings) << "step " << s;
      engine.step();
      for (const ProcessId p : engine.last_selection()) {
        dirtyings += 1 + static_cast<std::uint64_t>(g.degree(p));
      }
    }
    ASSERT_TRUE(engine.certified_silent());
    ASSERT_LE(engine.solo_probes(), dirtyings);
  };
  step_to_silence();
  if (HasFatalFailure()) return;
  const std::uint64_t settled = engine.solo_probes();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(engine.certified_silent());
  EXPECT_EQ(engine.solo_probes(), settled);
  Rng faults(23);
  const ProcessId victim = 5;
  engine.apply_external_corruption({victim}, faults);
  dirtyings += 1 + static_cast<std::uint64_t>(g.degree(victim));
  step_to_silence();
}

/// Enabled exactly while an out-of-band flag is set. The guard also reads
/// its channel-1 neighbour, so it is charged like a real one, but its
/// answer depends on state the engine's dirty tracking never sees:
/// flipping the flag between a refresh and the next step leaves every
/// refreshed action stale.
class OutOfBandGuard final : public RuleProtocol<OutOfBandGuard> {
 public:
  explicit OutOfBandGuard(const bool& flag) : flag_(flag) {
    spec_.comm.emplace_back("X", VarDomain{0, 1});
  }
  const std::string& name() const override {
    static const std::string kName = "OUT-OF-BAND-GUARD";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }

 private:
  friend RuleProtocol<OutOfBandGuard>;
  template <class Ctx>
  int guard(Ctx& ctx) const {
    (void)ctx.nbr_comm(1, 0);
    return flag_ ? 0 : kDisabled;
  }
  template <class Ctx>
  void act(int, Ctx& ctx) const {
    ctx.set_comm(0, 1 - ctx.self_comm(0));
  }

  const bool& flag_;
  ProtocolSpec spec_;
};

TEST(Engine, StaleGuardIsCaughtAtExecute) {
  // Phase 1 re-runs every selected guard on the snapshot the refresh saw
  // and asserts it chose the refreshed action. A stale entry must throw on
  // the kernel (kAuto) and on the scalar default (kForceScalar), in
  // both directions: enabled turned disabled (the synchronous daemon
  // selects every process) and disabled turned enabled (it selects the
  // whole network while nothing is enabled).
  const Graph g = cycle(6);
  for (const SweepMode mode : {SweepMode::kAuto, SweepMode::kForceScalar}) {
    for (const bool refreshed : {true, false}) {
      bool flag = refreshed;
      const OutOfBandGuard protocol(flag);
      Engine engine(g, protocol, make_synchronous_daemon(), 3);
      engine.set_sweep_mode(mode);
      engine.randomize_state();
      ASSERT_EQ(engine.num_enabled(), refreshed ? 6 : 0);
      flag = !refreshed;  // out of band: no process goes dirty
      EXPECT_THROW(engine.step(), InvariantError)
          << sweep_mode_name(mode) << (refreshed ? " enabled" : " disabled");
    }
  }
}

/// Declares itself deterministic yet draws in its action. Without a
/// kernel it runs on the scalar default of the execute hook.
class UndeclaredDraw final : public Protocol {
 public:
  UndeclaredDraw() { spec_.comm.emplace_back("B", VarDomain{0, 1}); }
  const std::string& name() const override {
    static const std::string kName = "UNDECLARED-DRAW";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext&) const override { return 0; }
  void execute(int, ActionContext& ctx) const override {
    ctx.set_comm(0, ctx.random_range(0, 1));
  }

 private:
  ProtocolSpec spec_;
};

TEST(Engine, UndeclaredDrawFailsOnEverySlice) {
  // is_probabilistic() == false promises actions never draw, so no slice
  // hands such a protocol the model rng and the default execute hook runs
  // its actions certified: the draw must throw on the serial slice and on
  // pool workers, under both sweep modes.
  const Graph g = cycle(6);
  const UndeclaredDraw protocol;
  for (const SweepMode mode : {SweepMode::kAuto, SweepMode::kForceScalar}) {
    for (const int threads : {1, 2}) {
      Engine engine(g, protocol, make_synchronous_daemon(), 9);
      engine.set_sweep_mode(mode);
      engine.set_parallel_threads(threads);
      engine.randomize_state();
      EXPECT_THROW(engine.step(), InvariantError)
          << sweep_mode_name(mode) << " at " << threads << " thread(s)";
    }
  }
}

TEST(Engine, TraceRecordsPreStepActionsAcrossRoundBoundaries) {
  // Under the synchronous daemon every step completes a round, and the
  // round restart refreshes the fired processes' actions. The trace must
  // still hold the actions the selected processes fired, which are their
  // first enabled actions on the pre-step configuration.
  const Graph g = grid(3, 4);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_synchronous_daemon(), 31);
  engine.randomize_state();
  TraceRecorder trace(1);
  engine.set_trace(&trace);
  int checked = 0;
  for (; checked < 20 && engine.num_enabled() > 0; ++checked) {
    const Configuration pre = engine.config();
    const std::uint64_t rounds = engine.rounds();
    engine.step();
    ASSERT_EQ(engine.rounds(), rounds + 1);
    const TraceEvent& event = trace.events().back();
    ASSERT_EQ(event.actions.size(), event.selected.size());
    for (std::size_t i = 0; i < event.selected.size(); ++i) {
      GuardContext guard(g, pre, event.selected[i], /*logger=*/nullptr);
      EXPECT_EQ(event.actions[i], protocol.first_enabled(guard))
          << "step " << event.step << ", process " << event.selected[i];
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Engine, TraceRecordsRepeatedIdleSteps) {
  // After silence FULL-READ-MIS is disabled everywhere and the
  // synchronous daemon selects every process. The repeated idle steps are
  // charged without a replay, and the trace still records each of them
  // with every action disabled.
  const Graph g = cycle(6);
  const FullReadMis protocol(g, greedy_coloring(g));
  Engine engine(g, protocol, make_synchronous_daemon(), 24);
  engine.randomize_state();
  for (int s = 0; s < 1000 && engine.num_enabled() > 0; ++s) engine.step();
  ASSERT_EQ(engine.num_enabled(), 0);
  TraceRecorder trace(16);
  engine.set_trace(&trace);
  for (int s = 0; s < 4; ++s) engine.step();
  ASSERT_EQ(trace.events().size(), 4u);
  for (const TraceEvent& event : trace.events()) {
    EXPECT_EQ(event.selected.size(), 6u);
    EXPECT_EQ(event.actions, std::vector<int>(6, Protocol::kDisabled));
    EXPECT_FALSE(event.comm_changed);
  }
}

TEST(Engine, TraceRecordsSelectionsAndActions) {
  const Graph g = path(3);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 14);
  TraceRecorder trace(8);
  engine.set_trace(&trace);
  for (int step = 0; step < 12; ++step) engine.step();
  EXPECT_EQ(trace.events().size(), 8u);  // ring buffer capped
  const TraceEvent& last = trace.events().back();
  EXPECT_EQ(last.step, 12u);
  EXPECT_EQ(last.selected.size(), 1u);
  EXPECT_EQ(last.actions.size(), 1u);
  EXPECT_EQ(last.actions[0], 0);
  EXPECT_TRUE(last.comm_changed);
  EXPECT_NE(trace.str().find("comm*"), std::string::npos);
}

TEST(Faults, CorruptOnlyChosenVictims) {
  const Graph g = path(6);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 15);
  engine.randomize_state();
  const Configuration before = engine.config();
  Configuration corrupted = before;
  Rng rng(16);
  // Corrupt process 2 until its color actually changes (random redraws can
  // coincide with the old value).
  bool changed = false;
  for (int tries = 0; tries < 64 && !changed; ++tries) {
    corrupt_processes(g, protocol.spec(), corrupted, {2}, rng);
    changed = corrupted.comm(2, 0) != before.comm(2, 0);
  }
  EXPECT_TRUE(changed);
  for (ProcessId p : {0, 1, 3, 4, 5}) {
    EXPECT_EQ(corrupted.comm(p, 0), before.comm(p, 0));
  }
}

TEST(Faults, ConstantsAreImmune) {
  const Graph g = path(5);
  const Coloring colors = greedy_coloring(g);
  const MisProtocol protocol(g, colors);
  Configuration config(g, protocol.spec());
  protocol.install_constants(g, config);
  Rng rng(17);
  inject_random_faults(g, protocol.spec(), config, g.num_vertices(), rng);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    EXPECT_EQ(config.comm(p, MisProtocol::kColorVar),
              colors[static_cast<std::size_t>(p)]);
  }
}

TEST(Faults, InjectRandomFaultsPicksDistinctVictims) {
  const Graph g = path(8);
  const ColoringProtocol protocol(g);
  Configuration config(g, protocol.spec());
  Rng rng(18);
  const auto victims =
      inject_random_faults(g, protocol.spec(), config, 3, rng);
  EXPECT_EQ(victims.size(), 3u);
  EXPECT_TRUE(std::is_sorted(victims.begin(), victims.end()));
  EXPECT_THROW(inject_random_faults(g, protocol.spec(), config, 99, rng),
               PreconditionError);
}

TEST(Quiescence, DetectsColoringFixedPoint) {
  const Graph g = path(4);
  const ColoringProtocol protocol(g);
  Configuration config(g, protocol.spec());
  // Proper coloring: silent (only cur keeps cycling, no comm writes).
  const Coloring proper = greedy_coloring(g);
  for (ProcessId p = 0; p < 4; ++p) {
    config.set_comm(p, 0, proper[static_cast<std::size_t>(p)]);
    config.set_internal(p, 0, 1);
  }
  EXPECT_TRUE(is_comm_quiescent(g, protocol, config));
  // Monochrome edge: some process will redraw.
  config.set_comm(1, 0, config.comm(0, 0));
  EXPECT_FALSE(is_comm_quiescent(g, protocol, config));
}

}  // namespace
}  // namespace sss
