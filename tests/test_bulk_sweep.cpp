/// The guard refresh kernel's contract (runtime/bulk.hpp): for every
/// opted-in protocol, one `sweep_enabled_ids` call over any list of ids
/// must reproduce, action for action, what scalar `first_enabled` probes
/// of those ids produce, and an Engine forced onto the bulk path must
/// stay bit-identical to one forced onto the scalar path. Two layers of
/// checks:
///
///  * direct: refresh shuffled id lists of a randomized configuration —
///    one process, one closed neighbourhood (a central daemon's dirty
///    set), a quarter of the network and all of it, each whole and split
///    the way the engine splits it across pool workers — and compare the
///    listed actions against scalar GuardContext runs, and check that
///    unlisted entries are left alone. A refresh charges no reads; the
///    read stream of phase 1, where guards are re-run and charged, is
///    held to the scalar one in tests/test_bulk_execute.cpp;
///  * behavioural: kAuto vs kForceScalar engine lockstep over every
///    daemon and a graph menagerie — configurations, StepInfo, rounds,
///    enabled counts, and read metrics all equal.
///
/// Both layers run over testing::kernel_selections(): every registry
/// protocol, generic-efficiency over each of them (the composed kernels,
/// with the inner rule inlined over the mirror bank) and one depth-2
/// composition, which keeps the scalar default.
///
/// The registry-wide harness additionally runs the full property grid
/// under kAuto and under kForceScalar (tests/test_protocol_properties.cpp)
/// and proves falsifiability with a deliberately wrong sweep
/// (tests/test_protocol_harness.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol_registry.hpp"
#include "runtime/engine.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/rule.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

/// Shuffled id lists the refresh kernel is held to on `g`: one process,
/// a max-degree process with its neighbours (1 + Delta ids, the dirty set
/// a central daemon leaves behind), a quarter of the network, and all of
/// it.
std::vector<std::vector<ProcessId>> dirty_id_lists(const Graph& g, Rng& rng) {
  const int n = g.num_vertices();
  std::vector<ProcessId> all(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) all[static_cast<std::size_t>(p)] = p;
  shuffle(all, rng);
  ProcessId hub = 0;
  for (ProcessId p = 1; p < n; ++p) {
    if (g.degree(p) > g.degree(hub)) hub = p;
  }
  std::vector<ProcessId> ball{hub};
  for (NbrIndex ch = 1; ch <= g.degree(hub); ++ch) {
    ball.push_back(g.neighbor(hub, ch));
  }
  shuffle(ball, rng);
  const std::size_t quarter = std::max<std::size_t>(1, all.size() / 4);
  return {{all.front()},
          ball,
          std::vector<ProcessId>(all.begin(), all.begin() + quarter),
          all};
}

/// Refreshes `ids` of one randomized configuration — in one call, and
/// again split into per-worker lists by contiguous id range as the
/// engine's pool does — and compares each listed action against a scalar
/// probe. Unlisted entries must keep their sentinel.
void expect_sweep_matches_scalar(const Graph& g, const Protocol& protocol,
                                 std::uint64_t seed) {
  const int n = g.num_vertices();
  Configuration config(g, protocol.spec());
  Rng rng(seed);
  randomize_configuration(g, protocol.spec(), config, rng);
  protocol.install_constants(g, config);

  std::vector<int> scalar_actions(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    GuardContext guard(g, config, p, nullptr);
    scalar_actions[static_cast<std::size_t>(p)] =
        protocol.first_enabled(guard);
  }

  constexpr int kUntouched = 99;
  for (const std::vector<ProcessId>& ids : dirty_id_lists(g, rng)) {
    for (const int workers : {1, 3}) {
      EnabledBitmap bitmap;
      bitmap.reset(n);
      for (ProcessId p = 0; p < n; ++p) bitmap.set_action(p, kUntouched);
      BulkGuardContext ctx(g, config);
      const int chunk = (n + workers - 1) / workers;
      for (int w = 0; w < workers; ++w) {
        std::vector<ProcessId> share;
        for (const ProcessId p : ids) {
          if (p / chunk == w) share.push_back(p);
        }
        protocol.sweep_enabled_ids(ctx, bitmap, share);
      }

      std::vector<std::uint8_t> listed(static_cast<std::size_t>(n), 0);
      for (const ProcessId p : ids) listed[static_cast<std::size_t>(p)] = 1;
      for (ProcessId p = 0; p < n; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const std::string where = protocol.name() + " on " + g.name() +
                                  " seed " + std::to_string(seed) + ", " +
                                  std::to_string(ids.size()) + " ids, " +
                                  std::to_string(workers) +
                                  " worker(s): process " + std::to_string(p);
        EXPECT_EQ(bitmap.action(p), listed[i] ? scalar_actions[i] : kUntouched)
            << where;
      }
    }
  }
}

TEST(BulkSweep, EveryRegistryProtocolOptsIn) {
  // The whole registry is covered by the slab kernels of both hooks
  // (refresh and execute; has_bulk_sweep reports both), and so is
  // generic-efficiency over each of its rule protocols (the composed
  // kernels); a new protocol that stays scalar should be a deliberate
  // choice, visible here.
  for (const std::string& name : ProtocolRegistry::instance().protocol_names()) {
    const Graph g = path(4);
    const std::unique_ptr<Protocol> protocol =
        ProtocolRegistry::instance().make(name, g, {});
    EXPECT_TRUE(protocol->has_bulk_sweep()) << name;
    const std::unique_ptr<Protocol> composed =
        ProtocolRegistry::instance().make(
            ProtocolSelection::wrap("generic-efficiency",
                                    ProtocolSelection::base(name)),
            g);
    EXPECT_TRUE(composed->has_bulk_sweep()) << "generic-efficiency(" << name
                                            << ")";
  }
}

TEST(BulkSweep, SweepMatchesScalarProbesAcrossRegistryAndMenagerie) {
  for (const ProtocolSelection& selection : testing::kernel_selections()) {
    for (const auto& named : testing::sweep_graphs()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(selection, named.graph);
      for (std::uint64_t seed : {101u, 102u, 103u, 104u}) {
        expect_sweep_matches_scalar(named.graph, *protocol, seed);
      }
    }
  }
}

TEST(BulkSweep, SweepMatchesScalarForNonDefaultParameters) {
  const Graph g = grid(3, 4);
  const ParamMap bfs_params = {{"root", 7}};
  const ParamMap election_params = {{"id_scheme", "random"}, {"id_seed", 5}};
  for (std::uint64_t seed : {7u, 8u}) {
    expect_sweep_matches_scalar(
        g, *ProtocolRegistry::instance().make("bfs-tree", g, bfs_params),
        seed);
    expect_sweep_matches_scalar(
        g,
        *ProtocolRegistry::instance().make("leader-election", g,
                                           election_params),
        seed);
    expect_sweep_matches_scalar(
        g,
        *ProtocolRegistry::instance().make(
            "mis", g, {{"promote_on_higher_color", false}}),
        seed);
  }
}

/// The solo hook's contract (Protocol::solo_writes_comm): for every
/// process of `config` and every budget up to the engine's, degree(p) +
/// solo_margin, the protocol's hook answers what Protocol's scalar
/// default answers, and neither changes the configuration. Every budget,
/// not only the engine's, so a kernel that runs one activation too few
/// or too many fails wherever a first attempt lands on the boundary.
void expect_solo_matches_scalar(const Graph& g, const Protocol& protocol,
                                Configuration config,
                                const std::string& where) {
  const Configuration before = config;
  const int margin = solo_margin(protocol);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    for (int budget = 1; budget <= g.degree(p) + margin; ++budget) {
      const bool scalar =
          protocol.Protocol::solo_writes_comm(g, config, p, budget);
      ASSERT_EQ(config, before) << where << ": the scalar default left "
                                << "process " << p << "'s row changed";
      const bool hook = protocol.solo_writes_comm(g, config, p, budget);
      ASSERT_EQ(config, before) << where << ": the hook changed process "
                                << p << "'s row";
      ASSERT_EQ(hook, scalar) << where << ": process " << p << ", budget "
                              << budget;
    }
  }
}

TEST(BulkSweep, SoloHookMatchesScalarDefaultAcrossRegistryAndMenagerie) {
  // Random configurations surface attempts at varied depths; silent ones,
  // reached by running, make every process run its whole budget.
  int silent_checked = 0;
  for (const ProtocolSelection& selection : testing::kernel_selections()) {
    for (const auto& named : testing::sweep_graphs()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(selection, named.graph);
      for (std::uint64_t seed : {301u, 302u, 303u}) {
        const std::string where = protocol->name() + " on " +
                                  named.graph.name() + " seed " +
                                  std::to_string(seed);
        Configuration config(named.graph, protocol->spec());
        Rng rng(seed);
        randomize_configuration(named.graph, protocol->spec(), config, rng);
        protocol->install_constants(named.graph, config);
        expect_solo_matches_scalar(named.graph, *protocol, config,
                                   where + " (random)");
        if (::testing::Test::HasFatalFailure()) return;

        Engine engine(named.graph, *protocol,
                      make_distributed_random_daemon(), seed);
        engine.randomize_state();
        if (!engine.run({}).silent) continue;
        ASSERT_TRUE(
            is_comm_quiescent(named.graph, *protocol, engine.config()))
            << where;
        expect_solo_matches_scalar(named.graph, *protocol, engine.config(),
                                   where + " (silent)");
        if (::testing::Test::HasFatalFailure()) return;
        ++silent_checked;
      }
    }
  }
  EXPECT_GT(silent_checked, 0);
}

/// Writes its internal counter, then reads it back, and attempts a
/// communication write only if the read saw the new value. An action
/// reads its pre-state on every path (runtime/context.hpp), so a correct
/// solo run never attempts one. No registry rule reads a slot it has
/// written, so this holds the solo kernel's row buffers to that contract.
class ReadsBackItsWrite final : public RuleProtocol<ReadsBackItsWrite> {
 public:
  ReadsBackItsWrite() {
    spec_.comm.emplace_back("X", VarDomain{0, 1});
    spec_.internal.emplace_back("K", VarDomain{0, 3});
  }
  const std::string& name() const override {
    static const std::string kName = "READS-BACK-ITS-WRITE";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }

 private:
  friend RuleProtocol<ReadsBackItsWrite>;
  template <class Ctx>
  int guard(Ctx&) const {
    return 0;
  }
  template <class Ctx>
  void act(int, Ctx& ctx) const {
    const Value k = ctx.self_internal(0);
    ctx.set_internal(0, (k + 1) % 4);
    if (ctx.self_internal(0) != k) ctx.set_comm(0, 1 - ctx.self_comm(0));
  }

  ProtocolSpec spec_;
};

TEST(BulkSweep, SoloKernelActsOnThePreActivationRow) {
  const Graph g = cycle(6);
  const ReadsBackItsWrite protocol;
  Configuration config(g, protocol.spec());
  Rng rng(17);
  randomize_configuration(g, protocol.spec(), config, rng);
  expect_solo_matches_scalar(g, protocol, config, protocol.name());
  Engine engine(g, protocol, make_synchronous_daemon(), 17);
  engine.set_config(config);
  EXPECT_TRUE(engine.quiescent());
  EXPECT_TRUE(engine.certified_silent());
}

/// kAuto (bulk) vs kForceScalar engines from the same seed must produce
/// identical computations and metrics: the two refresh strategies are two
/// implementations of the same semantics.
void expect_mode_lockstep(const Graph& g, const Protocol& protocol,
                          const std::string& daemon_name, std::uint64_t seed,
                          int steps) {
  Engine bulk(g, protocol, make_daemon(daemon_name), seed);
  Engine scalar(g, protocol, make_daemon(daemon_name), seed);
  scalar.set_sweep_mode(SweepMode::kForceScalar);
  bulk.randomize_state();
  scalar.randomize_state();
  ASSERT_EQ(bulk.config(), scalar.config());
  for (int s = 0; s < steps; ++s) {
    ASSERT_EQ(bulk.num_enabled(), scalar.num_enabled())
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " step " << s;
    const Engine::StepInfo a = bulk.step();
    const Engine::StepInfo b = scalar.step();
    ASSERT_EQ(a.selected, b.selected)
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " step " << s;
    ASSERT_EQ(a.fired, b.fired);
    ASSERT_EQ(a.comm_changed, b.comm_changed);
    ASSERT_EQ(bulk.config(), scalar.config())
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " step " << s;
    ASSERT_EQ(bulk.rounds(), scalar.rounds());
    ASSERT_EQ(bulk.read_counter().total_reads(),
              scalar.read_counter().total_reads());
    ASSERT_EQ(bulk.read_counter().total_bits(),
              scalar.read_counter().total_bits());
    ASSERT_EQ(bulk.read_counter().max_reads_per_process_step(),
              scalar.read_counter().max_reads_per_process_step());
    // Silence certification: the kernel hook against the scalar default,
    // through the cache and through the full check.
    const bool certified = bulk.certified_silent();
    ASSERT_EQ(certified, scalar.certified_silent())
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " step " << s;
    ASSERT_EQ(bulk.quiescent(), certified)
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " step " << s;
    ASSERT_EQ(scalar.quiescent(), certified);
  }
}

TEST(BulkSweep, AutoEngineLockstepsForcedScalarEngine) {
  const std::vector<testing::NamedGraph> graphs = testing::sweep_graphs();
  for (const ProtocolSelection& selection : testing::kernel_selections()) {
    for (const auto& named : {graphs[0], graphs[4], graphs[6]}) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(selection, named.graph);
      for (const std::string& daemon_name : daemon_names()) {
        expect_mode_lockstep(named.graph, *protocol, daemon_name, 909, 64);
      }
    }
  }
}

TEST(BulkSweep, EnabledBitmapBasics) {
  EnabledBitmap bitmap;
  bitmap.reset(3);
  EXPECT_EQ(bitmap.universe(), 3);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_FALSE(bitmap.enabled(p));
    EXPECT_EQ(bitmap.action(p), Protocol::kDisabled);
  }
  bitmap.set_action(1, 4);
  EXPECT_TRUE(bitmap.enabled(1));
  EXPECT_EQ(bitmap.action(1), 4);
  bitmap.reset(2);
  EXPECT_EQ(bitmap.universe(), 2);
  EXPECT_FALSE(bitmap.enabled(1));
}

}  // namespace
}  // namespace sss
