/// The `bfs-tree` and `full-read-bfs-tree` registry entries: the one-root
/// case of SpanningForestProtocol / FullReadSpanningForest under the names
/// BFS-TREE / FULL-READ-BFS-TREE. Root forwarding, step-for-step lockstep
/// with the `spanning-forest` entries on the same root, convergence sweeps
/// across daemons x menagerie x roots against the BFS-tree predicate with
/// the 2-efficiency certificate, and exhaustive model-checker discharge on
/// tiny instances (silent => legitimate, closure, reachability, and
/// synchronous convergence from *every* configuration — a mechanical
/// self-stabilization proof at that scale).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/full_read_spanning_forest.hpp"
#include "core/bounds.hpp"
#include "core/protocol_registry.hpp"
#include "core/spanning_forest_protocol.hpp"
#include "graph/builders.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"
#include "verify/checks.hpp"
#include "verify/tree_predicates.hpp"

namespace sss {
namespace {

std::unique_ptr<Protocol> make_entry(const std::string& entry, const Graph& g,
                                     ProcessId root = 0) {
  return ProtocolRegistry::instance().make(entry, g, {{"root", root}});
}

TEST(BfsTreeProtocol, RegistryForwardsTheRootParameter) {
  const Graph g = star(4);
  const std::unique_ptr<Protocol> protocol = make_entry("bfs-tree", g, 3);
  const auto& forest = dynamic_cast<const SpanningForestProtocol&>(*protocol);
  EXPECT_EQ(forest.roots(), (std::vector<ProcessId>{3}));
  EXPECT_EQ(forest.name(), "BFS-TREE");
  const std::unique_ptr<Protocol> baseline =
      make_entry("full-read-bfs-tree", g, 3);
  const auto& full_read =
      dynamic_cast<const FullReadSpanningForest&>(*baseline);
  EXPECT_EQ(full_read.roots(), (std::vector<ProcessId>{3}));
  EXPECT_EQ(full_read.name(), "FULL-READ-BFS-TREE");
  EXPECT_THROW(ProtocolRegistry::instance().make("bfs-tree", g,
                                                 {{"root", 99}}),
               PreconditionError);
  EXPECT_THROW(ProtocolRegistry::instance().make("full-read-bfs-tree", g,
                                                 {{"radix", 2}}),
               PreconditionError);
}

/// Drives `tree` and `forest` from the same seed under the distributed
/// daemon, asserting identical selections, configurations, rounds and
/// read counters after every step.
void expect_lockstep(const Graph& g, const Protocol& tree,
                     const Protocol& forest, std::uint64_t seed) {
  Engine a(g, tree, make_daemon("distributed"), seed);
  Engine b(g, forest, make_daemon("distributed"), seed);
  a.randomize_state();
  b.randomize_state();
  ASSERT_TRUE(a.config() == b.config()) << tree.name();
  for (int s = 0; s < 200; ++s) {
    const Engine::StepInfo x = a.step();
    const Engine::StepInfo y = b.step();
    const std::string context = tree.name() + " step " + std::to_string(s);
    ASSERT_EQ(x.selected, y.selected) << context;
    ASSERT_EQ(x.fired, y.fired) << context;
    ASSERT_TRUE(a.config() == b.config()) << context;
    ASSERT_EQ(a.rounds(), b.rounds()) << context;
    ASSERT_EQ(a.read_counter().total_reads(), b.read_counter().total_reads())
        << context;
    ASSERT_EQ(a.read_counter().total_bits(), b.read_counter().total_bits())
        << context;
    ASSERT_EQ(a.read_counter().max_reads_per_process_step(),
              b.read_counter().max_reads_per_process_step())
        << context;
  }
}

TEST(BfsTreeProtocol, LockstepWithTheOneRootForestEntries) {
  const Graph g = grid(3, 3);
  auto& registry = ProtocolRegistry::instance();
  for (ProcessId root = 0; root < g.num_vertices(); ++root) {
    const ParamMap roots = {{"roots", std::to_string(root)}};
    expect_lockstep(g, *make_entry("bfs-tree", g, root),
                    *registry.make("spanning-forest", g, roots), 500 + root);
    expect_lockstep(g, *make_entry("full-read-bfs-tree", g, root),
                    *registry.make("full-read-spanning-forest", g, roots),
                    600 + root);
  }
}

/// Runs one (daemon, seed) trial to certified silence and checks the
/// result against the BFS-tree predicate, the read certificate, and the
/// closed-form round bound of src/core/bounds.hpp.
void expect_converges(const Graph& g, const Protocol& protocol,
                      const std::string& daemon_name, std::uint64_t seed,
                      int max_reads) {
  Engine engine(g, protocol, make_daemon(daemon_name), seed);
  engine.randomize_state();
  RunOptions options;
  options.max_steps = 400'000;
  const RunStats stats = engine.run(options);
  ASSERT_TRUE(stats.silent)
      << protocol.name() << " on " << g.name() << " under " << daemon_name;
  EXPECT_TRUE(BfsTreeProblem().holds(g, engine.config()))
      << protocol.name() << " on " << g.name() << " under " << daemon_name;
  EXPECT_LE(stats.max_reads_per_process_step, max_reads)
      << protocol.name() << " on " << g.name();
  EXPECT_LE(static_cast<std::int64_t>(stats.rounds_to_silence),
            spanning_forest_round_bound(g.num_vertices(), g.max_degree()))
      << protocol.name() << " on " << g.name() << " under " << daemon_name;
}

TEST(BfsTreeProtocol, ConvergesAcrossDaemonsAndMenagerie) {
  for (const auto& named : testing::sweep_graphs()) {
    const auto protocol = make_entry("bfs-tree", named.graph);
    for (const std::string& daemon_name : daemon_names()) {
      expect_converges(named.graph, *protocol, daemon_name, 71, /*k=*/2);
    }
  }
}

TEST(BfsTreeProtocol, ConvergesFromEveryRoot) {
  const Graph g = grid(3, 3);
  for (ProcessId root = 0; root < g.num_vertices(); ++root) {
    expect_converges(g, *make_entry("bfs-tree", g, root), "distributed",
                     1000 + root, 2);
  }
}

TEST(FullReadBfsTree, ConvergesWithDeltaReads) {
  for (const auto& named : testing::sweep_graphs()) {
    const auto protocol = make_entry("full-read-bfs-tree", named.graph);
    for (const std::string& daemon_name : daemon_names()) {
      expect_converges(named.graph, *protocol, daemon_name, 81,
                       named.graph.max_degree());
    }
  }
}

/// Exhaustive discharge on tiny instances, for the efficient protocol and
/// the baseline alike.
void expect_exhaustively_correct(const Graph& g, const Protocol& protocol) {
  const BfsTreeProblem problem;
  const CheckResult silent =
      check_silent_implies_legitimate(g, protocol, problem);
  EXPECT_TRUE(silent.ok) << g.name() << ": " << silent.detail << " ("
                         << silent.violations << " violations)";
  const CheckResult closure = check_closure(g, protocol, problem);
  EXPECT_TRUE(closure.ok) << g.name() << ": " << closure.detail;
  const CheckResult reachable =
      check_legitimacy_reachable(g, protocol, problem);
  EXPECT_TRUE(reachable.ok) << g.name() << ": " << reachable.detail;
  const CheckResult converges =
      check_synchronous_convergence(g, protocol, problem);
  EXPECT_TRUE(converges.ok) << g.name() << ": " << converges.detail;
}

TEST(BfsTreeProtocol, ExhaustiveChecksOnTinyGraphs) {
  for (const auto& named : testing::tiny_graphs()) {
    expect_exhaustively_correct(named.graph,
                                *make_entry("bfs-tree", named.graph));
  }
  // A non-default root on the asymmetric star: the root is a leaf.
  const Graph g = star(3);
  expect_exhaustively_correct(g, *make_entry("bfs-tree", g, 2));
}

TEST(FullReadBfsTree, ExhaustiveChecksOnTinyGraphs) {
  for (const auto& named : testing::tiny_graphs()) {
    expect_exhaustively_correct(named.graph,
                                *make_entry("full-read-bfs-tree", named.graph));
  }
  const Graph g = star(3);
  expect_exhaustively_correct(g, *make_entry("full-read-bfs-tree", g, 2));
}

}  // namespace
}  // namespace sss
