/// Protocol SPANNING-FOREST and its full-read baseline: construction
/// contracts, the forest predicate helpers in src/verify/, convergence
/// sweeps across daemons x menagerie x root sets with the 2-efficiency
/// certificate and the closed-form round bound, and exhaustive
/// model-checker discharge on tiny instances. The single-root case, which
/// the `bfs-tree` registry entries run, is tested in
/// test_bfs_tree_protocol.cpp.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/full_read_spanning_forest.hpp"
#include "core/bounds.hpp"
#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "core/spanning_forest_protocol.hpp"
#include "graph/builders.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"
#include "verify/checks.hpp"
#include "verify/forest_predicates.hpp"

namespace sss {
namespace {

TEST(SpanningForestProtocol, ConstructionContracts) {
  const Graph g = path(5);
  EXPECT_THROW(SpanningForestProtocol(g, {}), PreconditionError);
  EXPECT_THROW(SpanningForestProtocol(g, {-1}), PreconditionError);
  EXPECT_THROW(SpanningForestProtocol(g, {5}), PreconditionError);
  EXPECT_THROW(SpanningForestProtocol(g, {2, 2}), PreconditionError);
  const SpanningForestProtocol protocol(g, {3, 1});
  EXPECT_EQ(protocol.roots(), (std::vector<ProcessId>{1, 3}));
  EXPECT_EQ(protocol.max_distance(), 4);
  EXPECT_EQ(protocol.spec().num_comm(), 3);
  EXPECT_EQ(protocol.spec().num_internal(), 1);
  EXPECT_TRUE(
      protocol.spec().comm[SpanningForestProtocol::kRootVar].is_constant());

  Configuration config(g, protocol.spec());
  protocol.install_constants(g, config);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    EXPECT_EQ(config.comm(p, SpanningForestProtocol::kRootVar),
              (p == 1 || p == 3) ? 1 : 0);
  }
  EXPECT_EQ(extract_forest_roots(g, config),
            (std::vector<ProcessId>{1, 3}));
}

TEST(ForestPredicates, MultiSourceBfsDistances) {
  // path(6) with roots at both ends: distances meet in the middle.
  EXPECT_EQ(multi_source_bfs_distances(path(6), {0, 5}),
            (std::vector<int>{0, 1, 2, 2, 1, 0}));
  // star: hub root reaches every leaf in one hop.
  EXPECT_EQ(multi_source_bfs_distances(star(3), {0}),
            (std::vector<int>{0, 1, 1, 1}));
  // grid(3, 3) with opposite corners (row-major ids 0 and 8).
  EXPECT_EQ(multi_source_bfs_distances(grid(3, 3), {0, 8}),
            (std::vector<int>{0, 1, 2, 1, 2, 1, 2, 1, 0}));
}

TEST(ForestPredicates, IsBfsForestAcceptsTheTruthAndRejectsPerturbations) {
  const Graph g = path(4);  // roots {0}: 0 - 1 - 2 - 3
  const std::vector<ProcessId> roots = {0};
  // Truth: dist 0,1,2,3; parent channels point toward the root. On a
  // path's CSR layout the channel of the lower-id neighbor is 1.
  std::vector<Value> dist = {0, 1, 2, 3};
  std::vector<Value> parent = {0, 1, 1, 1};
  EXPECT_TRUE(is_bfs_forest(g, roots, dist, parent));

  // A root claiming a parent is illegitimate.
  parent[0] = 1;
  EXPECT_FALSE(is_bfs_forest(g, roots, dist, parent));
  parent[0] = 0;

  // A wrong distance is illegitimate even with consistent parents.
  dist[3] = 2;
  EXPECT_FALSE(is_bfs_forest(g, roots, dist, parent));
  dist[3] = 3;

  // A parent channel pointing sideways (not one level down) is
  // illegitimate: process 2's channel 2 is its higher neighbor 3.
  parent[2] = 2;
  EXPECT_FALSE(is_bfs_forest(g, roots, dist, parent));
  parent[2] = 1;

  // A parent channel of 0 on a non-root is illegitimate.
  parent[1] = 0;
  EXPECT_FALSE(is_bfs_forest(g, roots, dist, parent));
}

TEST(ForestPredicates, ProblemRequiresAtLeastOneFlaggedRoot) {
  const Graph g = path(3);
  const SpanningForestProtocol protocol(g, {0});
  Configuration config(g, protocol.spec());
  // No install_constants: every R is 0, so no root is flagged and the
  // predicate must reject regardless of the other variables.
  const std::unique_ptr<Problem> problem =
      ProblemRegistry::instance().make("bfs-spanning-forest");
  EXPECT_FALSE(problem->holds(g, config));
  EXPECT_TRUE(extract_forest_roots(g, config).empty());
}

/// Runs one (daemon, seed) trial to certified silence and checks the
/// result against the forest predicate, the read certificate, and the
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
  EXPECT_TRUE(BfsForestProblem().holds(g, engine.config()))
      << protocol.name() << " on " << g.name() << " under " << daemon_name;
  EXPECT_LE(stats.max_reads_per_process_step, max_reads)
      << protocol.name() << " on " << g.name();
  EXPECT_LE(static_cast<std::int64_t>(stats.rounds_to_silence),
            spanning_forest_round_bound(g.num_vertices(), g.max_degree()))
      << protocol.name() << " on " << g.name() << " under " << daemon_name;
}

TEST(SpanningForestProtocol, ConvergesAcrossDaemonsAndMenagerie) {
  for (const auto& named : testing::sweep_graphs()) {
    // Two roots: 0 and the last vertex, always distinct (n >= 2).
    const SpanningForestProtocol protocol(
        named.graph, {0, named.graph.num_vertices() - 1});
    for (const std::string& daemon_name : daemon_names()) {
      expect_converges(named.graph, protocol, daemon_name, 73, /*k=*/2);
    }
  }
}

TEST(FullReadSpanningForest, ConvergesWithDeltaReads) {
  for (const auto& named : testing::sweep_graphs()) {
    const FullReadSpanningForest protocol(
        named.graph, {0, named.graph.num_vertices() - 1});
    for (const std::string& daemon_name : daemon_names()) {
      expect_converges(named.graph, protocol, daemon_name, 83,
                       named.graph.max_degree());
    }
  }
}

TEST(SpanningForestProtocol, SingleRootMatchesTheVoronoiOfThatRoot) {
  // With one root the forest is a tree and the distances are plain BFS.
  const Graph g = grid(3, 3);
  const SpanningForestProtocol protocol(g, {4});  // center
  expect_converges(g, protocol, "distributed", 91, 2);
}

TEST(SpanningForestProtocol, ManyRootsPartitionIntoVoronoiCells) {
  // Every vertex a root: the silent configuration is all-zero distances.
  const Graph g = cycle(6);
  std::vector<ProcessId> roots;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) roots.push_back(p);
  const SpanningForestProtocol protocol(g, roots);
  Engine engine(g, protocol, make_daemon("central-rr"), 17);
  engine.randomize_state();
  const RunStats stats = engine.run({});
  ASSERT_TRUE(stats.silent);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    EXPECT_EQ(engine.config().comm(p, SpanningForestProtocol::kDistVar), 0);
    EXPECT_EQ(engine.config().comm(p, SpanningForestProtocol::kParentVar), 0);
  }
}

TEST(SpanningForestProtocol, RegistryForwardsTheRootsParameter) {
  const Graph g = grid(3, 3);
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make("spanning-forest", g,
                                        {{"roots", "0,8"}});
  EXPECT_EQ(dynamic_cast<const SpanningForestProtocol&>(*protocol).roots(),
            (std::vector<ProcessId>{0, 8}));
  const std::unique_ptr<Protocol> baseline =
      ProtocolRegistry::instance().make("full-read-spanning-forest", g,
                                        {{"roots", "2"}});
  EXPECT_EQ(dynamic_cast<const FullReadSpanningForest&>(*baseline).roots(),
            (std::vector<ProcessId>{2}));
  EXPECT_THROW(ProtocolRegistry::instance().make("spanning-forest", g,
                                                 {{"roots", "0,99"}}),
               PreconditionError);
  EXPECT_THROW(ProtocolRegistry::instance().make("spanning-forest", g,
                                                 {{"roots", ""}}),
               PreconditionError);
}

TEST(SpanningForestBounds, ClosedFormValues) {
  EXPECT_EQ(spanning_forest_round_bound(10, 3), 42);
}

/// Exhaustive discharge on tiny instances, for the efficient protocol and
/// the baseline alike, with a two-root set where the graph allows it.
void expect_exhaustively_correct(const Graph& g, const Protocol& protocol) {
  const BfsForestProblem problem;
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

TEST(SpanningForestProtocol, ExhaustiveChecksOnTinyGraphs) {
  for (const auto& named : testing::tiny_graphs()) {
    const ProcessId last = named.graph.num_vertices() - 1;
    expect_exhaustively_correct(
        named.graph, SpanningForestProtocol(named.graph, {0, last}));
  }
}

TEST(FullReadSpanningForest, ExhaustiveChecksOnTinyGraphs) {
  for (const auto& named : testing::tiny_graphs()) {
    const ProcessId last = named.graph.num_vertices() - 1;
    expect_exhaustively_correct(
        named.graph, FullReadSpanningForest(named.graph, {0, last}));
  }
}

}  // namespace
}  // namespace sss
