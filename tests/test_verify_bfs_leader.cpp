/// Isolation tests for the two tree-shaped legitimacy predicates:
/// hand-built legitimate and illegitimate configurations (wrong parent
/// pointer, distance off-by-one, two roots, two leaders, fake leader id)
/// checked against BfsTreeProblem / LeaderElectionProblem, the free
/// validators of src/verify/tree_predicates.hpp, and the one-root case of
/// is_bfs_forest they reduce to.

#include <gtest/gtest.h>

#include <vector>

#include "baselines/full_read_leader_election.hpp"
#include "baselines/full_read_spanning_forest.hpp"
#include "core/leader_election_protocol.hpp"
#include "core/spanning_forest_protocol.hpp"
#include "graph/builders.hpp"
#include "verify/forest_predicates.hpp"
#include "verify/tree_predicates.hpp"

namespace sss {
namespace {

// The predicates read one shared layout; the baselines must agree with it.
static_assert(SpanningForestProtocol::kDistVar ==
              FullReadSpanningForest::kDistVar);
static_assert(SpanningForestProtocol::kParentVar ==
              FullReadSpanningForest::kParentVar);
static_assert(SpanningForestProtocol::kRootVar ==
              FullReadSpanningForest::kRootVar);
static_assert(LeaderElectionProtocol::kLeaderVar ==
              FullReadLeaderElection::kLeaderVar);
static_assert(LeaderElectionProtocol::kDistVar ==
              FullReadLeaderElection::kDistVar);
static_assert(LeaderElectionProtocol::kParentVar ==
              FullReadLeaderElection::kParentVar);
static_assert(LeaderElectionProtocol::kIdVar ==
              FullReadLeaderElection::kIdVar);

/// path(4) is 0-1-2-3; every neighbor list is sorted by global id, so the
/// channel back toward the root end is channel 1 everywhere.
Configuration legitimate_bfs_config(const Graph& g,
                                    const SpanningForestProtocol& protocol) {
  Configuration config(g, protocol.spec());
  protocol.install_constants(g, config);
  const std::vector<Value> dist = {0, 1, 2, 3};
  const std::vector<Value> parent = {0, 1, 1, 1};
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, SpanningForestProtocol::kDistVar,
                    dist[static_cast<std::size_t>(p)]);
    config.set_comm(p, SpanningForestProtocol::kParentVar,
                    parent[static_cast<std::size_t>(p)]);
  }
  return config;
}

TEST(BfsTreeProblem, AcceptsAHandBuiltBfsTree) {
  const Graph g = path(4);
  const SpanningForestProtocol protocol(g, {0});
  const Configuration config = legitimate_bfs_config(g, protocol);
  const BfsTreeProblem problem;
  EXPECT_TRUE(problem.holds(g, config));
  EXPECT_EQ(extract_bfs_root(g, config), 0);
  // Three child->parent edges along the path.
  EXPECT_EQ(extract_parent_edges(g, config, SpanningForestProtocol::kParentVar)
                .size(),
            3u);
}

TEST(BfsTreeProblem, RejectsWrongParentPointer) {
  const Graph g = path(4);
  const SpanningForestProtocol protocol(g, {0});
  Configuration config = legitimate_bfs_config(g, protocol);
  // Process 2 points "away" from the root (channel 2 = neighbor 3).
  config.set_comm(2, SpanningForestProtocol::kParentVar, 2);
  EXPECT_FALSE(BfsTreeProblem().holds(g, config));
}

TEST(BfsTreeProblem, RejectsDistanceOffByOne) {
  const Graph g = path(4);
  const SpanningForestProtocol protocol(g, {0});
  Configuration config = legitimate_bfs_config(g, protocol);
  config.set_comm(3, SpanningForestProtocol::kDistVar, 2);
  EXPECT_FALSE(BfsTreeProblem().holds(g, config));
}

TEST(BfsTreeProblem, RejectsOrphanAndRootDefects) {
  const Graph g = path(4);
  const SpanningForestProtocol protocol(g, {0});
  {
    // Non-root with no parent channel.
    Configuration config = legitimate_bfs_config(g, protocol);
    config.set_comm(1, SpanningForestProtocol::kParentVar, 0);
    EXPECT_FALSE(BfsTreeProblem().holds(g, config));
  }
  {
    // Root claiming a non-zero distance.
    Configuration config = legitimate_bfs_config(g, protocol);
    config.set_comm(0, SpanningForestProtocol::kDistVar, 1);
    EXPECT_FALSE(BfsTreeProblem().holds(g, config));
  }
  {
    // Two flagged roots (predicates audit arbitrary configurations, so
    // the constant can be corrupted by hand).
    Configuration config = legitimate_bfs_config(g, protocol);
    config.set_comm(1, SpanningForestProtocol::kRootVar, 1);
    EXPECT_FALSE(BfsTreeProblem().holds(g, config));
    EXPECT_EQ(extract_bfs_root(g, config), -1);
  }
}

TEST(BfsTreeProblem, HonorsNonDefaultRoots) {
  const Graph g = star(4);  // hub 0, leaves 1..4
  const SpanningForestProtocol protocol(g, {2});
  Configuration config(g, protocol.spec());
  protocol.install_constants(g, config);
  // From leaf 2: hub at distance 1, other leaves at 2, all through hub
  // channel 1 (each leaf's only channel); the hub's channel to leaf 2 is 2.
  const std::vector<Value> dist = {1, 2, 0, 2, 2};
  const std::vector<Value> parent = {2, 1, 0, 1, 1};
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, SpanningForestProtocol::kDistVar,
                    dist[static_cast<std::size_t>(p)]);
    config.set_comm(p, SpanningForestProtocol::kParentVar,
                    parent[static_cast<std::size_t>(p)]);
  }
  EXPECT_TRUE(BfsTreeProblem().holds(g, config));
  EXPECT_EQ(extract_bfs_root(g, config), 2);
}

TEST(IsBfsForest, OneRootValidatorIsIndependentOfProtocolLayout) {
  const Graph g = cycle(5);
  const std::vector<int> truth = {0, 1, 2, 2, 1};
  std::vector<Value> dist(truth.begin(), truth.end());
  // cycle(5) neighbors of p are sorted by id; parents chosen one level
  // down on each side of the cycle.
  const std::vector<Value> parent = {0, 1, 1, 2, 1};
  EXPECT_TRUE(is_bfs_forest(g, {0}, dist, parent));
  dist[2] = 3;
  EXPECT_FALSE(is_bfs_forest(g, {0}, dist, parent));
}

Configuration legitimate_election_config(const Graph& g,
                                         const LeaderElectionProtocol& p) {
  Configuration config(g, p.spec());
  p.install_constants(g, config);
  const std::vector<Value> dist = {0, 1, 2, 3};
  const std::vector<Value> parent = {0, 1, 1, 1};
  for (ProcessId q = 0; q < g.num_vertices(); ++q) {
    config.set_comm(q, LeaderElectionProtocol::kLeaderVar, 0);
    config.set_comm(q, LeaderElectionProtocol::kDistVar,
                    dist[static_cast<std::size_t>(q)]);
    config.set_comm(q, LeaderElectionProtocol::kParentVar,
                    parent[static_cast<std::size_t>(q)]);
  }
  return config;
}

TEST(LeaderElectionProblem, AcceptsAHandBuiltElection) {
  const Graph g = path(4);
  const LeaderElectionProtocol protocol(g, {0, 1, 2, 3});
  const Configuration config = legitimate_election_config(g, protocol);
  EXPECT_TRUE(LeaderElectionProblem().holds(g, config));
  EXPECT_EQ(extract_agreed_leader(g, config), 0);
}

TEST(LeaderElectionProblem, RejectsTwoLeaders) {
  const Graph g = path(4);
  const LeaderElectionProtocol protocol(g, {0, 1, 2, 3});
  Configuration config = legitimate_election_config(g, protocol);
  // Processes 2 and 3 secede behind leader id 2.
  config.set_comm(2, LeaderElectionProtocol::kLeaderVar, 2);
  config.set_comm(2, LeaderElectionProtocol::kDistVar, 0);
  config.set_comm(2, LeaderElectionProtocol::kParentVar, 0);
  config.set_comm(3, LeaderElectionProtocol::kLeaderVar, 2);
  config.set_comm(3, LeaderElectionProtocol::kDistVar, 1);
  EXPECT_FALSE(LeaderElectionProblem().holds(g, config));
  EXPECT_EQ(extract_agreed_leader(g, config), -1);
}

TEST(LeaderElectionProblem, RejectsAgreedButWrongLeader) {
  const Graph g = path(4);
  const LeaderElectionProtocol protocol(g, {0, 1, 2, 3});
  Configuration config = legitimate_election_config(g, protocol);
  // Everyone agrees on id 1 — consistent tree rooted at process 1, but
  // not the minimum identifier.
  const std::vector<Value> dist = {1, 0, 1, 2};
  const std::vector<Value> parent = {1, 0, 1, 1};
  for (ProcessId q = 0; q < g.num_vertices(); ++q) {
    config.set_comm(q, LeaderElectionProtocol::kLeaderVar, 1);
    config.set_comm(q, LeaderElectionProtocol::kDistVar,
                    dist[static_cast<std::size_t>(q)]);
    config.set_comm(q, LeaderElectionProtocol::kParentVar,
                    parent[static_cast<std::size_t>(q)]);
  }
  EXPECT_FALSE(LeaderElectionProblem().holds(g, config));
  EXPECT_EQ(extract_agreed_leader(g, config), 1);
}

TEST(LeaderElectionProblem, RejectsDistanceAndOwnerDefects) {
  const Graph g = path(4);
  const LeaderElectionProtocol protocol(g, {0, 1, 2, 3});
  {
    // Distance off-by-one breaks tree agreement.
    Configuration config = legitimate_election_config(g, protocol);
    config.set_comm(3, LeaderElectionProtocol::kDistVar, 2);
    EXPECT_FALSE(LeaderElectionProblem().holds(g, config));
  }
  {
    // The owner must be in the self state.
    Configuration config = legitimate_election_config(g, protocol);
    config.set_comm(0, LeaderElectionProtocol::kDistVar, 1);
    EXPECT_FALSE(LeaderElectionProblem().holds(g, config));
  }
  {
    // Parent pointing away from the owner breaks the chain.
    Configuration config = legitimate_election_config(g, protocol);
    config.set_comm(1, LeaderElectionProtocol::kParentVar, 2);
    EXPECT_FALSE(LeaderElectionProblem().holds(g, config));
  }
}

TEST(LeaderElectionProblem, WinnerFollowsTheIdAssignment) {
  const Graph g = path(3);
  // reverse ids: process 2 owns id 0 and must win.
  const LeaderElectionProtocol protocol(g, make_id_assignment(g, "reverse", 0));
  Configuration config(g, protocol.spec());
  protocol.install_constants(g, config);
  const std::vector<Value> dist = {2, 1, 0};
  const std::vector<Value> parent = {1, 2, 0};
  for (ProcessId q = 0; q < g.num_vertices(); ++q) {
    config.set_comm(q, LeaderElectionProtocol::kLeaderVar, 0);
    config.set_comm(q, LeaderElectionProtocol::kDistVar,
                    dist[static_cast<std::size_t>(q)]);
    config.set_comm(q, LeaderElectionProtocol::kParentVar,
                    parent[static_cast<std::size_t>(q)]);
  }
  EXPECT_TRUE(LeaderElectionProblem().holds(g, config));
}

}  // namespace
}  // namespace sss
