/// Tests for the Graph core and every builder, including the paper's
/// gadget graphs (Theorem 1 spider, Theorem 2 gadget, Figures 9 and 11).

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "support/require.hpp"

namespace sss {
namespace {

TEST(Graph, FromEdgesBasics) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.min_degree(), 1);
}

TEST(Graph, LocalIndicesRoundTrip) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {2, 3}});
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    for (NbrIndex i = 1; i <= g.degree(p); ++i) {
      const ProcessId q = g.neighbor(p, i);
      EXPECT_EQ(g.local_index_of(p, q), i);
      EXPECT_NE(g.local_index_of(q, p), 0);
    }
  }
  EXPECT_EQ(g.local_index_of(1, 2), 0);  // not adjacent
}

TEST(Graph, FromEdgesSortsChannels) {
  const Graph g = Graph::from_edges(3, {{2, 1}, {0, 2}});
  EXPECT_EQ(g.neighbor(2, 1), 0);
  EXPECT_EQ(g.neighbor(2, 2), 1);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 0}}), PreconditionError);
  EXPECT_THROW(Graph::from_edges(2, {{0, 1}, {1, 0}}), PreconditionError);
  EXPECT_THROW(Graph::from_edges(2, {{0, 5}}), PreconditionError);
}

TEST(Graph, FromPortsRespectsOrder) {
  // Vertex 1's channel 1 is vertex 2, channel 2 is vertex 0.
  const Graph g = Graph::from_ports({{1}, {2, 0}, {1}});
  EXPECT_EQ(g.neighbor(1, 1), 2);
  EXPECT_EQ(g.neighbor(1, 2), 0);
  EXPECT_EQ(g.local_index_of(1, 0), 2);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Graph, FromPortsValidatesSymmetry) {
  EXPECT_THROW(Graph::from_ports({{1}, {}}), PreconditionError);
  EXPECT_THROW(Graph::from_ports({{0}}), PreconditionError);
  EXPECT_THROW(Graph::from_ports({{1, 1}, {0, 0}}), PreconditionError);
}

TEST(Graph, EdgesSortedAndComplete) {
  const Graph g = Graph::from_ports({{2, 1}, {0, 2}, {1, 0}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Builders, Path) {
  const Graph g = path(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.min_degree(), 1);
  EXPECT_TRUE(is_connected(g));
}

TEST(Builders, Cycle) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.min_degree(), 2);
  EXPECT_THROW(cycle(2), PreconditionError);
}

TEST(Builders, Complete) {
  const Graph g = complete(6);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(g.min_degree(), 5);
}

TEST(Builders, StarAndWheel) {
  const Graph s = star(7);
  EXPECT_EQ(s.num_vertices(), 8);
  EXPECT_EQ(s.degree(0), 7);
  EXPECT_EQ(s.min_degree(), 1);
  const Graph w = wheel(5);
  EXPECT_EQ(w.num_vertices(), 6);
  EXPECT_EQ(w.num_edges(), 10);
  EXPECT_EQ(w.degree(0), 5);
  EXPECT_EQ(w.degree(1), 3);
}

TEST(Builders, GridAndTorus) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);
  EXPECT_TRUE(is_connected(g));
  const Graph t = torus(3, 3);
  EXPECT_EQ(t.num_edges(), 18);
  EXPECT_EQ(t.min_degree(), 4);
  EXPECT_EQ(t.max_degree(), 4);
}

TEST(Builders, Hypercube) {
  const Graph q3 = hypercube(3);
  EXPECT_EQ(q3.num_vertices(), 8);
  EXPECT_EQ(q3.num_edges(), 12);
  EXPECT_EQ(q3.min_degree(), 3);
  EXPECT_EQ(q3.max_degree(), 3);
}

TEST(Builders, CompleteBipartite) {
  const Graph g = complete_bipartite(2, 3);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Builders, BinaryTreeAndCaterpillar) {
  const Graph t = balanced_binary_tree(7);
  EXPECT_EQ(t.num_edges(), 6);
  EXPECT_TRUE(is_connected(t));
  const Graph c = caterpillar(3, 2);
  EXPECT_EQ(c.num_vertices(), 9);
  EXPECT_EQ(c.num_edges(), 8);
}

TEST(Builders, LollipopAndBarbell) {
  const Graph l = lollipop(4, 3);
  EXPECT_EQ(l.num_vertices(), 7);
  EXPECT_EQ(l.num_edges(), 6 + 3);
  EXPECT_TRUE(is_connected(l));
  const Graph b = barbell(3, 2);
  EXPECT_EQ(b.num_vertices(), 8);
  EXPECT_EQ(b.num_edges(), 3 + 3 + 3);
  EXPECT_TRUE(is_connected(b));
}

TEST(Builders, Petersen) {
  const Graph g = petersen();
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(g.min_degree(), 3);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Builders, RandomTreeIsTree) {
  Rng rng(1);
  for (int n : {1, 2, 5, 20}) {
    const Graph t = random_tree(n, rng);
    EXPECT_EQ(t.num_vertices(), n);
    EXPECT_EQ(t.num_edges(), n - 1);
    if (n >= 2) {
      EXPECT_TRUE(is_connected(t));
    }
  }
}

TEST(Builders, ErdosRenyiConnected) {
  Rng rng(2);
  for (double p : {0.0, 0.1, 0.5, 1.0}) {
    const Graph g = erdos_renyi_connected(15, p, rng);
    EXPECT_EQ(g.num_vertices(), 15);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Builders, RandomRegular) {
  Rng rng(3);
  const Graph g = random_regular(12, 3, rng);
  EXPECT_EQ(g.min_degree(), 3);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(random_regular(5, 3, rng), PreconditionError);  // odd n*d
}

TEST(Builders, PreferentialAttachmentShape) {
  Rng rng(4);
  for (const auto [n, m] : {std::pair{10, 1}, {40, 2}, {120, 3}}) {
    const Graph g = preferential_attachment(n, m, rng);
    EXPECT_EQ(g.num_vertices(), n);
    // (m+1)-clique core plus m edges per arriving vertex, all simple.
    EXPECT_EQ(g.num_edges(), m * (m + 1) / 2 + (n - m - 1) * m);
    EXPECT_GE(g.min_degree(), m);
    EXPECT_TRUE(is_connected(g));
  }
  // The power-law signature: some early vertex accumulates degree well
  // above m (a G(n, p) of equal density a.s. would not at this size).
  Rng hub_rng(5);
  const Graph g = preferential_attachment(200, 2, hub_rng);
  EXPECT_GE(g.max_degree(), 12);
  EXPECT_THROW(preferential_attachment(3, 3, rng), PreconditionError);
  EXPECT_THROW(preferential_attachment(5, 0, rng), PreconditionError);
}

TEST(Builders, RandomGeometricConnectedAndLocal) {
  for (double radius : {0.08, 0.2, 0.6}) {
    Rng rng(6);
    const Graph g = random_geometric(60, radius, rng);
    EXPECT_EQ(g.num_vertices(), 60);
    EXPECT_TRUE(is_connected(g));
  }
  // A generous radius on few points approaches the complete graph — the
  // cell grid must not lose any in-range pair across cell boundaries.
  Rng rng(7);
  const Graph dense = random_geometric(12, 1.5, rng);
  EXPECT_EQ(dense.num_edges(), 12 * 11 / 2);
  EXPECT_THROW(random_geometric(5, 0.0, rng), PreconditionError);
  EXPECT_THROW(random_geometric(0, 0.2, rng), PreconditionError);
}

TEST(Builders, GridOfClustersShape) {
  const Graph g = grid_of_clusters(2, 3, 4);
  EXPECT_EQ(g.num_vertices(), 2 * 3 * 4);
  // Six K_4 cliques plus one bridge per adjacent cluster pair (7 pairs
  // in a 2x3 grid).
  EXPECT_EQ(g.num_edges(), 6 * 6 + 7);
  EXPECT_TRUE(is_connected(g));
  // Deterministic: no seed, so two builds are the same graph.
  EXPECT_EQ(g.edges(), grid_of_clusters(2, 3, 4).edges());
  // Degenerate corners still build: one cluster, and singleton clusters
  // (which reduce to the plain grid).
  EXPECT_EQ(grid_of_clusters(1, 1, 5).num_edges(), 10);
  const Graph thin = grid_of_clusters(3, 3, 1);
  EXPECT_EQ(thin.num_vertices(), 9);
  EXPECT_TRUE(is_connected(thin));
  EXPECT_THROW(grid_of_clusters(0, 3, 4), PreconditionError);
}

TEST(Builders, RandomFamiliesAreSeedReproducible) {
  // Same seed -> identical edge lists; different seed -> (at these sizes)
  // a different graph. This is what lets manifests name a topology by
  // (family, params, seed) and get the same experiment everywhere.
  const auto build_pa = [](std::uint64_t seed) {
    Rng rng(seed);
    return preferential_attachment(50, 2, rng);
  };
  EXPECT_EQ(build_pa(11).edges(), build_pa(11).edges());
  EXPECT_NE(build_pa(11).edges(), build_pa(12).edges());
  const auto build_geo = [](std::uint64_t seed) {
    Rng rng(seed);
    return random_geometric(50, 0.25, rng);
  };
  EXPECT_EQ(build_geo(11).edges(), build_geo(11).edges());
  EXPECT_NE(build_geo(11).edges(), build_geo(12).edges());
}

TEST(Builders, Theorem1SpiderShape) {
  for (int delta : {2, 3, 4}) {
    const Graph g = theorem1_spider(delta);
    EXPECT_EQ(g.num_vertices(), delta * delta + 1);
    EXPECT_EQ(g.max_degree(), delta);
    EXPECT_EQ(g.degree(0), delta);           // center
    for (int m = 1; m <= delta; ++m) {
      EXPECT_EQ(g.degree(m), delta);          // middles
    }
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Builders, Theorem2GadgetShape) {
  const RootedDag dag = theorem2_gadget(2);
  EXPECT_EQ(dag.graph.num_vertices(), 6);
  EXPECT_EQ(dag.graph.num_edges(), 6);
  EXPECT_EQ(dag.graph.max_degree(), 2);
  EXPECT_EQ(dag.root, 0);
  EXPECT_EQ(dag.oriented.size(), 6u);
  const RootedDag dag3 = theorem2_gadget(3);
  EXPECT_EQ(dag3.graph.num_vertices(), 12);  // +1 pendant per core process
  EXPECT_EQ(dag3.graph.max_degree(), 3);
}

TEST(Builders, Fig11TightMatchingShape) {
  const Graph g = fig11_tight_matching();
  EXPECT_EQ(g.num_edges(), 14);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.num_vertices(), 15);
  EXPECT_TRUE(is_connected(g));
  // The four core processes all have full degree; the bridge vertex has
  // two; pendants are leaves.
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(g.degree(p), 4);
  EXPECT_EQ(g.degree(4), 2);
  for (ProcessId p = 5; p < 15; ++p) EXPECT_EQ(g.degree(p), 1);
}

TEST(GraphIo, DotContainsVerticesAndEdges) {
  const Graph g = path(3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
  const std::string colored = to_dot(g, Coloring{1, 2, 1});
  EXPECT_NE(colored.find("label=\"1:2\""), std::string::npos);
}

}  // namespace
}  // namespace sss
