/// Tests for the ♦-(x,1)-stability bounds: Theorem 6 (MIS, with the
/// Figure 9 tight example) and Theorem 8 (MATCHING, with the Figure 11
/// tight example), on small graphs and at the scale of the paper's E4 and
/// E6 tables.

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/problems.hpp"
#include "core/stability.hpp"
#include "graph/builders.hpp"
#include "graph/properties.hpp"
#include "runtime/engine.hpp"
#include "runtime/quiescence.hpp"

namespace sss {
namespace {

TEST(Bounds, Formulas) {
  EXPECT_EQ(coloring_palette_size(4), 5);
  EXPECT_EQ(mis_round_bound(3, 4), 12);
  EXPECT_EQ(matching_round_bound(10, 3), 42);
  EXPECT_EQ(spanning_forest_round_bound(10, 3), 42);
  EXPECT_EQ(leader_election_round_bound(10, 3), 52);
  EXPECT_THROW(spanning_forest_round_bound(1, 1), PreconditionError);
  EXPECT_THROW(leader_election_round_bound(2, 0), PreconditionError);
  EXPECT_EQ(mis_one_stable_lower_bound(6), 3);
  EXPECT_EQ(mis_one_stable_lower_bound(7), 4);
  EXPECT_EQ(matching_size_lower_bound(14, 4), 2);  // Figure 11 numbers
  EXPECT_EQ(matching_one_stable_lower_bound(14, 4), 4);
  EXPECT_EQ(coloring_comm_bits_efficient(4), 3);
  EXPECT_EQ(coloring_comm_bits_full_read(4, 4), 12);
}

// Theorem 6: at least floor((Lmax+1)/2) processes are eventually 1-stable
// under Protocol MIS.
TEST(MisStability, MeetsTheorem6LowerBound) {
  struct Case {
    Graph g;
    int lmax;
  };
  std::vector<Case> cases;
  cases.push_back({fig9_path(7), 6});
  cases.push_back({fig9_path(8), 7});
  cases.push_back({cycle(8), longest_path_exact(cycle(8))});
  cases.push_back({star(5), longest_path_exact(star(5))});
  cases.push_back({grid(3, 3), longest_path_exact(grid(3, 3))});
  for (const auto& [g, lmax] : cases) {
    const MisProtocol protocol(g, identity_coloring(g));
    for (std::uint64_t seed : {81u, 82u, 83u}) {
      Engine engine(g, protocol, make_distributed_random_daemon(), seed);
      engine.randomize_state();
      const StabilityReport report = analyze_stability(engine, {}, 6);
      ASSERT_TRUE(report.silent) << g.name();
      EXPECT_GE(report.one_stable_count, mis_one_stable_lower_bound(lmax))
          << g.name() << " seed " << seed;
    }
  }
}

// Theorem 6 at the scale of the E4 table: Figure 9's paths up to n = 21
// and five other families, five seeds each, with the exact Lmax.
TEST(MisStability, MeetsTheorem6LowerBoundAtTableScale) {
  for (const Graph& g :
       {fig9_path(9), fig9_path(15), fig9_path(21), cycle(12), grid(4, 5),
        star(8), caterpillar(5, 2), petersen()}) {
    const std::int64_t bound =
        mis_one_stable_lower_bound(longest_path_exact(g, 32));
    const MisProtocol protocol(g, identity_coloring(g));
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      Engine engine(g, protocol, make_distributed_random_daemon(), seed);
      engine.randomize_state();
      const StabilityReport report = analyze_stability(engine, {}, 6);
      ASSERT_TRUE(report.silent) << g.name() << " seed " << seed;
      EXPECT_GE(report.one_stable_count, bound)
          << g.name() << " seed " << seed;
    }
  }
}

// Figure 9: on a path the bound is tight — the alternating-Dominator
// silent configuration has exactly floor(n/2) 1-stable (dominated)
// processes, and it is a genuine silent configuration of the protocol.
TEST(MisStability, Fig9AlternatingConfigurationIsTight) {
  for (const int n : {7, 9, 13}) {
    const Graph g = fig9_path(n);
    const MisProtocol protocol(g, identity_coloring(g));
    Configuration config(g, protocol.spec());
    protocol.install_constants(g, config);
    int dominated_count = 0;
    for (ProcessId p = 0; p < n; ++p) {
      const bool dominator = p % 2 == 0;  // black nodes of Figure 9
      config.set_comm(p, MisProtocol::kStateVar,
                      dominator ? MisProtocol::kDominator
                                : MisProtocol::kDominated);
      // Dominated processes rest their pointer on a Dominator neighbor.
      config.set_internal(p, MisProtocol::kCurVar, 1);
      if (!dominator) ++dominated_count;
    }
    EXPECT_TRUE(is_comm_quiescent(g, protocol, config)) << "n = " << n;
    EXPECT_TRUE(MisProblem().holds(g, config)) << "n = " << n;
    // Lmax = n-1; the dominated (= 1-stable) count matches the bound
    // exactly.
    EXPECT_EQ(dominated_count, mis_one_stable_lower_bound(n - 1))
        << "n = " << n;
  }
}

// Theorem 8: at least 2*ceil(m/(2Delta-1)) processes are eventually
// 1-stable under Protocol MATCHING.
TEST(MatchingStability, MeetsTheorem8LowerBound) {
  for (Graph g : {cycle(10), grid(3, 4), star(5), petersen()}) {
    const MatchingProtocol protocol(g, identity_coloring(g));
    for (std::uint64_t seed : {91u, 92u}) {
      Engine engine(g, protocol, make_distributed_random_daemon(), seed);
      engine.randomize_state();
      const StabilityReport report = analyze_stability(engine, {}, 6);
      ASSERT_TRUE(report.silent) << g.name();
      EXPECT_GE(
          report.one_stable_count,
          matching_one_stable_lower_bound(g.num_edges(), g.max_degree()))
          << g.name() << " seed " << seed;
    }
  }
}

// Theorem 8 at the scale of the E6 table: seven graphs, Figure 11's
// included, five seeds each.
TEST(MatchingStability, MeetsTheorem8LowerBoundAtTableScale) {
  for (const Graph& g : {cycle(12), path(15), grid(4, 5), star(8), petersen(),
                         complete(7), fig11_tight_matching()}) {
    const std::int64_t bound =
        matching_one_stable_lower_bound(g.num_edges(), g.max_degree());
    const MatchingProtocol protocol(g, identity_coloring(g));
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      Engine engine(g, protocol, make_distributed_random_daemon(), seed);
      engine.randomize_state();
      const StabilityReport report = analyze_stability(engine, {}, 6);
      ASSERT_TRUE(report.silent) << g.name() << " seed " << seed;
      EXPECT_GE(report.one_stable_count, bound)
          << g.name() << " seed " << seed;
    }
  }
}

// Figure 11: the Delta=4, m=14 graph where a maximal matching of exactly
// ceil(m/(2Delta-1)) = 2 edges exists; its silent configuration has
// exactly 4 married (1-stable) processes — the bound is tight.
TEST(MatchingStability, Fig11ConfigurationIsTight) {
  const Graph g = fig11_tight_matching();
  const MatchingProtocol protocol(g, identity_coloring(g));
  Configuration config(g, protocol.spec());
  protocol.install_constants(g, config);
  // Marry the core pairs {0,1} and {2,3}; pendants stay free.
  auto marry = [&](ProcessId a, ProcessId b) {
    config.set_comm(a, MatchingProtocol::kPrVar,
                    static_cast<Value>(g.local_index_of(a, b)));
    config.set_internal(a, MatchingProtocol::kCurVar,
                        static_cast<Value>(g.local_index_of(a, b)));
    config.set_comm(a, MatchingProtocol::kMarriedVar, 1);
    config.set_comm(b, MatchingProtocol::kPrVar,
                    static_cast<Value>(g.local_index_of(b, a)));
    config.set_internal(b, MatchingProtocol::kCurVar,
                        static_cast<Value>(g.local_index_of(b, a)));
    config.set_comm(b, MatchingProtocol::kMarriedVar, 1);
  };
  marry(0, 1);
  marry(2, 3);
  EXPECT_TRUE(is_comm_quiescent(g, protocol, config));
  EXPECT_TRUE(MatchingProblem().holds(g, config));
  const auto matched = extract_matching(g, config);
  EXPECT_EQ(static_cast<std::int64_t>(matched.size()),
            matching_size_lower_bound(g.num_edges(), g.max_degree()));
  EXPECT_EQ(static_cast<std::int64_t>(2 * matched.size()),
            matching_one_stable_lower_bound(g.num_edges(), g.max_degree()));
}

// The measured 1-stable count equals the dominated/married count — the
// structural identity behind both theorems.
TEST(Stability, OneStableCountMatchesRoleCount) {
  const Graph g = grid(3, 4);
  {
    const MisProtocol protocol(g, greedy_coloring(g));
    Engine engine(g, protocol, make_distributed_random_daemon(), 93);
    engine.randomize_state();
    const StabilityReport report = analyze_stability(engine, {}, 6);
    ASSERT_TRUE(report.silent);
    int dominated = 0;
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      if (engine.config().comm(p, MisProtocol::kStateVar) ==
          MisProtocol::kDominated) {
        ++dominated;
      }
    }
    EXPECT_EQ(report.one_stable_count, dominated);
  }
  {
    const MatchingProtocol protocol(g, greedy_coloring(g));
    Engine engine(g, protocol, make_distributed_random_daemon(), 94);
    engine.randomize_state();
    const StabilityReport report = analyze_stability(engine, {}, 6);
    ASSERT_TRUE(report.silent);
    EXPECT_EQ(report.one_stable_count,
              static_cast<int>(2 * extract_matching(g, engine.config())
                                       .size()));
  }
}

TEST(Stability, ReportCountAtMost) {
  StabilityReport report;
  report.suffix_read_set_sizes = {0, 1, 2, 3, 1};
  EXPECT_EQ(report.count_at_most(1), 3);
  EXPECT_EQ(report.count_at_most(0), 1);
  EXPECT_EQ(report.count_at_most(3), 5);
}

}  // namespace
}  // namespace sss
