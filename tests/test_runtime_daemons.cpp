/// Tests for the daemon family: selection shape, fairness, the factory,
/// and the enabled-set feed — daemons now consume the engine-maintained
/// `EnabledSet` instead of rescanning an n-byte bitmap, and the random
/// daemons must keep their historical sorted-enumeration semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/coloring_protocol.hpp"
#include "graph/builders.hpp"
#include "runtime/daemon.hpp"
#include "runtime/engine.hpp"
#include "runtime/enabled_set.hpp"
#include "runtime/reference_engine.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

using testing::AlwaysFlip;
using testing::Inert;

EnabledSet set_from_bitmap(const std::vector<std::uint8_t>& bitmap) {
  EnabledSet set(static_cast<int>(bitmap.size()));
  for (std::size_t p = 0; p < bitmap.size(); ++p) {
    set.assign(static_cast<ProcessId>(p), bitmap[p] != 0);
  }
  return set;
}

EnabledSet all_enabled(int n) {
  return set_from_bitmap(std::vector<std::uint8_t>(
      static_cast<std::size_t>(n), 1));
}

TEST(EnabledSetTest, AssignCountKthNextCyclic) {
  EnabledSet set(130);  // spans three words
  EXPECT_EQ(set.count(), 0);
  EXPECT_EQ(set.next_cyclic(5), -1);
  for (ProcessId p : {3, 64, 65, 129}) set.assign(p, true);
  set.assign(64, true);  // idempotent
  EXPECT_EQ(set.count(), 4);
  EXPECT_TRUE(set.test(64));
  EXPECT_FALSE(set.test(63));
  EXPECT_EQ(set.kth(0), 3);
  EXPECT_EQ(set.kth(1), 64);
  EXPECT_EQ(set.kth(2), 65);
  EXPECT_EQ(set.kth(3), 129);
  EXPECT_EQ(set.next_cyclic(-1), 3);
  EXPECT_EQ(set.next_cyclic(3), 64);
  EXPECT_EQ(set.next_cyclic(129), 3);  // wraps
  set.assign(64, false);
  set.assign(64, false);  // idempotent
  EXPECT_EQ(set.count(), 3);
  EXPECT_EQ(set.kth(1), 65);
  std::vector<ProcessId> seen;
  set.for_each([&](ProcessId p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<ProcessId>{3, 65, 129}));
}

TEST(EnabledSetTest, ComplementMasksTheTailWordAndCountsExactly) {
  // Universes on both sides of a word boundary, and a three-word one.
  for (const int universe : {1, 63, 64, 65, 130}) {
    EnabledSet members(universe);
    for (ProcessId p = 0; p < universe; p += 3) members.assign(p, true);
    // A pending deferred delta leaves members.count() stale; the
    // complement's count must not depend on it.
    members.assign_deferred(universe - 1, true);
    EnabledSet complement(universe);
    complement.assign(0, true);  // stale contents are overwritten
    complement.assign_complement(members);
    int expected = 0;
    for (ProcessId p = 0; p < universe; ++p) {
      EXPECT_EQ(complement.test(p), !members.test(p))
          << "universe " << universe << " id " << p;
      expected += members.test(p) ? 0 : 1;
    }
    EXPECT_EQ(complement.count(), expected) << universe;
    // No id at or past the universe leaks out of the last word.
    std::vector<ProcessId> seen;
    complement.for_each([&](ProcessId p) { seen.push_back(p); });
    EXPECT_EQ(static_cast<int>(seen.size()), expected) << universe;
    for (const ProcessId p : seen) EXPECT_LT(p, universe);

    // The complement of the empty set is the whole universe, exactly.
    complement.assign_complement(EnabledSet(universe));
    EXPECT_EQ(complement.count(), universe);
    EXPECT_EQ(complement.kth(universe - 1), universe - 1);
    EXPECT_EQ(complement.next_at_least(universe), -1);
    seen.clear();
    complement.for_each([&](ProcessId p) { seen.push_back(p); });
    EXPECT_EQ(static_cast<int>(seen.size()), universe);
    // And the complement of the whole universe is empty.
    EnabledSet full(universe);
    full.assign_complement(complement);
    EXPECT_EQ(full.count(), 0) << universe;
    EXPECT_EQ(full.next_at_least(0), -1) << universe;
  }
}

TEST(Daemons, FactoryKnowsAllNames) {
  for (const std::string& name : daemon_names()) {
    const auto daemon = make_daemon(name);
    EXPECT_EQ(daemon->name(), name);
  }
  EXPECT_THROW(make_daemon("nonsense"), PreconditionError);
}

TEST(Daemons, SynchronousSelectsExactlyTheEnabled) {
  const Graph g = path(5);
  auto daemon = make_synchronous_daemon();
  const EnabledSet enabled = set_from_bitmap({1, 0, 1, 0, 1});
  Rng rng(1);
  std::vector<ProcessId> out;
  daemon->select(g, enabled, rng, out);
  EXPECT_EQ(out, (std::vector<ProcessId>{0, 2, 4}));
}

TEST(Daemons, SynchronousFallsBackToEveryone) {
  const Graph g = path(3);
  auto daemon = make_synchronous_daemon();
  const EnabledSet enabled(3);
  Rng rng(1);
  std::vector<ProcessId> out;
  daemon->select(g, enabled, rng, out);
  EXPECT_EQ(out.size(), 3u);  // no-op step, but non-empty as the model asks
}

TEST(Daemons, CentralDaemonsPickOneEnabledProcess) {
  const Graph g = path(6);
  Rng rng(2);
  for (const char* name : {"central-rr", "central-random"}) {
    auto daemon = make_daemon(name);
    const EnabledSet enabled = set_from_bitmap({0, 1, 0, 1, 1, 0});
    for (int step = 0; step < 20; ++step) {
      std::vector<ProcessId> out;
      daemon->select(g, enabled, rng, out);
      ASSERT_EQ(out.size(), 1u) << name;
      EXPECT_TRUE(enabled.test(out[0])) << name;
    }
  }
}

TEST(Daemons, CentralRoundRobinCyclesFairly) {
  const Graph g = path(4);
  auto daemon = make_central_round_robin_daemon();
  Rng rng(3);
  std::vector<ProcessId> seen;
  for (int step = 0; step < 8; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, all_enabled(4), rng, out);
    seen.push_back(out[0]);
  }
  EXPECT_EQ(seen, (std::vector<ProcessId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Daemons, EnumeratorIsPeriodic) {
  const Graph g = path(3);
  auto daemon = make_fair_enumerator_daemon();
  Rng rng(4);
  for (int step = 0; step < 9; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, EnabledSet(3), rng, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], step % 3);
  }
}

TEST(Daemons, DistributedSelectsNonEmptySubsets) {
  const Graph g = path(8);
  auto daemon = make_distributed_random_daemon(0.4);
  Rng rng(5);
  for (int step = 0; step < 100; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, all_enabled(8), rng, out);
    EXPECT_GE(out.size(), 1u);
    std::set<ProcessId> dedup(out.begin(), out.end());
    EXPECT_EQ(dedup.size(), out.size());
  }
}

TEST(Daemons, DistributedIsFairOverWindows) {
  const Graph g = path(6);
  auto daemon = make_distributed_random_daemon(0.5);
  Rng rng(6);
  std::vector<int> selected(6, 0);
  for (int step = 0; step < 200; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, all_enabled(6), rng, out);
    for (ProcessId p : out) ++selected[static_cast<std::size_t>(p)];
  }
  for (int count : selected) EXPECT_GT(count, 50);
}

TEST(Daemons, DistributedTossesCoinsOverTheEnabledSetOnly) {
  const Graph g = path(8);
  auto daemon = make_distributed_random_daemon(0.5);
  Rng rng(9);
  const EnabledSet enabled = set_from_bitmap({0, 1, 0, 0, 1, 1, 0, 1});
  for (int step = 0; step < 50; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, enabled, rng, out);
    ASSERT_GE(out.size(), 1u);
    for (ProcessId p : out) EXPECT_TRUE(enabled.test(p));
  }
}

TEST(Daemons, DistributedFallsBackToOneProcessWhenNothingEnabled) {
  const Graph g = path(8);
  auto daemon = make_distributed_random_daemon(0.5);
  Rng rng(10);
  for (int step = 0; step < 50; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, EnabledSet(8), rng, out);
    ASSERT_EQ(out.size(), 1u);  // no-op step: one process, zero O(n) passes
    EXPECT_GE(out[0], 0);
    EXPECT_LT(out[0], 8);
  }
}

TEST(Daemons, DistributedRejectsBadProbability) {
  EXPECT_THROW(make_distributed_random_daemon(0.0), PreconditionError);
  EXPECT_THROW(make_distributed_random_daemon(1.5), PreconditionError);
}

/// The enabled-set feed must not change what "uniform over the enabled
/// processes" means: central-random's draw indexes the enabled ids in
/// ascending order, exactly as the retired sorted-scratch scan did.
TEST(Daemons, CentralRandomKeepsSortedEnumerationSemantics) {
  const Graph g = path(10);
  const std::vector<std::vector<std::uint8_t>> patterns = {
      {0, 1, 0, 1, 1, 0, 0, 1, 0, 1}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}};
  for (const auto& bitmap : patterns) {
    const EnabledSet enabled = set_from_bitmap(bitmap);
    auto daemon = make_central_random_daemon();
    Rng rng(77);
    Rng oracle_rng = rng;  // identical stream for the scratch-scan oracle
    for (int step = 0; step < 40; ++step) {
      std::vector<ProcessId> out;
      daemon->select(g, enabled, rng, out);
      std::vector<ProcessId> scratch;  // the pre-EnabledSet implementation
      for (ProcessId p = 0; p < 10; ++p) {
        if (bitmap[static_cast<std::size_t>(p)]) scratch.push_back(p);
      }
      if (scratch.empty()) {
        for (ProcessId p = 0; p < 10; ++p) scratch.push_back(p);
      }
      const ProcessId expected = scratch[oracle_rng.below(scratch.size())];
      ASSERT_EQ(out, (std::vector<ProcessId>{expected})) << "step " << step;
    }
  }
}

TEST(Daemons, AdversarialSelectsClusters) {
  const Graph g = star(5);
  auto daemon = make_adversarial_cluster_daemon();
  Rng rng(7);
  bool saw_cluster = false;
  for (int step = 0; step < 50; ++step) {
    std::vector<ProcessId> out;
    daemon->select(g, all_enabled(6), rng, out);
    EXPECT_GE(out.size(), 1u);
    if (out.size() >= 2) saw_cluster = true;
  }
  EXPECT_TRUE(saw_cluster);
}

TEST(Daemons, AdversarialStarvationPatchKeepsFairness) {
  const Graph g = path(8);
  const AlwaysFlip protocol(g);
  Engine engine(g, protocol, make_adversarial_cluster_daemon(), 11);
  // Run long enough that the 8n-step patience must have force-included
  // every process at least once.
  std::vector<std::uint64_t> rounds_seen;
  for (int step = 0; step < 8 * 8 * 10; ++step) engine.step();
  EXPECT_GE(engine.rounds(), 1u);
}

TEST(Daemons, EveryDaemonDrivesAlwaysFlip) {
  const Graph g = cycle(5);
  const AlwaysFlip protocol(g);
  for (const std::string& name : daemon_names()) {
    Engine engine(g, protocol, make_daemon(name), 13);
    for (int step = 0; step < 50; ++step) {
      const auto info = engine.step();
      EXPECT_GE(info.selected, 1) << name;
      EXPECT_GE(info.fired, 1) << name;  // AlwaysFlip is always enabled
    }
  }
}

TEST(Daemons, InertProtocolMakesNoOpSteps) {
  const Graph g = path(3);
  const Inert protocol(g);
  Engine engine(g, protocol, make_central_round_robin_daemon(), 17);
  const Configuration before = engine.config();
  for (int step = 0; step < 10; ++step) {
    const auto info = engine.step();
    EXPECT_EQ(info.fired, 0);
  }
  EXPECT_TRUE(before == engine.config());
}

/// Regression for the enabled-set feed: the random daemons driven by the
/// incremental engine's set must match the full-scan ReferenceEngine
/// step-for-step on the whole menagerie — selections, firings, and
/// configurations alike.
TEST(Daemons, EnabledSetFedRandomDaemonsMatchReferenceEngine) {
  for (const auto& named : testing::sweep_graphs()) {
    const ColoringProtocol protocol(named.graph);
    for (const char* daemon_name : {"central-random", "distributed"}) {
      Engine fast(named.graph, protocol, make_daemon(daemon_name), 4242);
      ReferenceEngine oracle(named.graph, protocol, make_daemon(daemon_name),
                             4242);
      fast.randomize_state();
      oracle.randomize_state();
      ASSERT_TRUE(fast.config() == oracle.config());
      for (int step = 0; step < 200; ++step) {
        const Engine::StepInfo a = fast.step();
        const Engine::StepInfo b = oracle.step();
        ASSERT_EQ(a.selected, b.selected)
            << named.label << "/" << daemon_name << " step " << step;
        ASSERT_EQ(a.fired, b.fired)
            << named.label << "/" << daemon_name << " step " << step;
        ASSERT_TRUE(fast.config() == oracle.config())
            << named.label << "/" << daemon_name << " diverged at " << step;
      }
    }
  }
}

}  // namespace
}  // namespace sss
