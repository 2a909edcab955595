/// The registry-wide property suite: every protocol name in the
/// ProtocolRegistry — the paper's three 1-efficient protocols, the
/// BFS-tree and leader-election protocols, and all full-read baselines —
/// runs through the shared harness grid (daemon x menagerie x seed),
/// asserting convergence to certified silence, legitimacy of the silent
/// configuration, closure/silence over a post-silence window, and
/// step-for-step ReferenceEngine equivalence. A protocol registered
/// without surviving this grid is a registry bug by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "protocol_harness.hpp"

namespace sss {
namespace {

TEST(ProtocolPropertySuite, RegistryCoversThePaperProtocolsAndBaselines) {
  const std::vector<std::string> expected_protocols = {
      "bfs-tree",          "coloring",
      "full-read-bfs-tree", "full-read-coloring",
      "full-read-leader-election", "full-read-matching",
      "full-read-mis",     "full-read-spanning-forest",
      "leader-election",   "matching",
      "mis",               "spanning-forest"};
  EXPECT_EQ(ProtocolRegistry::instance().protocol_names(),
            expected_protocols);
  const std::vector<std::string> expected_all = {
      "bfs-tree",          "coloring",
      "full-read-bfs-tree", "full-read-coloring",
      "full-read-leader-election", "full-read-matching",
      "full-read-mis",     "full-read-spanning-forest",
      "generic-efficiency", "leader-election",
      "matching",          "mis",
      "pairwise-coloring", "pairwise-separation",
      "rotating-check",    "spanning-forest"};
  EXPECT_EQ(ProtocolRegistry::instance().names(), expected_all);
}

TEST(ProtocolPropertySuite, EveryBaseEntryNamesARegisteredProblem) {
  // The harness pairs protocols with predicates through the registry; an
  // entry with a dangling problem name would make the grid vacuous.
  for (const std::string& name :
       ProtocolRegistry::instance().protocol_names()) {
    const std::string& problem = ProtocolRegistry::instance().info(name).problem;
    EXPECT_FALSE(problem.empty()) << name;
    EXPECT_TRUE(ProblemRegistry::instance().contains(problem))
        << name << " -> " << problem;
  }
}

TEST(ProtocolPropertySuite, ConvergenceClosureSilenceEquivalenceGrid) {
  const std::vector<testing::HarnessReport> reports =
      testing::run_registry_property_suite();
  ASSERT_EQ(reports.size(),
            ProtocolRegistry::instance().protocol_names().size());
  int total_trials = 0;
  for (const testing::HarnessReport& report : reports) {
    EXPECT_TRUE(report.ok()) << report.str();
    total_trials += report.trials;
  }
  // 12 protocols x 7 graphs x 6 daemons x 2 seeds, minus the grid cells
  // outside full-read-coloring's daemon assumption (7 graphs x 2 excluded
  // daemons x 2 seeds).
  EXPECT_EQ(total_trials, 1008 - 28);
}

TEST(ProtocolPropertySuite, ScalarForcedGridStaysInLockstep) {
  // The default grid above runs every opted-in protocol's slab kernels
  // (kAuto refreshes and executes through them at every dirty-set and
  // selection size; the wrong-sweep and wrong-execute toys in
  // tests/test_protocol_harness.cpp prove that leg falsifiable). This
  // leg pins every engine to the scalar defaults — one first_enabled
  // probe per dirty id, one virtual guard re-run and execute per selected
  // process — so the scalar defaults keep their own ReferenceEngine
  // lockstep: configs, rounds, and read metrics alike.
  testing::HarnessOptions options;
  options.sweep_mode = SweepMode::kForceScalar;
  options.seeds_per_daemon = 1;
  const std::vector<testing::HarnessReport> reports =
      testing::run_registry_property_suite(options);
  ASSERT_EQ(reports.size(),
            ProtocolRegistry::instance().protocol_names().size());
  for (const testing::HarnessReport& report : reports) {
    EXPECT_TRUE(report.ok()) << report.str();
  }
}

TEST(ProtocolPropertySuite, ParallelSteppingForcedGridStaysInLockstep) {
  // The registry-wide grid again, with every fast engine running the
  // intra-trial parallel step (3 workers — odd, so 64-aligned range
  // boundaries and the selection-slice boundaries disagree, the shape
  // most likely to expose a merge-order bug). Engine invariant 7 says
  // this changes nothing: convergence/legitimacy/closure must hold and
  // every trial's ReferenceEngine lockstep must stay bit-identical.
  testing::HarnessOptions options;
  options.parallel_threads = 3;
  options.seeds_per_daemon = 1;
  const std::vector<testing::HarnessReport> reports =
      testing::run_registry_property_suite(options);
  ASSERT_EQ(reports.size(),
            ProtocolRegistry::instance().protocol_names().size());
  for (const testing::HarnessReport& report : reports) {
    EXPECT_TRUE(report.ok()) << report.str();
  }
}

TEST(ProtocolPropertySuite, ClosureUnderFaultsAcrossTheRegistryGrid) {
  // Fault closure (the churn suite's per-cell core): stabilize, corrupt a
  // random victim set through Engine::apply_external_corruption, and
  // re-converge to a certified-silent legitimate configuration — for
  // every protocol x daemon x menagerie cell. Falsifiability of this leg
  // is proven by the poison-latch toy in tests/test_protocol_harness.cpp.
  testing::HarnessOptions options;
  options.seeds_per_daemon = 1;
  const std::vector<testing::HarnessReport> reports =
      testing::run_registry_fault_closure_suite(options);
  ASSERT_EQ(reports.size(),
            ProtocolRegistry::instance().protocol_names().size());
  int total_trials = 0;
  for (const testing::HarnessReport& report : reports) {
    EXPECT_TRUE(report.ok()) << report.str();
    total_trials += report.trials;
  }
  // Same grid shape as the property suite at one seed per daemon.
  EXPECT_EQ(total_trials, 504 - 14);
}

TEST(ProtocolPropertySuite, NonDefaultParametersRunTheSameGrid) {
  // The harness forwards registry parameters, so parameterized variants
  // (non-zero root, shuffled identifiers) get the same coverage.
  testing::HarnessOptions options;
  options.seeds_per_daemon = 1;
  options.params = {{"root", 3}};
  const testing::HarnessReport bfs =
      testing::run_protocol_property_suite("bfs-tree", options);
  EXPECT_TRUE(bfs.ok()) << bfs.str();

  options.params = {{"id_scheme", "random"}, {"id_seed", 9}};
  const testing::HarnessReport election =
      testing::run_protocol_property_suite("leader-election", options);
  EXPECT_TRUE(election.ok()) << election.str();
}

}  // namespace
}  // namespace sss
