/// The paper's headline claims, asserted over the checked-in claim
/// manifests (examples/manifests/). Each manifest is expanded by the
/// shared plan builder and run as one batch — the same plan
/// `sss_lab run <manifest> --bench <name>` runs and prints — and every
/// item must meet the claims below:
///
///  * every run reaches a certified silent configuration and, where the
///    manifest binds a problem, a legitimate one;
///  * the read pattern: k <= 1 for COLORING, MIS and MATCHING (Theorem 3,
///    1-efficiency), k <= 2 for BFS-TREE, SPANNING-FOREST and
///    LEADER-ELECTION (arXiv:1805.02401, arXiv:2008.04252);
///  * the worst rounds to silence stay within the closed-form bound of
///    core/bounds.hpp: Lemma 4 for MIS, Lemma 9 for MATCHING, and the
///    Lemma 9-style tree and election bounds;
///  * Section 3.2's bit counts: a COLORING step reads log2(Delta+1) bits,
///    a full-read coloring step Delta * log2(Delta+1).
///
/// Full-read baselines carry no read or round claim; they must still
/// stabilize.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/batch.hpp"
#include "analysis/plan.hpp"
#include "core/bounds.hpp"
#include "core/mis_protocol.hpp"

namespace sss {
namespace {

/// The k-efficiency each protocol claims; nullopt for the baselines.
std::optional<int> read_bound(const std::string& protocol) {
  if (protocol == "COLORING" || protocol == "MIS" || protocol == "MATCHING") {
    return 1;
  }
  if (protocol == "BFS-TREE" || protocol == "SPANNING-FOREST" ||
      protocol == "LEADER-ELECTION") {
    return 2;
  }
  return std::nullopt;
}

/// The closed-form round bound of the item's protocol on its graph;
/// nullopt where the paper states none (COLORING stabilizes with
/// probability 1, without a round bound).
std::optional<std::int64_t> round_bound(const BatchItem& item) {
  const std::string& protocol = item.protocol->name();
  const int n = item.graph->num_vertices();
  const int delta = item.graph->max_degree();
  if (protocol == "MIS") {
    const auto* mis = dynamic_cast<const MisProtocol*>(item.protocol);
    return mis_round_bound(delta, mis->num_colors());
  }
  if (protocol == "MATCHING") return matching_round_bound(n, delta);
  if (protocol == "BFS-TREE" || protocol == "SPANNING-FOREST") {
    return spanning_forest_round_bound(n, delta);
  }
  if (protocol == "LEADER-ELECTION") {
    return leader_election_round_bound(n, delta);
  }
  return std::nullopt;
}

/// Section 3.2's bits per step; nullopt for protocols it does not cover.
std::optional<int> bits_per_step(const BatchItem& item) {
  const std::string& protocol = item.protocol->name();
  const int delta = item.graph->max_degree();
  if (protocol == "COLORING") return coloring_comm_bits_efficient(delta);
  if (protocol == "FULL-READ-COLORING") {
    return coloring_comm_bits_full_read(delta, delta);
  }
  return std::nullopt;
}

class PaperClaims : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperClaims, EveryItemMeetsItsBounds) {
  const ExperimentPlan plan = plan_from_manifest_file(
      std::string(SSS_MANIFEST_DIR) + "/" + GetParam() + ".json");
  const BatchResult result = run_batch(plan.items, BatchOptions{});
  ASSERT_EQ(result.summaries.size(), plan.items.size());
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const BatchItem& item = plan.items[i];
    const SweepSummary& s = result.summaries[i];
    ASSERT_GT(s.runs, 0) << item.label;
    EXPECT_EQ(s.silent_runs, s.runs)
        << item.label << ": a run failed to stabilize";
    if (item.problem != nullptr) {
      EXPECT_EQ(s.legitimate_runs, s.runs)
          << item.label << ": a run stabilized without reaching legitimacy";
    }
    if (const auto k = read_bound(item.protocol->name())) {
      EXPECT_LE(s.k_measured, *k)
          << item.label << ": k exceeded the " << *k << "-read pattern";
    }
    if (const auto bound = round_bound(item)) {
      EXPECT_LE(static_cast<std::int64_t>(s.max_rounds_to_silence), *bound)
          << item.label << ": worst rounds to silence exceed the bound";
    }
    if (const auto bits = bits_per_step(item)) {
      EXPECT_EQ(s.bits_measured, *bits)
          << item.label << ": bits read per step differ from Section 3.2";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Manifests, PaperClaims,
    ::testing::Values("coloring_convergence", "comm_complexity",
                      "mis_convergence", "matching_convergence", "bfs_tree",
                      "spanning_forest", "leader_election"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace sss
