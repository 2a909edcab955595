/// Tests for the experiment-manifest plan builder (analysis/plan.hpp):
/// expansion shape and order, defaults/override layering, base_seeds
/// pinning, equivalence with a hand-built plan, and the strict error
/// paths (unknown keys, names, and malformed sweeps).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "analysis/plan.hpp"
#include "core/coloring_protocol.hpp"
#include "graph/builders.hpp"
#include "support/require.hpp"

namespace sss {
namespace {

constexpr const char* kSmallManifest = R"({
  "name": "small",
  "defaults": {
    "daemons": ["central-rr", "distributed"],
    "seeds_per_daemon": 2,
    "max_steps": 30000,
    "base_seed": 7
  },
  "sweeps": [
    {
      "graphs": [
        {"family": "star", "leaves": [3, 4]},
        {"family": "grid", "rows": 2, "cols": [2, 3]}
      ],
      "protocols": [{"name": "coloring"}, {"name": "full-read-coloring"}],
      "problem": "vertex-coloring"
    },
    {
      "graphs": [{"family": "petersen"}],
      "protocols": [{"name": "mis"}],
      "daemons": ["synchronous"],
      "seeds_per_daemon": 1,
      "extra_steps": 16,
      "exclude_frozen": true
    }
  ]
})";

TEST(Plan, ExpandsInDocumentedOrder) {
  const ExperimentPlan plan = plan_from_manifest_text(kSmallManifest);
  EXPECT_EQ(plan.name, "small");
  // Sweep 1: (star3, star4, grid2x2, grid2x3) x (coloring, full-read) = 8,
  // then sweep 2's single item.
  ASSERT_EQ(plan.items.size(), 9u);
  const std::vector<std::string> labels = {
      "COLORING/star(3)",    "FULL-READ-COLORING/star(3)",
      "COLORING/star(4)",    "FULL-READ-COLORING/star(4)",
      "COLORING/grid(2x2)",  "FULL-READ-COLORING/grid(2x2)",
      "COLORING/grid(2x3)",  "FULL-READ-COLORING/grid(2x3)",
      "MIS/petersen"};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(plan.items[i].label, labels[i]) << i;
  }
  EXPECT_EQ(plan.total_trials(), 8 * 2 * 2 + 1);
}

TEST(Plan, AppliesDefaultsAndOverrides) {
  const ExperimentPlan plan = plan_from_manifest_text(kSmallManifest);
  const BatchItem& first = plan.items.front();
  EXPECT_EQ(first.daemons,
            (std::vector<std::string>{"central-rr", "distributed"}));
  EXPECT_EQ(first.seeds_per_daemon, 2);
  EXPECT_EQ(first.base_seed, 7u);
  EXPECT_EQ(first.run.max_steps, 30000u);
  EXPECT_EQ(first.extra_steps, 0);
  EXPECT_FALSE(first.exclude_frozen);
  ASSERT_NE(first.problem, nullptr);
  EXPECT_EQ(first.problem->name(), "vertex-coloring");

  const BatchItem& last = plan.items.back();
  EXPECT_EQ(last.daemons, (std::vector<std::string>{"synchronous"}));
  EXPECT_EQ(last.seeds_per_daemon, 1);
  EXPECT_EQ(last.run.max_steps, 30000u);  // inherited from defaults
  EXPECT_EQ(last.extra_steps, 16);
  EXPECT_TRUE(last.exclude_frozen);
  EXPECT_EQ(last.problem, nullptr);
}

TEST(Plan, BaseSeedsPinPerItemSeeds) {
  const ExperimentPlan plan = plan_from_manifest_text(R"({
    "name": "seeds",
    "sweeps": [{
      "graphs": [{"family": "star", "leaves": [2, 3]}],
      "protocols": [{"name": "coloring"}, {"name": "full-read-coloring"}],
      "daemons": ["distributed"],
      "seeds_per_daemon": 1,
      "base_seeds": [100, 200, 101, 201]
    }]
  })");
  ASSERT_EQ(plan.items.size(), 4u);
  EXPECT_EQ(plan.items[0].base_seed, 100u);
  EXPECT_EQ(plan.items[1].base_seed, 200u);
  EXPECT_EQ(plan.items[2].base_seed, 101u);
  EXPECT_EQ(plan.items[3].base_seed, 201u);
}

TEST(Plan, RoundTripMatchesHandBuiltPlan) {
  const ExperimentPlan plan = plan_from_manifest_text(R"({
    "name": "roundtrip",
    "sweeps": [{
      "graphs": [{"family": "star", "leaves": 4}],
      "protocols": [{"name": "coloring"}],
      "daemons": ["distributed", "central-rr"],
      "seeds_per_daemon": 2,
      "max_steps": 20000,
      "base_seed": 11
    }]
  })");
  BatchOptions serial;
  serial.threads = 1;
  const BatchResult from_manifest = run_batch(plan.items, serial);

  const Graph g = star(4);
  const ColoringProtocol protocol(g);
  BatchItem item;
  item.label = "hand";
  item.graph = &g;
  item.protocol = &protocol;
  item.daemons = {"distributed", "central-rr"};
  item.seeds_per_daemon = 2;
  item.run.max_steps = 20000;
  item.base_seed = 11;
  const BatchResult by_hand = run_batch({item}, serial);

  const SweepSummary& a = from_manifest.summaries.front();
  const SweepSummary& b = by_hand.summaries.front();
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.silent_runs, b.silent_runs);
  EXPECT_EQ(a.max_steps_to_silence, b.max_steps_to_silence);
  EXPECT_EQ(a.k_measured, b.k_measured);
  EXPECT_EQ(a.bits_measured, b.bits_measured);
  EXPECT_EQ(a.mean_total_reads, b.mean_total_reads);
  EXPECT_EQ(a.mean_total_bits, b.mean_total_bits);
}

TEST(Plan, ExpandsRangeObjectsBesideLists) {
  // {"from", "to", "step"} range objects expand to inclusive integer
  // progressions and participate in the cartesian product like lists.
  const ExperimentPlan plan = plan_from_manifest_text(R"({
    "name": "ranges",
    "sweeps": [{
      "graphs": [
        {"family": "path", "n": {"from": 4, "to": 10, "step": 3}},
        {"family": "grid", "rows": {"from": 2, "to": 3}, "cols": [2, 3]}
      ],
      "protocols": [{"name": "coloring"}]
    }]
  })");
  const std::vector<std::string> labels = {
      "COLORING/path(4)",   "COLORING/path(7)",   "COLORING/path(10)",
      "COLORING/grid(2x2)", "COLORING/grid(2x3)", "COLORING/grid(3x2)",
      "COLORING/grid(3x3)"};
  ASSERT_EQ(plan.items.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(plan.items[i].label, labels[i]) << i;
  }
}

TEST(Plan, RangeObjectErrorsNameTheirPosition) {
  const auto expand_error = [](const std::string& text) -> std::string {
    try {
      plan_from_manifest_text(text);
    } catch (const PreconditionError& error) {
      return error.what();
    }
    return {};
  };
  // Reversed bounds: the message carries the range's manifest line:col.
  const std::string reversed = expand_error(
      "{\"name\": \"x\", \"sweeps\": [{\n"
      "  \"graphs\": [\n"
      "    {\"family\": \"path\", \"n\": {\"from\": 9, \"to\": 4}}],\n"
      "  \"protocols\": [{\"name\": \"coloring\"}]}]}");
  EXPECT_NE(reversed.find("\"from\" must be <= \"to\""), std::string::npos)
      << reversed;
  EXPECT_NE(reversed.find("at 3:29"), std::string::npos) << reversed;

  EXPECT_NE(expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": {"from": 2, "to": 8, "step": 0}}],
      "protocols": [{"name": "coloring"}]}]})")
                .find("\"step\" must be >= 1"),
            std::string::npos);
  EXPECT_NE(expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": {"to": 8}}],
      "protocols": [{"name": "coloring"}]}]})")
                .find("needs \"from\" and \"to\""),
            std::string::npos);
  EXPECT_NE(expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": {"from": 2, "to": 8, "by": 2}}],
      "protocols": [{"name": "coloring"}]}]})")
                .find("unknown key \"by\""),
            std::string::npos);
  // Type errors name the field and its own position too.
  const std::string fractional = expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": {"from": 4.5, "to": 8}}],
      "protocols": [{"name": "coloring"}]}]})");
  EXPECT_NE(fractional.find("\"from\" must be an integer (at "),
            std::string::npos)
      << fractional;
  EXPECT_NE(expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": {"from": "4", "to": 8}}],
      "protocols": [{"name": "coloring"}]}]})")
                .find("got string"),
            std::string::npos);
}

TEST(Plan, RejectsUnknownAndMalformedInput) {
  const auto expand = [](const std::string& text) {
    return plan_from_manifest_text(text);
  };
  // Unknown keys at every level.
  EXPECT_THROW(expand(R"({"name": "x", "sweps": []})"), PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "defaults": {"daemon": []},
                          "sweeps": []})"),
               PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "coloring"}],
      "grahps": []}]})"),
               PreconditionError);
  // Unknown registry names.
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "moebius", "n": 4}],
      "protocols": [{"name": "coloring"}]}]})"),
               PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "gossip"}]}]})"),
               PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "coloring"}],
      "problem": "domination"}]})"),
               PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "coloring"}],
      "daemons": ["lazy"]}]})"),
               PreconditionError);
  // Unknown graph parameter (registry-level validation through the plan).
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "m": 4}],
      "protocols": [{"name": "coloring"}]}]})"),
               PreconditionError);
  // Shape errors.
  EXPECT_THROW(expand(R"({"sweeps": []})"), PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": []})"), PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [], "protocols": [{"name": "coloring"}]}]})"),
               PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}], "protocols": []}]})"),
               PreconditionError);
  // base_seeds arity mismatch, and base_seed/base_seeds exclusivity.
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "coloring"}],
      "base_seeds": [1, 2]}]})"),
               PreconditionError);
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "coloring"}],
      "base_seed": 5, "base_seeds": [1]}]})"),
               PreconditionError);
  // Protocol parameters must be scalars.
  EXPECT_THROW(expand(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "path", "n": 4}],
      "protocols": [{"name": "coloring", "palette_size": [4, 5]}]}]})"),
               PreconditionError);
}

TEST(Plan, ExpandsNestedProtocolSpecs) {
  // Composed protocol specs ({"transform", "inner"}) nest recursively and
  // expand beside base specs. A plain sweep leaves the legitimacy
  // predicate unbound, exactly as for base specs.
  const ExperimentPlan plan = plan_from_manifest_text(R"({
    "name": "composed",
    "sweeps": [{
      "graphs": [{"family": "star", "leaves": 4}],
      "protocols": [
        {"name": "coloring"},
        {"transform": "generic-efficiency", "inner": {"name": "coloring"}},
        {"transform": "generic-efficiency",
         "inner": {"transform": "generic-efficiency",
                   "inner": {"name": "full-read-coloring",
                             "palette_size": 6}}}
      ],
      "daemons": ["distributed"],
      "seeds_per_daemon": 1
    }]
  })");
  ASSERT_EQ(plan.items.size(), 3u);
  EXPECT_EQ(plan.items[0].label, "COLORING/star(4)");
  EXPECT_EQ(plan.items[1].label, "GENERIC-EFFICIENCY(COLORING)/star(4)");
  EXPECT_EQ(plan.items[2].label,
            "GENERIC-EFFICIENCY(GENERIC-EFFICIENCY(FULL-READ-COLORING))"
            "/star(4)");
  for (const BatchItem& item : plan.items) {
    EXPECT_EQ(item.problem, nullptr) << item.label;
  }
}

TEST(Plan, ChurnSweepsInheritTheComposedProblem) {
  // Churn availability needs a predicate; without an explicit "problem"
  // key each item binds its composition's resolved problem — which for a
  // transformer is the inner entry's, found through the nesting.
  const ExperimentPlan plan = plan_from_manifest_text(R"({
    "name": "composed-churn",
    "sweeps": [{
      "graphs": [{"family": "cycle", "n": 6}],
      "protocols": [
        {"transform": "generic-efficiency", "inner": {"name": "coloring"}},
        {"transform": "generic-efficiency", "inner": {"name": "mis"}}
      ],
      "daemons": ["distributed"],
      "seeds_per_daemon": 1,
      "churn": {"period": 64}
    }]
  })");
  ASSERT_EQ(plan.items.size(), 2u);
  ASSERT_NE(plan.items[0].problem, nullptr);
  EXPECT_EQ(plan.items[0].problem->name(), "vertex-coloring");
  ASSERT_NE(plan.items[1].problem, nullptr);
  EXPECT_EQ(plan.items[1].problem->name(), "maximal-independent-set");
}

TEST(Plan, NestedProtocolSpecErrorsNameTheirPosition) {
  const auto expand_error = [](const std::string& text) -> std::string {
    try {
      plan_from_manifest_text(text);
    } catch (const PreconditionError& error) {
      return error.what();
    }
    return {};
  };
  const char* kPrefix =
      "{\"name\": \"x\", \"sweeps\": [{\n"
      "  \"graphs\": [{\"family\": \"path\", \"n\": 4}],\n"
      "  \"protocols\": [\n";

  // Both "name" and "transform" on one spec.
  const std::string both = expand_error(
      std::string(kPrefix) +
      "    {\"name\": \"coloring\", \"transform\": \"generic-efficiency\","
      " \"inner\": {\"name\": \"coloring\"}}]}]}");
  EXPECT_NE(both.find("accepts \"name\" or \"transform\", not both"),
            std::string::npos)
      << both;
  EXPECT_NE(both.find("protocol spec at 4:5"), std::string::npos) << both;

  // Neither.
  EXPECT_NE(expand_error(std::string(kPrefix) + "    {\"root\": 2}]}]}")
                .find("needs \"name\" (base protocol) or \"transform\""),
            std::string::npos);

  // "inner" on a base spec.
  EXPECT_NE(expand_error(std::string(kPrefix) +
                         "    {\"name\": \"coloring\","
                         " \"inner\": {\"name\": \"mis\"}}]}]}")
                .find("only valid alongside \"transform\""),
            std::string::npos);

  // "transform" without "inner".
  EXPECT_NE(expand_error(std::string(kPrefix) +
                         "    {\"transform\": \"generic-efficiency\"}]}]}")
                .find("\"transform\" needs an \"inner\" protocol spec"),
            std::string::npos);

  // Non-object "inner", with the inner value's own position.
  const std::string non_object = expand_error(
      std::string(kPrefix) +
      "    {\"transform\": \"generic-efficiency\",\n"
      "     \"inner\": \"coloring\"}]}]}");
  EXPECT_NE(non_object.find("must be a protocol spec object, got string"),
            std::string::npos)
      << non_object;
  EXPECT_NE(non_object.find("\"inner\" at 5:15"), std::string::npos)
      << non_object;

  // Registry-level composition errors are wrapped with the spec's
  // manifest position: a checker source is not runnable...
  const std::string bare_checker = expand_error(
      std::string(kPrefix) + "    {\"name\": \"pairwise-coloring\"}]}]}");
  EXPECT_NE(bare_checker.find("protocol spec at 4:5"), std::string::npos)
      << bare_checker;
  EXPECT_NE(bare_checker.find("checker source"), std::string::npos)
      << bare_checker;
  // ... and rotating-check wraps checker sources, not protocols.
  const std::string mis_wrapped = expand_error(
      std::string(kPrefix) +
      "    {\"transform\": \"rotating-check\","
      " \"inner\": {\"name\": \"coloring\"}}]}]}");
  EXPECT_NE(mis_wrapped.find("protocol spec at 4:5"), std::string::npos)
      << mis_wrapped;
  EXPECT_NE(mis_wrapped.find("wraps a checker source"), std::string::npos)
      << mis_wrapped;

  // Unknown parameters on the *inner* spec are caught too.
  EXPECT_NE(expand_error(std::string(kPrefix) +
                         "    {\"transform\": \"generic-efficiency\","
                         " \"inner\": {\"name\": \"coloring\","
                         " \"palete\": 4}}]}]}")
                .find("unknown parameter"),
            std::string::npos);
}

TEST(Plan, ComposedManifestRunsEndToEnd) {
  // The composed item must actually run through the batch runner: the
  // rotating-check transformer over its pairwise-coloring checker source,
  // plus a generic-efficiency wrap, both answering to vertex-coloring.
  const ExperimentPlan plan = plan_from_manifest_text(R"({
    "name": "composed-run",
    "sweeps": [{
      "graphs": [{"family": "cycle", "n": 5}],
      "protocols": [
        {"transform": "rotating-check",
         "inner": {"name": "pairwise-coloring"}},
        {"transform": "generic-efficiency", "inner": {"name": "coloring"}}
      ],
      "daemons": ["distributed"],
      "seeds_per_daemon": 2,
      "max_steps": 200000
    }]
  })");
  ASSERT_EQ(plan.items.size(), 2u);
  BatchOptions serial;
  serial.threads = 1;
  const BatchResult result = run_batch(plan.items, serial);
  for (const SweepSummary& summary : result.summaries) {
    EXPECT_EQ(summary.runs, 2);
    EXPECT_EQ(summary.silent_runs, 2);
  }
}

/// A churn sweep on one small graph, with `extra` spliced into the sweep
/// object (or into "defaults" when `in_defaults`).
std::string churn_manifest(const std::string& extra, bool in_defaults) {
  return std::string(R"({"name": "churn-combo", "defaults": {)") +
         (in_defaults ? extra : "") + R"(}, "sweeps": [{
      "graphs": [{"family": "cycle", "n": 6}],
      "protocols": [{"name": "coloring"}],
      "daemons": ["distributed"], "seeds_per_daemon": 1,
      "churn": {"period": 64})" +
         (in_defaults ? "" : ", " + extra) + "}]}";
}

std::string expand_error(const std::string& text) {
  try {
    plan_from_manifest_text(text);
  } catch (const PreconditionError& error) {
    return error.what();
  }
  return "";
}

TEST(Plan, RejectsItemsRunBatchWouldReject) {
  // Each key is legal on its own; the combination is not a runnable item.
  // Expansion validates every item, so a manifest that expands is one
  // run_batch accepts — whether the keys meet in a sweep or arrive from
  // "defaults".
  for (const bool in_defaults : {false, true}) {
    const std::string extra_steps =
        expand_error(churn_manifest(R"("extra_steps": 4)", in_defaults));
    EXPECT_NE(extra_steps.find("extra_steps and churn windows cannot be "
                               "combined"),
              std::string::npos)
        << extra_steps;
    EXPECT_NE(extra_steps.find("COLORING/cycle(6)"), std::string::npos)
        << extra_steps;
    const std::string threads =
        expand_error(churn_manifest(R"("parallel_threads": 2)", in_defaults));
    EXPECT_NE(threads.find("parallel_threads must be 1"), std::string::npos)
        << threads;
  }
  // The same sweep without the extra key expands.
  EXPECT_EQ(plan_from_manifest_text(churn_manifest(R"("max_steps": 100)",
                                                   false))
                .items.size(),
            1u);
  // Item ranges are checked once, per item, whatever level set them.
  for (const char* keys : {R"("seeds_per_daemon": 0)", R"("daemons": [])"}) {
    EXPECT_NE(expand_error(std::string(R"({"name": "x", "defaults": {)") +
                           keys + R"(}, "sweeps": [{
                "graphs": [{"family": "path", "n": 4}],
                "protocols": [{"name": "coloring"}]}]})")
                  .find("one daemon and one seed"),
              std::string::npos)
        << keys;
  }
  // A malformed churn block fails even when every sweep replaces it.
  EXPECT_NE(expand_error(R"({"name": "x",
      "defaults": {"churn": {"period": 8, "corruption_weight": 0}},
      "sweeps": [{"graphs": [{"family": "path", "n": 4}],
                  "protocols": [{"name": "coloring"}], "churn": null}]})")
                .find("at least one positive event weight"),
            std::string::npos);
  // Integers are range-checked before narrowing, never wrapped.
  EXPECT_NE(expand_error(churn_manifest(R"("extra_steps": 4294967296)", false))
                .find("must fit an int"),
            std::string::npos);
}

TEST(Plan, ItemRangesAreCheckedBeforeAnyGraphIsBuilt) {
  // random-regular(5, 3) cannot be built (n*d is odd): the range error
  // must win, because the ranges are checked before the graph loop.
  const std::string error = expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "random-regular", "n": 5, "d": 3}],
      "protocols": [{"name": "coloring"}],
      "seeds_per_daemon": 0}]})");
  EXPECT_NE(error.find("one daemon and one seed"), std::string::npos)
      << error;
  EXPECT_EQ(error.find("must be even"), std::string::npos) << error;
  // The same sweep with a valid seed count reaches the builder.
  EXPECT_NE(expand_error(R"({"name": "x", "sweeps": [{
      "graphs": [{"family": "random-regular", "n": 5, "d": 3}],
      "protocols": [{"name": "coloring"}],
      "seeds_per_daemon": 1}]})")
                .find("must be even"),
            std::string::npos);
}

TEST(Plan, EngineOverridesRevalidateEveryItem) {
  ExperimentPlan churn =
      plan_from_manifest_text(churn_manifest(R"("max_steps": 100)", false));
  apply_engine_overrides(churn, 0, "force_scalar");
  EXPECT_EQ(churn.items.front().sweep_mode, SweepMode::kForceScalar);
  EXPECT_EQ(churn.items.front().parallel_threads, 1);
  apply_engine_overrides(churn, 1, "");
  EXPECT_EQ(churn.items.front().sweep_mode, SweepMode::kForceScalar);
  // The retired "force_bulk" spelling still parses, as auto.
  apply_engine_overrides(churn, 1, "force_bulk");
  EXPECT_EQ(churn.items.front().sweep_mode, SweepMode::kAuto);
  EXPECT_THROW(apply_engine_overrides(churn, 2, ""), PreconditionError);

  ExperimentPlan plain = plan_from_manifest_text(kSmallManifest);
  apply_engine_overrides(plain, 3, "");
  for (const BatchItem& item : plain.items) {
    EXPECT_EQ(item.parallel_threads, 3) << item.label;
    EXPECT_EQ(item.sweep_mode, SweepMode::kAuto) << item.label;
  }
  EXPECT_THROW(apply_engine_overrides(plain, -1, ""), PreconditionError);
  EXPECT_THROW(apply_engine_overrides(plain, 1025, ""), PreconditionError);
  EXPECT_THROW(apply_engine_overrides(plain, 0, "fast"), PreconditionError);
}

}  // namespace
}  // namespace sss
