/// The generic communication-efficiency transformer (arXiv:2307.06635,
/// the paper's Section 6 open question): unit tests for the mirror-bank
/// spec and the audit / collect / confirm step semantics, the stabilized
/// one-read-per-step certificate, the registry's choice between the
/// composed rule kernel (GenericEfficiency<P>) and the per-process
/// wrapper (GenericEfficiency<Protocol>), which must run the same rule,
/// and the registry-wide property grid
/// over generic-efficiency(X) for every eligible base protocol X —
/// including a fault-closure leg and a depth-2 composition.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/full_read_coloring.hpp"
#include "core/coloring_protocol.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "protocol_harness.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "transformer/generic_efficiency.hpp"

namespace sss {
namespace {

/// The Delta-read coloring under the transformer, on the composed rule.
using WrappedColoring = GenericEfficiency<FullReadColoring>;

TEST(GenericEfficiency, SpecAddsTheAuditPointerAndTheMirrorBank) {
  // path(3) with the Delta-read coloring inside: the smallest instance
  // where the mirror bank has both an in-range and a degenerate slot.
  const Graph g = path(3);  // Delta = 2, palette 3
  auto inner = std::make_unique<FullReadColoring>(g);
  const FullReadColoring* wrapped = inner.get();
  const WrappedColoring transformed(g, std::move(inner));
  EXPECT_EQ(&transformed.inner(), wrapped);
  // Comm vars are exactly the inner's (legitimacy applies unchanged).
  EXPECT_EQ(transformed.spec().num_comm(), 1);
  // Internal: tcur + Delta * num_comm mirror slots (inner has none).
  EXPECT_EQ(transformed.spec().num_internal(), 3);
  EXPECT_EQ(transformed.tcur_index(), 0);
  EXPECT_EQ(transformed.spec().internal[0].name(), "tcur");
  EXPECT_EQ(transformed.mirror_index(1, 0), 1);
  EXPECT_EQ(transformed.mirror_index(2, 0), 2);
  EXPECT_EQ(transformed.collect_action(), 1);
  EXPECT_EQ(transformed.advance_action(), 2);
  EXPECT_NE(transformed.name().find("FULL-READ-COLORING"),
            std::string::npos);

  // A leaf (degree 1) has no channel-2 neighbor: its second mirror slot
  // is pinned to the degenerate domain {0}, so arbitrary initialization
  // cannot park noise where no neighbor exists.
  const VarSpec& far_slot = transformed.spec().internal[2];
  EXPECT_EQ(far_slot.domain(g, 0).hi, 0);
  // The middle vertex has both neighbors: the slot ranges over the
  // neighbor's color domain.
  EXPECT_EQ(far_slot.domain(g, 1).hi, 3);
}

/// A properly colored path(3) with every mirror fresh and tcur = 1.
Configuration fresh_silent_config(const Graph& g,
                                  const WrappedColoring& transformed) {
  Configuration config(g, transformed.spec());
  const Value colors[] = {1, 2, 1};
  for (ProcessId p = 0; p < 3; ++p) {
    config.set_comm(p, FullReadColoring::kColorVar, colors[p]);
    config.set_internal(p, transformed.tcur_index(), 1);
    for (NbrIndex ch = 1; ch <= g.degree(p); ++ch) {
      config.set_internal(p, transformed.mirror_index(ch, 0),
                          colors[g.neighbor(p, ch)]);
    }
  }
  return config;
}

TEST(GenericEfficiency, QuietStepAuditsOneNeighborAndAdvances) {
  const Graph g = path(3);
  const WrappedColoring transformed(g,
                                    std::make_unique<FullReadColoring>(g));
  Configuration config = fresh_silent_config(g, transformed);
  Rng rng(1);
  StepReadCounter counter(g, transformed.spec());
  counter.begin_step();
  const ProcessStep step =
      apply_solo_step(g, transformed, config, 1, rng, &counter);
  EXPECT_EQ(step.action, transformed.advance_action());
  EXPECT_FALSE(step.comm_write_attempted);
  // The step's only communication reads: the single audited neighbor.
  EXPECT_EQ(counter.step_reads_of(1), 1);
  // Every action rotates the audit pointer.
  EXPECT_EQ(config.internal_var(1, transformed.tcur_index()), 2);
}

TEST(GenericEfficiency, AuditMismatchTriggersCollect) {
  const Graph g = path(3);
  const WrappedColoring transformed(g,
                                    std::make_unique<FullReadColoring>(g));
  Configuration config = fresh_silent_config(g, transformed);
  // Stale mirror of the audited channel (tcur = 1): the audit must see
  // the discrepancy and refresh the whole bank, the unaudited last
  // channel included.
  config.set_internal(1, transformed.mirror_index(1, 0), 3);
  config.set_internal(1, transformed.mirror_index(2, 0), 3);
  Rng rng(2);
  const ProcessStep step = apply_solo_step(g, transformed, config, 1, rng);
  EXPECT_EQ(step.action, transformed.collect_action());
  EXPECT_FALSE(step.comm_write_attempted);
  EXPECT_EQ(config.internal_var(1, transformed.mirror_index(1, 0)), 1);
  EXPECT_EQ(config.internal_var(1, transformed.mirror_index(2, 0)), 1);
  EXPECT_EQ(config.internal_var(1, transformed.tcur_index()), 2);
}

TEST(GenericEfficiency, MirrorFiringWithoutRealEvidenceCollects) {
  const Graph g = path(3);
  const WrappedColoring transformed(g,
                                    std::make_unique<FullReadColoring>(g));
  Configuration config = fresh_silent_config(g, transformed);
  // A stale mirror on the channel the audit does NOT visit this step
  // (tcur = 1, stale channel 2) that makes the inner guard fire against
  // the mirror: same color as self. The confirm pass finds the real
  // state disabled, which unmasks the staleness the single-channel audit
  // missed — the step must collect, not execute.
  config.set_internal(1, transformed.mirror_index(2, 0), 2);
  Rng rng(3);
  const ProcessStep step = apply_solo_step(g, transformed, config, 1, rng);
  EXPECT_EQ(step.action, transformed.collect_action());
  EXPECT_FALSE(step.comm_write_attempted);
  EXPECT_EQ(config.internal_var(1, transformed.mirror_index(2, 0)), 1);
}

TEST(GenericEfficiency, ConfirmedInnerGuardExecutesTheInnerAction) {
  const Graph g = path(3);
  const WrappedColoring transformed(g,
                                    std::make_unique<FullReadColoring>(g));
  Configuration config = fresh_silent_config(g, transformed);
  // A genuine conflict, visible in both the (fresh) mirror and the real
  // state: recolor vertex 2 to vertex 1's color.
  config.set_comm(2, FullReadColoring::kColorVar, 2);
  config.set_internal(1, transformed.mirror_index(2, 0), 2);
  Rng rng(4);
  const ProcessStep step = apply_solo_step(g, transformed, config, 1, rng);
  // The wrapped protocol's actions keep their indices: this is inner
  // action 0, a genuine inner move on the real state.
  EXPECT_EQ(step.action, 0);
  EXPECT_TRUE(step.comm_write_attempted);
  // FULL-READ-COLORING redraws among the colors no neighbor uses; with
  // neighbors colored 1 and 2 the only free color is 3.
  EXPECT_EQ(config.comm(1, FullReadColoring::kColorVar), 3);
  EXPECT_EQ(config.internal_var(1, transformed.tcur_index()), 2);
}

TEST(GenericEfficiency, StabilizedPhaseReadsOneNeighborRegardlessOfDegree) {
  // The transformer's selling point: wrap the Delta-read baseline and the
  // stabilized phase pays a single neighbor per step — on a clique, where
  // the bare baseline pays Delta = n-1 forever.
  const Graph g = complete(6);
  const std::unique_ptr<Protocol> transformed =
      ProtocolRegistry::instance().make(
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base("full-read-coloring")),
          g);
  Engine engine(g, *transformed, make_daemon("distributed"), 11);
  engine.randomize_state();
  ASSERT_TRUE(engine.run({}).silent);
  StepReadCounter counter(g, transformed->spec());
  engine.attach_read_logger(&counter);
  for (int step = 0; step < 400; ++step) {
    counter.begin_step();
    engine.step();
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      EXPECT_LE(counter.step_reads_of(p), 1);
    }
  }
}

TEST(GenericEfficiency, StabilizingPhaseMayReadFullWidth) {
  // Honest trade-off: collects and inner full-read moves scan the whole
  // neighborhood while stabilizing.
  const Graph g = star(6);
  const std::unique_ptr<Protocol> transformed =
      ProtocolRegistry::instance().make(
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base("full-read-coloring")),
          g);
  Engine engine(g, *transformed, make_daemon("distributed"), 12);
  // All same color: the hub must pay its degree at least once.
  Configuration config(g, transformed->spec());
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, FullReadColoring::kColorVar, 1);
  }
  engine.set_config(config);
  const RunStats stats = engine.run({});
  ASSERT_TRUE(stats.silent);
  EXPECT_GT(stats.max_reads_per_process_step, 1);
}

TEST(GenericEfficiency, RegistryComposesRuleProtocolsOnTheirKernels) {
  // A rule protocol's composition is GenericEfficiency<P>, with the slab
  // kernels its .cpp instantiates; a nested transformer is wrapped by the
  // per-process GenericEfficiency<Protocol>.
  const Graph g = cycle(5);
  ProtocolRegistry& registry = ProtocolRegistry::instance();
  const std::unique_ptr<Protocol> composed = registry.make(
      ProtocolSelection::wrap("generic-efficiency",
                              ProtocolSelection::base("full-read-coloring")),
      g);
  EXPECT_NE(dynamic_cast<const WrappedColoring*>(composed.get()), nullptr);

  const std::unique_ptr<Protocol> nested = registry.make(
      ProtocolSelection::wrap(
          "generic-efficiency",
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base("coloring"))),
      g);
  const auto* outer =
      dynamic_cast<const GenericEfficiency<Protocol>*>(nested.get());
  ASSERT_NE(outer, nullptr);
  EXPECT_FALSE(outer->has_bulk_sweep());
  EXPECT_NE(dynamic_cast<const GenericEfficiency<ColoringProtocol>*>(
                &outer->inner()),
            nullptr);
}

TEST(GenericEfficiency, ErasedInnerRunsTheSameRule) {
  // GenericEfficiency<Protocol> runs the one rule through the inner's
  // virtual hooks (its mirror evaluation on an overlay GuardContext);
  // over the same inner it must reproduce GenericEfficiency<P> step for
  // step: configurations, reads and bits.
  const Graph g = grid(3, 4);
  const GenericEfficiency<Protocol> erased(
      g, std::make_unique<FullReadColoring>(g));
  const WrappedColoring composed(g, std::make_unique<FullReadColoring>(g));
  ASSERT_FALSE(erased.has_bulk_sweep());
  Engine slow(g, erased, make_daemon("distributed"), 31);
  Engine fast(g, composed, make_daemon("distributed"), 31);
  slow.randomize_state();
  fast.randomize_state();
  for (int s = 0; s < 300; ++s) {
    const Engine::StepInfo a = slow.step();
    const Engine::StepInfo b = fast.step();
    ASSERT_EQ(a.selected, b.selected) << "step " << s;
    ASSERT_EQ(slow.config(), fast.config()) << "step " << s;
    ASSERT_EQ(slow.read_counter().total_reads(),
              fast.read_counter().total_reads())
        << "step " << s;
    ASSERT_EQ(slow.read_counter().total_bits(),
              fast.read_counter().total_bits())
        << "step " << s;
  }
}

TEST(GenericEfficiencyGrid, EveryEligibleBaseSurvivesThePropertyGrid) {
  // The full harness grid — convergence to certified silence, silent =>
  // legitimate, closure, ReferenceEngine lockstep — for the transformed
  // version of every base registry entry. Eligibility is automatic:
  // resolve() inherits the inner problem and intersects daemon claims,
  // so restricted bases (full-read-coloring) keep their restriction.
  testing::HarnessOptions options;
  options.seeds_per_daemon = 1;
  for (const std::string& base :
       ProtocolRegistry::instance().protocol_names()) {
    const testing::HarnessReport report =
        testing::run_protocol_property_suite(
            ProtocolSelection::wrap("generic-efficiency",
                                    ProtocolSelection::base(base)),
            options);
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_EQ(report.protocol, "generic-efficiency(" + base + ")");
    // Even the most daemon-restricted base keeps >= 4 daemons x the
    // full menagerie; a smaller grid means eligibility silently shrank.
    EXPECT_GE(report.trials, 20) << base;
  }
}

TEST(GenericEfficiencyGrid, FaultClosureHoldsForTransformedProtocols) {
  // The churn-style leg: stabilize, corrupt random victims (comm vars,
  // audit pointers, and mirror banks alike), re-converge legitimately.
  testing::HarnessOptions options;
  options.seeds_per_daemon = 1;
  options.daemons = {"central-rr", "distributed"};
  for (const std::string& base :
       ProtocolRegistry::instance().protocol_names()) {
    const testing::HarnessReport report =
        testing::run_protocol_fault_closure_suite(
            ProtocolSelection::wrap("generic-efficiency",
                                    ProtocolSelection::base(base)),
            options);
    EXPECT_TRUE(report.ok()) << report.str();
  }
}

TEST(GenericEfficiencyGrid, DepthTwoCompositionStabilizes) {
  // generic-efficiency(generic-efficiency(coloring)): the outer mirror
  // bank mirrors the inner transformed protocol's comm vars (= coloring's),
  // and the whole stack still answers to the coloring predicate. A reduced
  // grid — the point is composition, not another full sweep.
  testing::HarnessOptions options;
  options.seeds_per_daemon = 1;
  options.daemons = {"distributed"};
  options.menagerie.push_back(cycle(6));
  options.menagerie.push_back(star(5));
  const testing::HarnessReport report = testing::run_protocol_property_suite(
      ProtocolSelection::wrap(
          "generic-efficiency",
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base("coloring"))),
      options);
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_EQ(report.protocol,
            "generic-efficiency(generic-efficiency(coloring))");
}

}  // namespace
}  // namespace sss
