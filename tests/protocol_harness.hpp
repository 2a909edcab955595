#pragma once
/// \file protocol_harness.hpp
/// Registry-wide property-test harness: one exhaustive correctness grid
/// every registered protocol runs through, so a protocol dropped into the
/// ProtocolRegistry gets convergence / legitimacy / closure / silence /
/// lockstep-equivalence coverage for free instead of a hand-written suite.
///
/// For a protocol selection (a name, or a nested transformer composition
/// like generic-efficiency(coloring)) the harness resolves the paired
/// legitimacy predicate and daemon claim through
/// ProtocolRegistry::resolve(), then runs a (daemon x menagerie x seed)
/// grid. Each trial asserts four properties:
///
///  * convergence — a run from a uniformly random configuration reaches a
///    configuration the exact quiescence check certifies silent within
///    `max_steps`;
///  * legitimacy — the silent configuration satisfies the predicate
///    (silent => legitimate, the paper's Definition 3 direction);
///  * closure + silence — continuing for `closure_steps` more steps never
///    changes a communication variable (certified silence is real: read
///    activity continues, writes never resume) and never falsifies the
///    predicate;
///  * equivalence — a fresh Engine and ReferenceEngine driven from the
///    same seed stay configuration- and metrics-identical for
///    `lockstep_steps` steps (the differential oracle of
///    tests/test_engine_equivalence.cpp, applied to every registry entry).
///
/// Violations are collected, not thrown, so one report shows every
/// failing (protocol, graph, daemon, seed) cell — and so the harness
/// itself is testable: tests/test_protocol_harness.cpp registers a
/// deliberately broken protocol and asserts the harness flags it.

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol_registry.hpp"
#include "graph/graph.hpp"
#include "runtime/engine.hpp"
#include "support/params.hpp"

namespace sss::testing {

struct HarnessOptions {
  /// Daemons to sweep; empty = every registered daemon name.
  std::vector<std::string> daemons;
  int seeds_per_daemon = 2;
  std::uint64_t base_seed = 5000;
  std::uint64_t max_steps = 400'000;
  /// Post-silence window proving closure and silence.
  int closure_steps = 64;
  /// Engine-vs-ReferenceEngine lockstep length per trial.
  int lockstep_steps = 96;
  /// Extra registry parameters forwarded by the *name-based* entry points
  /// (folded into the selection); the selection-based entry points carry
  /// parameters inside the selection and ignore this field.
  ParamMap params;
  /// Graphs to sweep; empty = harness_menagerie().
  std::vector<Graph> menagerie;
  /// Probe-refresh strategy applied to every (fast) Engine the grid
  /// drives — the convergence/closure runner and the lockstep engine
  /// alike. kAuto runs opted-in protocols' slab kernels, so the whole
  /// property grid doubles as a kernel-correctness oracle against the
  /// scalar-path ReferenceEngine; kForceScalar pins the scalar defaults.
  SweepMode sweep_mode = SweepMode::kAuto;
  /// Victim-set size of the fault-closure suite (clamped to the graph's
  /// process count per cell).
  int fault_victims = 2;
  /// Intra-trial worker threads applied to every fast Engine the grid
  /// drives (engine invariant 7: bit-identical at any value, so a forced
  /// > 1 run of the whole grid proves the parallel step against the same
  /// oracle and predicates the serial grid answers to).
  int parallel_threads = 1;
};

struct HarnessViolation {
  std::string protocol;
  std::string graph;
  std::string daemon;
  std::uint64_t seed = 0;
  /// Which property failed: "convergence", "legitimacy", "closure",
  /// "silence", "equivalence", or "invariant" (an engine invariant threw,
  /// ending the trial).
  std::string check;
  std::string detail;
};

struct HarnessReport {
  std::string protocol;
  std::string problem;
  int trials = 0;
  std::vector<HarnessViolation> violations;

  bool ok() const { return !violations.empty() ? false : trials > 0; }
  /// Human-readable summary of every violation (empty string when ok).
  std::string str() const;
};

/// The harness's default graph menagerie: small, varied (degree spread,
/// symmetry, bottlenecks, diameter extremes), fast to exhaust.
std::vector<Graph> harness_menagerie();

/// Runs the full property grid for one (possibly composed) protocol
/// selection. The grid sweeps the daemons the composition's resolved
/// claim covers (ComposedInfo::daemons intersected with
/// `options.daemons`).
HarnessReport run_protocol_property_suite(const ProtocolSelection& selection,
                                          const HarnessOptions& options = {});

/// Name-based convenience: runs the grid for
/// ProtocolSelection::base(protocol_name, options.params).
HarnessReport run_protocol_property_suite(const std::string& protocol_name,
                                          const HarnessOptions& options = {});

/// Runs the grid for every *base* runnable entry in the ProtocolRegistry
/// (kind kProtocol), in sorted order. Transformers need an inner
/// selection to run, so composed grids are driven explicitly (see
/// tests/test_generic_efficiency.cpp) rather than enumerated here.
std::vector<HarnessReport> run_registry_property_suite(
    const HarnessOptions& options = {});

/// Fault-closure grid for one registry protocol: every (graph, daemon,
/// seed) cell stabilizes from a random configuration, then suffers an
/// in-place corruption of `options.fault_victims` random processes
/// (Engine::apply_external_corruption — the churn runtime's primitive)
/// and must re-converge to a certified-silent ("fault-convergence") and
/// legitimate ("fault-legitimacy") configuration. Cells that never
/// stabilize in the first place are vacuous here — the plain property
/// suite owns that failure — so they are skipped without a violation.
HarnessReport run_protocol_fault_closure_suite(
    const ProtocolSelection& selection, const HarnessOptions& options = {});

/// Name-based convenience, like the property-suite overload.
HarnessReport run_protocol_fault_closure_suite(
    const std::string& protocol_name, const HarnessOptions& options = {});

/// Runs the fault-closure grid for every base runnable entry, in sorted
/// order.
std::vector<HarnessReport> run_registry_fault_closure_suite(
    const HarnessOptions& options = {});

}  // namespace sss::testing
