#pragma once
/// \file plan.hpp
/// Experiment-manifest parser: a JSON manifest in, a ready-to-run batch
/// plan out — the declarative front half of the experiment lab.
///
/// The paper's result grids are (protocol x graph family x daemon x seed)
/// sweeps; a manifest spells one such grid as data and this module expands
/// it into a `BatchStore` (owning the constructed graphs, protocols and
/// problems) plus the `BatchItem` vector `run_batch` consumes. Names
/// resolve through the registries: graph/family_registry.hpp,
/// core/protocol_registry.hpp, core/problem_registry.hpp, and the daemon
/// names of runtime/daemon.hpp.
///
/// Manifest shape (all parsing is strict — unknown keys throw):
///
///   {
///     "name": "comm_complexity",
///     "defaults": { <run keys> },            // optional
///     "sweeps": [
///       {
///         "graphs": [
///           {"family": "star", "leaves": [2, 3, 4]},   // list = sweep
///           {"family": "path", "n": {"from": 4, "to": 64, "step": 4}},
///           {"family": "grid", "rows": 5, "cols": 6}
///         ],
///         "protocols": [
///           {"name": "coloring"},
///           {"name": "full-read-coloring", "palette_size": 5},
///           {"transform": "generic-efficiency",
///            "inner": {"name": "full-read-coloring"}},
///           {"transform": "rotating-check",
///            "inner": {"name": "pairwise-coloring", "palette_size": 5}}
///         ],
///         "problem": "vertex-coloring",      // optional
///         <run keys>                         // override the defaults
///       }
///     ]
///   }
///
/// A protocol spec is either a base entry ({"name": ..., <scalar
/// params>}) or a composition ({"transform": ..., "inner": {<protocol
/// spec>}, <scalar params of the transformer>}); "inner" nests
/// recursively, so transformers compose. Specs resolve through
/// ProtocolRegistry::resolve before any graph is built: unknown names,
/// bad parameters, and malformed compositions (a bare checker source, a
/// transformer without "inner", "name" next to "transform") all throw
/// with the spec's line:col in the manifest.
///
/// Run keys (accepted in "defaults" and per sweep): "daemons" (array of
/// daemon names), "seeds_per_daemon", "base_seed", "base_seeds" (per-sweep
/// only: one base seed per expanded item, for plans that pin historical
/// seeds), "max_steps", "stop_on_silence", "quiescence_patience",
/// "extra_steps", "exclude_frozen", "churn", "parallel_threads" (engine
/// worker threads per trial, default 1, at most 1024; the intra-trial
/// parallel step is bit-identical to single-threaded, so this key changes
/// wall-clock only — it is deliberately NOT a sink column. Churn sweeps
/// require 1), and
/// "sweep_mode" ("auto" | "force_scalar", default "auto"; "force_bulk"
/// still parses, as "auto": the engine's bulk sweep/execute dispatch.
/// Like "parallel_threads" it changes cost, never results, and is NOT a
/// sink column).
///
/// The "churn" key switches a sweep's trials into churn-window mode
/// (runtime/churn.hpp): every trial stabilizes first, then runs a measured
/// window under continuous disruption, and the sinks gain availability/
/// recovery columns. Its value is an object (strict, like everything
/// else):
///
///   "churn": {
///     "event_probability": 0.002,   // XOR "period": N (exactly one)
///     "window_steps": 2000,         // optional, default 2000
///     "seed": 1234,                 // optional churn-stream seed
///     "max_victims": 2,             // optional, default 2
///     "corruption_weight": 1,       // optional event-kind weights;
///     "node_reset_weight": 0,       //   at least one must be positive
///     "topology_weight": 0,         //   (topology = edge/node churn)
///     "stabilize_steps": 400000,    // optional phase-0 budget
///     "recovery_patience": 0        // optional, 0 = max(16, n)
///   }
///
/// A sweep-level "churn" replaces an inherited defaults-level block
/// wholesale; "churn": null disables churn for that sweep. "extra_steps"
/// cannot be combined with churn mode.
///
/// Daemon lists are validated against the registered daemon names only —
/// deliberately NOT against ProtocolRegistry::Entry::daemons, the
/// per-protocol stabilization assumption the property harness enforces:
/// experiments may intentionally probe a protocol outside its claim
/// (that is what an ablation is), so a manifest pairing, say,
/// full-read-coloring with the synchronous daemon expands and runs;
/// expect such trials to report silent=false after max_steps rather
/// than stabilize.
///
/// A graph parameter may be a scalar, an explicit list, or a range object
/// {"from": a, "to": b, "step": s} (step optional, default 1) expanding
/// to the inclusive integer progression a, a+s, ..., <= b; range schema
/// errors report the offending value's line:col.
///
/// Expansion is deterministic: sweeps in order; within a sweep, graph
/// specs in order; within a graph spec, the cartesian product of its
/// list- and range-valued parameters (in member order, the last sweep
/// varying fastest); and for each expanded graph every protocol in
/// order. Item labels are "<protocol name>/<graph name>". Trial
/// semantics (seed derivation, daemon-major order, reduction) are
/// run_batch's.
///
/// Run keys fold onto one prototype `BatchItem` — its member initializers
/// are the defaults — first from "defaults", then from the sweep; every
/// expanded item is a copy of it with its own label, graph, protocol,
/// problem and (churn sweeps) protocol factory. Each item passes
/// `validate_batch_item` as it is built, so a manifest that expands is a
/// plan `run_batch` accepts: `sss_lab validate` and a serve submit reject
/// what `sss_lab run` would.

#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "support/json.hpp"

namespace sss {

/// A manifest expanded into runnable form. Movable, not copyable; `items`
/// reference `store`, which owns everything the manifest constructed.
struct ExperimentPlan {
  std::string name;
  BatchStore store;
  std::vector<BatchItem> items;

  /// Total trial count of the plan (sum over items of daemons x seeds).
  int total_trials() const;
};

/// Expands a parsed manifest. Throws PreconditionError on schema errors,
/// unknown names, or invalid parameters.
ExperimentPlan plan_from_manifest(const JsonValue& manifest);

/// Parses `text` as JSON and expands it.
ExperimentPlan plan_from_manifest_text(const std::string& text);

/// Reads `path` and expands it. Throws PreconditionError when the file
/// cannot be read.
ExperimentPlan plan_from_manifest_file(const std::string& path);

/// Overrides every item's engine knobs after expansion — `sss_lab run
/// --parallel-threads/--sweep-mode` and the serve layer's submit fields.
/// `parallel_threads` 0 and an empty `sweep_mode` keep the manifest's
/// values. Both knobs change cost, never results (engine invariants 5-7),
/// so an overridden plan streams the same rows. Throws PreconditionError
/// on an unknown mode or when an item no longer passes
/// validate_batch_item (a churn item at parallel_threads > 1).
void apply_engine_overrides(ExperimentPlan& plan, int parallel_threads,
                            const std::string& sweep_mode);

}  // namespace sss
