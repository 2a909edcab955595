#pragma once
/// \file churn.hpp
/// Continuous-disruption runtime: the production-shaped regime the clean
/// "randomize once, run to silence" experiments never exercise.
///
/// Self-stabilization is the guarantee that matters when the system is
/// *never* fault-free. `ChurnRunner` drives an engine through a measured
/// window under a seeded stream of disruptions — transient state
/// corruption of random victim sets, whole-node resets, and topology
/// churn (edge add/remove, node join/leave) — and accumulates
/// availability-style service metrics in `ChurnStats`:
///
///  * fraction of window steps the configuration satisfies the bound
///    legitimacy predicate (availability), followed incrementally through
///    the problem's local form when one is bound (see below);
///  * recovery-time samples — rounds from each disruption to the next
///    re-certified silence (exact quiescence check), summarized as
///    p50/p90/p99 by `summarize_churn`. The check runs once per patience
///    interval of comm-quiet recovering steps, as the full `quiescent()`
///    on both engines: Engine's runs the protocol's solo hook (its rule
///    inlined, engine invariant 3), ReferenceEngine's the scalar
///    `is_comm_quiescent`. Engine::run's cached certification (engine
///    invariant 3) saves nothing here: nearly every recovery checkpoint
///    succeeds, and a cached success first probes every entry dirtied
///    since the last one (all n, for a protocol that rotates a pointer
///    while idle), then runs the same confirming full check;
///  * disruptions survived, split by kind, and the reads/bits spent while
///    recovering vs while idling at silence.
///
/// Determinism contract: every stochastic choice — whether a step fires
/// an event, the kind, the victims, the corrupted values, topology picks,
/// the joiner's randomized state — draws from one `Rng` seeded by
/// `ChurnOptions::seed`, owned by the runner. Two runners constructed
/// with identical inputs therefore produce identical trajectories, which
/// is both the thread-count-invariance guarantee the batch runner needs
/// (churn state is per-trial, never shared) and the lockstep proof
/// device: `tests/test_churn.cpp` drives `ChurnRunner<Engine>` against
/// `ChurnRunner<ReferenceEngine>` step for step, topology events
/// included, and asserts identical configurations, rounds, and read
/// metrics throughout.
///
/// Topology churn and the re-attach path: `Graph` is an immutable CSR, so
/// a topology event builds a *new* graph, a new protocol instance (via
/// the caller's factory — registry-backed in the experiment lab), and a
/// new engine with a deterministically derived seed, then carries the
/// surviving state over: each surviving process keeps its variable values
/// clamped into the (possibly shrunk) domains of the new topology,
/// communication constants are re-installed by the new protocol, and
/// joined nodes start from uniformly random state. Process ids stay
/// stable — a join appends id n (up to initial n + 8 processes), a leave
/// removes only the current highest id (and only when the remainder keeps
/// the node floor max(2, initial n / 2) and stays connected) — so ids
/// below the node floor survive every event, and id-valued parameters (a
/// BFS root, an election id scheme) keep naming the same process. The
/// daemon and its fairness history restart with the new engine;
/// documented, deterministic, and identical on both engines.
///
/// Availability tracking: the predicate is pure in the configuration, so
/// it is re-evaluated only after a step that fired or an event. Given the
/// problem's LocalLegitimacy as well, `ChurnRunner<Engine>` instead keeps
/// a LegitimacyTracker (runtime/legitimacy.hpp) for the window, so a step
/// costs the local re-checks around whatever actually changed rather than
/// one O(n + m) predicate call: a fired step re-checks around the
/// engine's `last_selection()`, a corruption or reset around its victims,
/// and a topology re-attach builds a new tracker on the new graph (the old
/// one references the graph the re-attach destroys). The stabilize phase
/// hands the form to Engine::run (engine invariant 8). Every
/// not-legitimate -> legitimate flip of the tracker is re-confirmed by the
/// full predicate under SSS_ASSERT, a few calls per disruption. Both paths
/// count the same legitimate steps; `ChurnRunner<ReferenceEngine>` ignores
/// the form and keeps the full per-step check, which makes it the oracle of
/// the registry-wide lockstep suite in tests/test_churn.cpp.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/engine.hpp"
#include "runtime/legitimacy.hpp"

namespace sss {

/// Builds the protocol instance for a (possibly churned) topology. The
/// experiment lab supplies a registry-backed factory capturing the
/// protocol name and parameters.
using ProtocolFactory =
    std::function<std::unique_ptr<Protocol>(const Graph&)>;

struct ChurnOptions {
  /// Per-step Bernoulli event rate; mutually exclusive with `period`.
  double event_probability = 0.0;
  /// Deterministic event period: an event fires before every `period`-th
  /// window step. 0 disables; exactly one of the two schedules must be
  /// set.
  std::uint64_t period = 0;

  /// Measured window length in engine steps (after initial stabilization).
  std::uint64_t window_steps = 2000;
  /// Step budget of the uncounted initial stabilization phase.
  std::uint64_t stabilize_steps = 400'000;
  /// Seed of the churn event stream (schedule, kinds, victims, values,
  /// topology picks). Independent of the engine seed.
  std::uint64_t seed = 0xC4A21ULL;

  /// Corruption events redraw 1..max_victims random victims (clamped to n).
  int max_victims = 2;

  /// Relative weights of the event kinds; at least one must be positive.
  /// Topology events require a ProtocolFactory (owning-mode runner) and
  /// split uniformly between edge add, edge remove, node join, and node
  /// leave.
  int corruption_weight = 1;
  int node_reset_weight = 0;
  int topology_weight = 0;

  /// Comm-change-free steps before attempting the exact re-certification
  /// check; 0 picks max(16, n) like RunOptions::quiescence_patience.
  std::uint64_t recovery_patience = 0;

  /// Forwarded to the engine(s) the runner constructs.
  SweepMode sweep_mode = SweepMode::kAuto;
  bool exclude_frozen = false;
};

/// Throws PreconditionError unless `options` describe a runnable window:
/// exactly one schedule (event_probability in (0, 1] or period >= 1),
/// window_steps, stabilize_steps and max_victims >= 1, and non-negative
/// event weights of which at least one is positive. The one check of a
/// ChurnOptions: ChurnRunner's constructors and validate_batch_item
/// (analysis/batch.hpp) call it.
void validate_churn_options(const ChurnOptions& options);

/// Availability accumulators of one churn window.
struct ChurnStats {
  std::uint64_t window_steps = 0;
  /// Steps whose post-step configuration satisfied the legitimacy
  /// predicate (0 when no predicate is bound).
  std::uint64_t legitimate_steps = 0;

  std::uint64_t disruptions = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t node_resets = 0;
  std::uint64_t edge_adds = 0;
  std::uint64_t edge_removes = 0;
  std::uint64_t node_joins = 0;
  std::uint64_t node_leaves = 0;
  /// Events whose preconditions failed (e.g. no removable edge); they
  /// consume schedule draws but disrupt nothing.
  std::uint64_t skipped_events = 0;

  /// Completed recovery intervals: disruption (a later disruption during
  /// recovery extends the same interval) to re-certified silence.
  std::uint64_t recoveries = 0;
  /// One sample per completed interval, in rounds and in window steps.
  std::vector<std::uint64_t> recovery_rounds;
  std::vector<std::uint64_t> recovery_step_counts;

  /// Window steps (and model reads/bits) spent recovering vs idle-silent.
  std::uint64_t recovering_steps = 0;
  std::uint64_t idle_steps = 0;
  std::uint64_t recovery_reads = 0;
  std::uint64_t idle_reads = 0;
  std::uint64_t recovery_bits = 0;
  std::uint64_t idle_bits = 0;

  /// Whether the uncounted phase-0 stabilization certified silence.
  bool initial_silent = false;

  bool operator==(const ChurnStats&) const = default;

  /// legitimate_steps / window_steps (0 when the window is empty).
  double availability() const;
  std::uint64_t topology_events() const {
    return edge_adds + edge_removes + node_joins + node_leaves;
  }
  /// Nearest-rank percentile of the recovery_rounds samples (0 if none).
  std::uint64_t recovery_rounds_percentile(double pct) const;
  /// recovery_reads / disruptions (0 when no disruption fired).
  double reads_per_disruption() const;
};

/// Per-item churn reduction, pooled over a sweep's trials in trial order.
struct ChurnSweepSummary {
  int runs = 0;
  int initial_silent_runs = 0;
  std::uint64_t disruptions = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t skipped_events = 0;
  std::uint64_t topology_events = 0;
  double availability_mean = 0.0;
  /// Percentiles of the pooled recovery_rounds samples.
  double recovery_rounds_p50 = 0.0;
  double recovery_rounds_p90 = 0.0;
  double recovery_rounds_p99 = 0.0;
  /// Pooled recovery reads / pooled disruptions.
  double reads_per_disruption = 0.0;
  /// Pooled idle reads / pooled idle steps.
  double idle_reads_per_step = 0.0;
};

ChurnSweepSummary summarize_churn(const ChurnStats* stats, int count);

/// Drives one engine through stabilization plus a churn window. EngineT is
/// `Engine` or `ReferenceEngine` (explicitly instantiated in churn.cpp);
/// the template is what makes the lockstep proof a plain side-by-side run
/// of the same driver code.
template <typename EngineT>
class ChurnRunner {
 public:
  /// Owning mode: the runner owns the (initial) graph and rebuilds
  /// graph/protocol/engine on topology events via `factory`.
  /// `local_legitimacy` (not owned, must outlive the runner) is the local
  /// form of `legitimacy`, which it requires; see "Availability tracking"
  /// in the file comment.
  ChurnRunner(Graph initial, ProtocolFactory factory, std::string daemon_name,
              std::uint64_t engine_seed, ChurnOptions options,
              LegitimacyPredicate legitimacy = {},
              const LocalLegitimacy* local_legitimacy = nullptr);

  /// Borrowed mode: runs on the caller's graph/protocol (which must
  /// outlive the runner); topology_weight must be 0.
  ChurnRunner(const Graph& g, const Protocol& protocol,
              std::string daemon_name, std::uint64_t engine_seed,
              ChurnOptions options, LegitimacyPredicate legitimacy = {},
              const LocalLegitimacy* local_legitimacy = nullptr);

  /// Phase 0: runs to silence (uncounted); records initial_silent.
  RunStats stabilize();

  /// One window step: possibly injects an event, steps the engine, and
  /// accumulates stats. Returns false once the window is exhausted.
  bool step_once();
  void run_window() {
    while (step_once()) {
    }
  }

  const ChurnStats& stats() const { return stats_; }
  const Graph& graph() const { return *graph_; }
  EngineT& engine() { return *engine_; }
  const Configuration& config() const { return engine_->config(); }

  /// Lifetime totals across every engine incarnation (topology re-attach
  /// replaces the engine, whose own counters restart).
  std::uint64_t total_rounds() const;
  std::uint64_t total_reads() const;
  std::uint64_t total_bits() const;

 private:
  /// Applies sweep-mode / frozen-exclusion options to the current engine
  /// (no-ops on engine types without those knobs).
  void configure_engine();
  void inject_event();
  /// Redraws every variable of `victims` and re-checks the tracker (if
  /// built) around them.
  void corrupt(const std::vector<ProcessId>& victims);
  /// Whether the post-step configuration is legitimate: the tracker (built
  /// on first use and after every re-attach), re-checked around the step's
  /// selection when it fired, or the predicate when no form is tracked.
  bool legitimate_after_step(const Engine::StepInfo& info);
  /// Attempts one topology mutation of `subkind` on the current edge
  /// list; returns false when preconditions fail (event skipped).
  bool mutate_topology(int subkind);
  /// Rebuilds graph/protocol/engine for `new_n` and `edges_`, carrying
  /// surviving state over (see file comment). Returns false (and restores
  /// nothing — callers snapshot edges_) when the factory rejects the new
  /// topology.
  bool reattach(int new_n);
  void mark_disruption();
  std::uint64_t recovery_patience() const;

  std::unique_ptr<Graph> owned_graph_;
  std::unique_ptr<Protocol> owned_protocol_;
  const Graph* graph_ = nullptr;
  const Protocol* protocol_ = nullptr;
  ProtocolFactory factory_;
  std::string daemon_name_;
  std::uint64_t engine_seed_ = 0;
  ChurnOptions options_;
  LegitimacyPredicate legitimacy_;
  /// Null unless a form was given and EngineT is Engine.
  const LocalLegitimacy* local_legitimacy_ = nullptr;
  std::unique_ptr<EngineT> engine_;
  /// Declared after the graph it references, so it is destroyed first.
  std::optional<LegitimacyTracker> tracker_;
  Rng churn_rng_;
  ChurnStats stats_;

  std::vector<Edge> edges_;
  /// Topology churn's node-count bounds: max(2, initial n / 2) and
  /// initial n + 8 (see the file comment for what the floor protects).
  int min_nodes_ = 2;
  int max_nodes_ = 0;

  std::uint64_t window_step_ = 0;
  bool recovering_ = false;
  std::uint64_t recovery_start_rounds_ = 0;
  std::uint64_t recovery_start_step_ = 0;
  std::uint64_t quiet_streak_ = 0;
  bool legit_cached_ = false;
  bool legit_valid_ = false;

  std::uint64_t rounds_offset_ = 0;
  std::uint64_t reads_offset_ = 0;
  std::uint64_t bits_offset_ = 0;
};

}  // namespace sss
