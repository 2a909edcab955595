#pragma once
/// \file engine.hpp
/// The computation engine: drives a protocol over a graph under a daemon,
/// producing computations (gamma_0 s_0 gamma_1), (gamma_1 s_1 gamma_2), ...
/// exactly as Section 2 defines them, while measuring everything Section 3
/// asks about.
///
/// Fidelity notes:
///  * Subset steps use snapshot semantics: every process selected in a step
///    evaluates guards and computes writes against gamma_i; commits happen
///    together to form gamma_{i+1}.
///  * Rounds: a round completes when every process has been covered, where
///    covered means "selected by the daemon" or "disabled at some moment
///    during the round". This is the paper's round for daemons that select
///    disabled processes, and the standard Dolev-Israeli-Moran round for
///    daemons that never waste selections on disabled processes.
///  * Enabledness probes and quiescence checks are simulator devices: they
///    never touch the main rng stream and are never counted as model reads.
///
/// Hot-path design — the per-step cost is O(|selection| + perturbed
/// neighborhoods), not O(n). Four incremental structures carry this —
/// invariants 1-3 and the legitimacy tracker (invariant 8) — all
/// exploiting the same locality fact: a process's behaviour depends only on
/// its own state and its neighbors' communication variables, so an event at
/// p can only affect p (it fired: own state changed) and N(p) (its
/// communication state changed). `ReferenceEngine` preserves the original
/// full-scan implementation, and tests/test_engine_equivalence.cpp drives
/// both in lockstep to prove the semantics are bit-identical.
///
///  1. Enabledness dirty queue. `enabled_` (a word-packed `EnabledSet`)
///     caches every process's guard evaluation and counts the members.
///     Invariant: a cached entry is stale only if p sits in `dirty_queue_`
///     (flagged by `probe_dirty_`). Firing marks the process dirty; a
///     communication change marks its neighbors dirty (`note_comm_changed`).
///     `refresh_enabled` drains the queue, so a step re-evaluates only the
///     perturbed guards — and the same set feeds the daemon directly, so
///     selection cost tracks the answer instead of rescanning n entries.
///
///  2. Incremental round accounting. `covered_` is a word-packed
///     `EnabledSet` with an exact count. Invariant between steps: every
///     process whose cached enabledness is 0 is covered, and so is every
///     frozen one under frozen exclusion ("disabled at some moment during
///     the round" can only begin at a refresh that observes it disabled,
///     or at a round boundary). So the per-step work is covering the
///     selection; a completed round restarts covering (`reset_round`) as
///     the word complement of the set the daemon samples from — `active_`
///     under frozen exclusion, `enabled_` otherwise — in O(n/64).
///
///  3. Solo-quiescence cache. `solo_active_[p]` caches "would p, run solo
///     against the frozen communication state, attempt a communication
///     write within degree(p) + margin activations" — exactly the per-
///     process question `is_comm_quiescent` answers. An entry goes stale
///     (dirty, queued in `solo_dirty_queue_`) under the same two events as
///     enabledness, and a dirty entry holds 0, so `solo_active_count_`
///     counts the clean active entries only. The configuration is silent
///     iff the count is zero with the queue drained. The check is lazy:
///     while the count is positive a clean entry already proves "not
///     silent" and nothing is probed; otherwise the queue is drained only
///     until the first active process (`solo_probes` counts the probes).
///     Each dirtying therefore costs at most one probe, and a checkpoint
///     that cannot certify usually costs none. `run` calls
///     `certified_silent` at its quiescence checkpoints. Each positive
///     answer is confirmed by the full check, `quiescent()`, under
///     SSS_ASSERT: every process recomputed from scratch, once per
///     certification instead of at every checkpoint. The churn window
///     calls `quiescent()` at its recovery checkpoints (runtime/churn.hpp
///     says why). One solo hook, `Protocol::solo_writes_comm`, answers
///     both the probes and the full check, so they share one decision
///     procedure. RuleProtocol supplies it from the protocol's one guard
///     and act on `SlabSoloContext` (runtime/rule.hpp): p's evolving state
///     lives in two row buffers, neighbours are read from config_, and
///     nothing is copied or virtually dispatched per activation. Every
///     other protocol (the same ROTATING-CHECK, nested generic-efficiency
///     and test mocks as invariant 5) inherits the scalar default, the
///     `solo_would_write_comm` loop, and SweepMode::kForceScalar runs that
///     default on every protocol. The free `is_comm_quiescent` stays
///     scalar: it is the oracle ReferenceEngine certifies with.
///
///  4. Guard re-run. A refresh records only the chosen action
///     (`probe_action_`); its reads are probe reads, charged to nobody.
///     Phase 1 of `step()` re-runs the guard of every selected process,
///     enabled or not, on the gamma_i snapshot the refresh saw, charging
///     its reads where they happen, then runs the action. The dirty
///     invariant guarantees the re-run chooses the refreshed action;
///     `EnabledBitmap::expect_rerun` asserts it, so a dirty-tracking bug
///     fails loudly. A process's guard and action reads form one
///     contiguous run, the contract StepReadCounter and WorkerReadTally
///     dedup on (runtime/metrics.hpp).
///     Idle charge: a whole-network selection with nothing enabled (the
///     synchronous daemon after silence) fires nobody, so it only charges
///     n guard re-runs, the same reads at every such step until the next
///     refresh. The first one records the (reads, bits) it charged; each
///     repetition adds them through `StepReadCounter::absorb` in O(1)
///     (`idle_charges` counts them). The maxima need nothing. On that
///     path, as on the pooled path, the engine's own counter does not
///     maintain `step_reads_of`. An attached external logger must see
///     every read, so it pins the re-runs (and the serial slice, invariant
///     7) and nothing else; an attached trace still records every step.
///
///  5. One refresh hook. `refresh_enabled` hands the dirty ids — the
///     whole dirty queue, or each pool worker's share of it (invariant 7)
///     — to one `Protocol::sweep_enabled_ids` call and records every
///     outcome through the same `record_probe` (EnabledSet, covering,
///     frozen classification). Only dirty guards are evaluated; clean
///     entries stay as they are. RuleProtocol supplies the hook from the
///     protocol's one guard, run on slab-row contexts (runtime/rule.hpp,
///     runtime/bulk.hpp), so no per-process virtual probe runs under any
///     daemon: a central daemon's handful of dirty ids and a synchronous
///     daemon's n take the same kernel. That includes generic-efficiency
///     over a rule protocol, a rule protocol itself with the inner rule
///     inlined over its mirror bank. Protocols without a kernel
///     (ROTATING-CHECK, generic-efficiency over anything else — a nested
///     transformer — and test mocks) inherit the scalar default, one
///     `first_enabled` probe per id, and
///     SweepMode::kForceScalar runs that default on every protocol as
///     the differential suites' reference. Frozen-process exclusion keeps
///     the one-list refresh: its self-loop classifier shares one scratch
///     arena and updates `active_`'s count in place.
///
///  6. One execute hook. A step's execution is `evaluate_slice` (phase 1:
///     guard re-runs + staged rows against the gamma_i snapshot) then
///     `commit_slice` (phase 2: rows committed, each fired process handed
///     to the dirty-queue/covering/solo-cache treatment), over selection
///     index slices. Phase 1 is one `Protocol::execute_selected` call per
///     slice, whatever the selection size, daemon, frozen exclusion or
///     attached logger. The hook re-runs each selected guard and checks it
///     against the refresh (invariant 4), runs each fired process's
///     action, charging both halves' reads through a `ReadSink` (the step
///     counter, the worker's tally, or the mux while an external logger
///     listens), and stages the post-state as a full configuration row.
///     The commit compares the staged comm prefix against the live row:
///     unwritten slots keep their snapshot values, so a difference is
///     exactly a written comm slot whose value changed. RuleProtocol
///     supplies the hook from the protocol's one guard and act on slab
///     contexts, with no virtual call per process or read; every other
///     protocol (the same ROTATING-CHECK, nested generic-efficiency and
///     test mocks as invariant 5) inherits the scalar default, one
///     GuardContext and ActionContext per selected process, and
///     SweepMode::kForceScalar runs that default on every protocol.
///     Probabilistic protocols draw from the model rng on the serial slice
///     in ascending selection order, which is the scalar stream bit for
///     bit. Every other slice gets no rng: a kernel asserts on a draw, and
///     the default runs the action through `execute_certified`, whose
///     empty random script and assert catch a protocol that declared
///     is_probabilistic() == false and draws anyway.
///
///  7. Intra-trial parallelism (opt-in via set_parallel_threads). The
///     kernels of invariants 5 and 6 fan out over StepPool workers. The
///     refresh partitions the network into contiguous 64-aligned process
///     ranges; each worker refreshes the dirty ids of its own range, so
///     it owns disjoint enabled_ and covered_ words, action slots and
///     probe_dirty_ bytes, and defers its count deltas to a serial fold; the phase pair partitions the selection into
///     contiguous slices, each worker reading into its own tally, with a
///     barrier between the phases. Everything order-sensitive — daemon
///     selection (it consumes rng_), EnabledSet count deltas, dirty-queue
///     pushes, read-metric absorption — is merged serially in ascending
///     process order after the barrier. The determinism contract: every
///     configuration trajectory, round count, and read/bit metric is
///     bit-identical to the one-range engine at any thread count. Three
///     gates keep the contract airtight rather than probabilistic:
///     probabilistic protocols keep the one serial slice (Rng::below
///     consumes a variable number of words, so parallel actions cannot
///     preserve the stream; workers get no model rng, so a protocol that
///     lies about is_probabilistic fails there, invariant 6), attached
///     external read loggers do too (ReadLoggerMux fan-out is
///     order-sensitive and not thread-safe), and frozen-process exclusion
///     pins the one-list refresh. Loggers and exclusion pin nothing else:
///     the serial slice runs the same execute hook.
///
///  8. Legitimacy tracker (`run`, while the first legitimate
///     configuration is pending; the churn window of runtime/churn.hpp
///     keeps one the same way). When RunOptions::local_legitimacy is
///     set, a per-run LegitimacyTracker (runtime/legitimacy.hpp) counts
///     local violations: processes failing ok_at (or, for a cover form,
///     edges with both ends uncovered). Invariant after every step: the
///     count equals that number in the current configuration. Every
///     process that fired is in the step's selection, and ok_at reads
///     nothing beyond its radius r, so the tracker re-checks the radius-r
///     ball around the selected processes whose read-visible row (comm
///     prefix, or full row when the form reads_internal(), as matching's
///     cur) differs from its mirror (each process once, by generation
///     stamp). That keeps the count exact, and a step that only rotates
///     an internal pointer re-checks nothing. The parallel and bulk paths
///     need nothing extra because the selection is the same on every
///     path, and step() pays nothing for it: the tracker reads the
///     selection after the step (`last_selection`). The count reaching
///     zero (with constants_ok) marks first legitimacy; that one moment
///     is re-confirmed by the full `legitimacy` function under SSS_ASSERT,
///     as certified silence re-confirms the quiescence cache. Fallback:
///     without a local form (an opaque caller-supplied predicate) run
///     evaluates `legitimacy` after every step, as the original engine
///     did. Both report the same step and round.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"
#include "runtime/daemon.hpp"
#include "runtime/enabled_set.hpp"
#include "runtime/legitimacy.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/protocol.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/trace.hpp"

namespace sss {

/// How the engine runs the two halves of a step that have slab kernels:
/// guard refresh (invariant 5 in the file comment) and selection
/// execution (invariant 6). kAuto calls the protocol's
/// `sweep_enabled_ids` and `execute_selected` (its slab kernels when it
/// has them); kForceScalar calls their scalar defaults, one
/// `first_enabled` probe per dirty id and one GuardContext and
/// ActionContext per selected process. kForceScalar exists for the
/// differential suites and the scalar-vs-bulk benches. Both modes compute
/// the same computation bit for bit — mode only changes cost, and may be
/// flipped mid-trajectory.
enum class SweepMode { kAuto, kForceScalar };

/// Manifest/CLI spelling of a SweepMode ("auto", "force_scalar");
/// "force_bulk", the spelling of a retired mode that ran what kAuto runs,
/// still parses, as kAuto. Throws PreconditionError on anything else.
SweepMode parse_sweep_mode(const std::string& name);
const std::string& sweep_mode_name(SweepMode mode);

/// Legitimacy predicate over (graph, configuration); supplied by the caller
/// because "the problem" is a layer above the runtime.
using LegitimacyPredicate =
    std::function<bool(const Graph&, const Configuration&)>;

struct RunOptions {
  std::uint64_t max_steps = 1'000'000;
  /// Stop as soon as an exact quiescence check certifies silence.
  bool stop_on_silence = true;
  /// Steps without a communication change before attempting the (exact but
  /// not free) quiescence check; 0 picks max(16, n) automatically.
  std::uint64_t quiescence_patience = 0;
  /// Optional legitimacy predicate for first-legitimate bookkeeping.
  LegitimacyPredicate legitimacy;
  /// Optional local form of the same predicate (not owned). When set, run
  /// tracks violations incrementally instead of calling `legitimacy` after
  /// every step, and `legitimacy` (if set) only confirms the first
  /// legitimate configuration. See the legitimacy tracker in the file
  /// comment.
  const LocalLegitimacy* local_legitimacy = nullptr;
};

struct RunStats {
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;

  bool reached_legitimate = false;
  std::uint64_t steps_to_legitimate = 0;
  std::uint64_t rounds_to_legitimate = 0;

  bool silent = false;  ///< certified by the exact quiescence check
  /// Step/round count after which no communication variable changed again
  /// (the silence point; meaningful when `silent`).
  std::uint64_t steps_to_silence = 0;
  std::uint64_t rounds_to_silence = 0;

  std::uint64_t total_reads = 0;
  std::uint64_t total_read_bits = 0;
  int max_reads_per_process_step = 0;
  int max_bits_per_process_step = 0;
};

class Engine {
 public:
  /// The engine keeps references to `g` and `protocol`; both must outlive
  /// it. The daemon is owned. The seed fixes every stochastic choice.
  Engine(const Graph& g, const Protocol& protocol,
         std::unique_ptr<Daemon> daemon, std::uint64_t seed);

  const Graph& graph() const { return graph_; }
  const Protocol& protocol() const { return protocol_; }
  const Configuration& config() const { return config_; }
  Daemon& daemon() { return *daemon_; }

  /// Replaces the configuration (domains are validated) and re-installs
  /// protocol constants.
  void set_config(const Configuration& config);

  /// Draws an arbitrary configuration: every non-constant variable uniform
  /// in its domain, constants re-installed.
  void randomize_state();

  /// Injects a transient fault mid-run: redraws every non-constant variable
  /// of every victim uniformly from its domain (the `corrupt_processes`
  /// draw sequence, consumed from `rng`) and repairs the incremental caches
  /// *locally* — the victims and their neighborhoods are re-dirtied in the
  /// enabledness and solo-quiescence queues (the corruption touched only
  /// their guard inputs, by the locality fact in the file comment), the
  /// guards of that set are re-evaluated on the next refresh, and round
  /// covering restarts exactly as `set_config` restarts it. Unlike
  /// `set_config` this is O(victims * Delta), not O(n), so a churn driver
  /// can inject thousands of disruptions without full invalidation sweeps.
  /// ReferenceEngine has the same hook with full invalidation; the churn
  /// lockstep suites prove both repairs are step-for-step identical.
  void apply_external_corruption(const std::vector<ProcessId>& victims,
                                 Rng& rng);

  /// Executes one scheduler step. Returns whether any process fired and
  /// whether any communication variable changed.
  struct StepInfo {
    int selected = 0;
    int fired = 0;
    bool comm_changed = false;
  };
  StepInfo step();

  /// Runs until silence (if stop_on_silence) or max_steps. Accumulates into
  /// the engine's lifetime counters and returns the stats of this run.
  RunStats run(const RunOptions& options);

  /// The processes the last step() selected, ascending (empty before the
  /// first step). Every write of that step landed in one of them. Valid
  /// until the next step().
  std::span<const ProcessId> last_selection() const { return selection_; }

  std::uint64_t steps() const { return steps_; }
  /// Completed rounds so far.
  std::uint64_t rounds() const { return rounds_completed_; }
  /// Rounds in the "within k rounds" sense: completed rounds, plus one if
  /// the current round has begun.
  std::uint64_t rounds_inclusive() const;

  /// Enabledness of p in the current configuration (cached probe).
  bool is_enabled(ProcessId p);
  int num_enabled();

  /// Opt-in (off by default): exclude *frozen* processes from the enabled
  /// set handed to the daemon. A process is frozen when its first enabled
  /// action is a verified self-loop — executing it consumes no randomness
  /// and writes only values equal to the current configuration, so firing
  /// it is indistinguishable from not selecting it. The classic case is a
  /// silent COLORING network's degree-1 leaves, whose pointer rotation
  /// cur <- (cur mod 1) + 1 rewrites cur with itself forever: under the
  /// distributed daemon they keep the sampled set at Theta(n) after
  /// silence (the ROADMAP selection-floor item) even though selecting
  /// them can never change anything.
  ///
  /// Semantics: a frozen process is treated exactly as if the daemon
  /// co-selected it every step and its self-loop fired — it is covered
  /// for round accounting at classification time, and the configuration
  /// trajectory is unchanged because the fired action writes no new
  /// values. Daemon rng consumption *does* change (the sampled set is
  /// smaller), so runs with exclusion on are not bit-identical to runs
  /// with it off under randomized daemons; under the synchronous daemon
  /// with a deterministic protocol they are configuration-identical step
  /// for step (equivalence-tested against ReferenceEngine). When every
  /// enabled process is frozen the full enabled set is handed to the
  /// daemon unchanged, keeping selection well-formed.
  void set_exclude_frozen(bool on);
  bool exclude_frozen() const { return exclude_frozen_; }

  /// Frozen status of p under the current configuration; always false
  /// while exclusion is off.
  bool is_frozen(ProcessId p);

  /// Refresh and execute strategy (see SweepMode). The mode is a
  /// preference: the semantics never change.
  void set_sweep_mode(SweepMode mode) { sweep_mode_ = mode; }
  SweepMode sweep_mode() const { return sweep_mode_; }

  /// Intra-trial parallelism (invariant 7 in the file comment): evaluate
  /// guard refreshes and the selected set on `threads` pool workers with a
  /// deterministic merge. 1 (the default) runs fully serial with no pool.
  /// Any value produces the bit-identical computation — thread count only
  /// changes wall-clock — so callers may pick it from the hardware freely.
  void set_parallel_threads(int threads);
  int parallel_threads() const { return parallel_threads_; }

  /// Exact silence check of the current configuration: the solo hook
  /// (`Protocol::solo_writes_comm`, its scalar default under
  /// kForceScalar) on every process from scratch, sharing nothing with
  /// the cache of invariant 3. `certified_silent` confirms each positive
  /// answer with it, and the churn window's recovery checkpoints call it.
  /// Equal to `is_comm_quiescent` on the same configuration; non-const
  /// only because the scalar default runs in place on the configuration
  /// and restores it.
  bool quiescent();

  /// Certifies silence through the solo-quiescence cache (invariant 3 in
  /// the file comment), the incremental equivalent of `quiescent`: false
  /// at once while a clean entry is active, otherwise probes dirty entries
  /// through the same solo hook until the first active one. A positive
  /// answer is confirmed by the full `quiescent` check under SSS_ASSERT.
  /// `run` calls it at its quiescence checkpoints.
  bool certified_silent();

  /// Solo probes the cache has run over the engine's lifetime (one solo
  /// hook call per dirty entry drained). A plain count for tests and
  /// profiling; no result depends on it.
  std::uint64_t solo_probes() const { return solo_probes_; }

  /// Idle steps charged in O(1) instead of re-running n guards (invariant
  /// 4). A plain count for tests and profiling; no result depends on it.
  std::uint64_t idle_charges() const { return idle_charges_; }

  /// Attach an extra read observer (e.g. StabilityTracker). Not owned.
  /// Attaching a logger twice, or detaching one that is not attached,
  /// throws PreconditionError.
  void attach_read_logger(ReadLogger* logger);
  void detach_read_logger(ReadLogger* logger);

  /// Attach a trace recorder. Not owned; pass nullptr to detach.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Step-level read metrics for the engine's lifetime.
  const StepReadCounter& read_counter() const { return read_counter_; }

  Rng& rng() { return rng_; }

 private:
  void invalidate_all_probes();
  void mark_probe_dirty(ProcessId p);
  void mark_solo_dirty(ProcessId p);
  /// Drains the dirty queue (invariant 5): refreshes all dirty ids at once
  /// or each pool worker's share (invariant 7), then folds the deferred
  /// count deltas.
  void refresh_enabled();
  /// A refresh's enabled_ and covered_ count deltas, folded serially after
  /// the workers.
  struct RefreshDeltas {
    int enabled = 0;
    int covered = 0;
  };
  /// Re-evaluates the guards of `ids` through one sweep_enabled_ids call
  /// (the scalar default under kForceScalar) and records each outcome.
  /// Returns the deferred count deltas.
  RefreshDeltas refresh_ids(std::span<const ProcessId> ids);
  /// Commits one guard outcome into the EnabledSet, frozen
  /// classification, and covering, deferring count deltas into `deltas`.
  /// The refresh has already written the action into `probe_action_`.
  void record_probe(ProcessId p, int action, RefreshDeltas& deltas);
  /// Updates p's active_ entry for its new first enabled `action` and
  /// returns it: enabled and not frozen. Exclusion on only.
  bool classify_active(ProcessId p, int action);
  /// The phase pair over `selection_` (invariants 6, 7): one serial slice
  /// or the pool's slices plus the ascending merge. Counts fired processes
  /// and comm changes into `info`.
  void execute_selection(StepInfo& info);
  /// Phase 1 for selection indices [begin, end): guard re-runs plus
  /// staged rows, through one execute_selected call (the scalar default
  /// under kForceScalar). The serial slice passes a null `tally`: reads go
  /// to the step counter (or, with an external logger attached, the mux)
  /// and probabilistic actions draw from the model stream. A pool worker
  /// passes its tally and gets no model rng.
  void evaluate_slice(std::size_t begin, std::size_t end,
                      WorkerReadTally* tally);
  /// Phase 2 for selection indices [begin, end): commits each fired
  /// process's staged row and calls on_commit(p, comm_changed) in
  /// ascending order.
  template <class OnCommit>
  void commit_slice(std::size_t begin, std::size_t end, OnCommit&& on_commit);
  /// Worker w's process range [begin, end): contiguous, 64-aligned, so
  /// partitioned writers never share an EnabledSet word.
  std::pair<ProcessId, ProcessId> worker_range(int worker) const;
  /// Would firing `action` (p's refreshed first enabled action) provably
  /// leave the configuration unchanged? See set_exclude_frozen.
  bool verified_self_loop(ProcessId p, int action);
  void note_comm_changed(ProcessId p);
  void reset_round();
  /// Would p, run solo against the frozen communication state, attempt a
  /// communication write within degree(p) + margin activations? One
  /// solo_writes_comm call (the scalar default under kForceScalar).
  bool solo_writes_comm(ProcessId p);

  const Graph& graph_;
  const Protocol& protocol_;
  std::unique_ptr<Daemon> daemon_;
  Rng rng_;
  Configuration config_;

  // Enabledness cache (invariant 1 in the file comment). `enabled_` is the
  // membership + count structure handed to the daemon every step.
  EnabledSet enabled_;
  std::vector<std::uint8_t> probe_dirty_;
  std::vector<ProcessId> dirty_queue_;

  // Phase 1 (invariant 6): `staged_rows_` holds one full configuration
  // row per selection index for the execute hook's staged post-states.
  SweepMode sweep_mode_ = SweepMode::kAuto;
  std::vector<Value> staged_rows_;

  // Frozen-process exclusion (see set_exclude_frozen). `active_` is
  // enabled minus frozen, maintained alongside `enabled_` by the same
  // dirty-queue refresh, so the frozen set is `enabled_` minus `active_`;
  // it is only consulted while `exclude_frozen_` is on, so the default
  // path pays nothing.
  bool exclude_frozen_ = false;
  EnabledSet active_;
  std::vector<PendingWrite> frozen_scratch_;

  // Per-process action chosen by the last refresh, checked against the
  // phase-1 guard re-run (invariant 4); the commit and the trace read the
  // fired actions from it. Sized to n once in the constructor.
  EnabledBitmap probe_action_;

  // Round accounting (invariant 2).
  EnabledSet covered_;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t steps_at_round_start_ = 0;

  // Solo-quiescence cache (invariant 3).
  std::vector<std::uint8_t> solo_active_;
  std::vector<std::uint8_t> solo_dirty_;
  std::vector<ProcessId> solo_dirty_queue_;
  int solo_active_count_ = 0;  ///< clean active entries
  std::uint64_t solo_probes_ = 0;
  int solo_margin_;  ///< solo activations beyond degree(p)

  // Idle charge (invariant 4): what one whole-network all-disabled step
  // charged, valid until the next refresh.
  bool idle_charge_valid_ = false;
  std::uint64_t idle_reads_ = 0;
  std::uint64_t idle_bits_ = 0;
  std::uint64_t idle_charges_ = 0;

  // Lifetime counters.
  std::uint64_t steps_ = 0;
  std::uint64_t last_comm_change_step_ = 0;
  std::uint64_t rounds_at_last_comm_change_ = 0;

  // Scratch arenas reused across steps; sized up once, never shrunk, so
  // the steady-state step performs no heap allocation.
  std::vector<ProcessId> selection_;

  // Intra-trial parallelism (invariant 7). worker_states_ holds one slot
  // per pool worker, reused across steps; external_loggers_ counts
  // attach_read_logger clients, whose presence pins the one serial slice
  // and the idle-charge re-runs (invariant 4).
  struct WorkerState {
    explicit WorkerState(const StepReadCounter& counter) : tally(counter) {}
    WorkerReadTally tally;
    /// The dirty ids inside the worker's range, refreshed by it.
    std::vector<ProcessId> ids;
    /// (process, comm changed) per committed row, in slice order.
    std::vector<std::pair<ProcessId, bool>> commits;
    RefreshDeltas deltas;
  };
  int parallel_threads_ = 1;
  std::unique_ptr<StepPool> pool_;
  std::vector<WorkerState> worker_states_;
  int external_loggers_ = 0;

  ReadLoggerMux logger_mux_;
  StepReadCounter read_counter_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace sss
