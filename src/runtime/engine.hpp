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
///  2. Incremental round accounting. Invariant between steps: every
///     process whose cached enabledness is 0 is covered ("disabled at some
///     moment during the round" can only begin at a refresh that observes
///     it disabled, or at a round boundary). So the per-step work is
///     covering the selection; the O(n) "cover everything disabled" rescan
///     runs once per completed round (`reset_round`), not once per step.
///
///  3. Solo-quiescence cache. `solo_active_[p]` caches "would p, run solo
///     against the frozen communication state, attempt a communication
///     write within degree(p) + margin activations" — exactly the per-
///     process question `is_comm_quiescent` answers; `solo_active_count_`
///     counts the 1s, and the configuration is certified silent iff it
///     drains to zero. The cache goes stale under the same two events as
///     enabledness and is refreshed lazily only when `run` reaches a
///     quiescence checkpoint, so the O(n*Delta) full solo simulation of the
///     original engine happens at most once per run (as a final
///     confirmation assert) instead of at every checkpoint.
///
///  4. Guard memo. A probe must run `first_enabled` anyway, so it records
///     its outcome: the chosen action and the exact sequence of neighbor
///     reads the guard logged (`probe_action_`, `probe_reads_`). The dirty
///     invariant that keeps the enabledness bit current keeps the memo
///     current too — a clean process's guard inputs are unchanged, so a
///     live re-run would log the same reads and return the same action.
///     Phase 1 of `step()` therefore *replays* the memo into the read
///     counters and goes straight to `execute` for enabled processes,
///     instead of re-evaluating every selected guard. Under large
///     selections (synchronous/distributed daemons) this roughly halves
///     the per-selected-process cost; metrics stay bit-identical because
///     the replayed on_read sequence is the one a live evaluation would
///     emit.
///
///  5. Bulk guard sweep. Under co-firing daemons the dirty queue holds
///     almost all of n after every step, so the refresh is n scalar probes
///     — n virtual calls with per-read checked lookups. When the protocol
///     has a bulk sweep (Protocol::has_bulk_sweep; RuleProtocol supplies
///     it from the protocol's one guard, runtime/rule.hpp) and the dirty
///     set covers at least 3/4 of the network (or SweepMode::kForceBulk),
///     the refresh instead runs one `sweep_enabled` pass over the CSR
///     slabs that rewrites every memo (action + read log) at once; see
///     runtime/bulk.hpp. Clean processes are recomputed too — their
///     inputs are unchanged, so the sweep reproduces their memos exactly
///     and the dirty-queue invariant is preserved. Frozen-process
///     exclusion needs the per-process self-loop classifier, so it always
///     takes the scalar path.
///
///  6. Bulk execution. The execute half of a deployed synchronous step
///     pays one ActionContext + virtual `execute` + pending-write commit
///     per selected process. When the protocol has a bulk execute
///     (Protocol::has_bulk_execute; RuleProtocol supplies it from the
///     protocol's one act) and the selection covers at least half of the
///     network (or SweepMode::kForceBulk), phase 1 instead runs one
///     `execute_selected` pass over the CSR slabs: the kernel
///     replays each selected guard memo into the read counters and
///     stages each fired process's post-state as a full configuration
///     row; phase 2 commits the rows with the same dirty-queue/covering/
///     solo-cache treatment (and comm-changed detection by comm-prefix
///     compare, equivalent to the pending-write flag because unwritten
///     slots keep their snapshot values). The 1/2 threshold is calibrated
///     from bench_bulk_execute: the bulk pass only amortizes its staging
///     and dispatch overhead under co-firing selections. Frozen-process
///     exclusion and attached external read loggers pin the scalar
///     execute exactly as they pin the scalar sweep / serial step;
///     probabilistic protocols are bulk-executable *serially* (the kernel
///     draws from the model rng in ascending selection order, which is
///     the scalar stream bit for bit) and stay serial under invariant 7's
///     gates.
///
///  7. Intra-trial parallelism (opt-in via set_parallel_threads). The
///     network is partitioned into contiguous 64-aligned process ranges —
///     one per StepPool worker — so each range owns disjoint EnabledSet
///     words, probe memo slots, and covered_/probe_dirty_ bytes. Guard
///     refreshes (scalar probes and bulk sweeps alike; guards never draw
///     randomness) and the selected set's phase-1 evaluation + phase-2
///     row commits fan out over the ranges — phase 1 running the bulk
///     execute kernel over each worker's contiguous selection slice when
///     invariant 6 would engage it serially; everything order-sensitive —
///     daemon selection (it consumes rng_), EnabledSet count deltas,
///     dirty-queue pushes, read-metric absorption — is merged serially in
///     ascending process order after the barrier. The determinism
///     contract: every configuration trajectory, round count, and
///     read/bit metric is bit-identical to the single-threaded engine at
///     any thread count. Three gates keep the contract airtight rather
///     than probabilistic: probabilistic protocols fall back to serial
///     execution (Rng::below consumes a variable number of words, so
///     parallel actions cannot preserve the stream; an empty random
///     script + assert catches a protocol that lies about
///     is_probabilistic), attached external read loggers force the
///     serial path (ReadLoggerMux fan-out is order-sensitive and not
///     thread-safe), and frozen-process exclusion pins the scalar serial
///     refresh exactly as it pins the scalar sweep.
///
///  8. Legitimacy tracker (`run` only, while the first legitimate
///     configuration is pending). When RunOptions::local_legitimacy is
///     set, a per-run LegitimacyTracker (runtime/legitimacy.hpp) counts
///     local violations: processes failing ok_at (or, for a cover form,
///     edges with both ends uncovered). Invariant after every step: the
///     count equals that number in the current configuration. Every process that fired is in the step's
///     selection, and ok_at reads nothing beyond its radius r, so
///     re-checking the radius-r ball around the selection (each process
///     once, by generation stamp) keeps the count exact; this covers
///     internal-variable writes such as matching's cur too, and the
///     parallel and bulk paths need nothing extra because the selection
///     is the same on every path. The count reaching zero (with
///     constants_ok) marks first legitimacy; that one moment is
///     re-confirmed by the full `legitimacy` function under SSS_ASSERT,
///     as certified silence re-confirms the quiescence cache. Fallback:
///     without a local form (an opaque caller-supplied predicate) run
///     evaluates `legitimacy` after every step, as the original engine
///     did. Both report the same step and round.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
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

/// How the engine runs the bulk-capable halves of a step: guard refresh
/// (invariant 5 in the file comment) and selection execution (invariant
/// 6). kAuto picks the bulk sweep when the protocol opts in and the dirty
/// set covers at least 3/4 of the network, and the bulk execute when the
/// selection covers at least half; the force modes exist for the
/// differential suites and the scalar-vs-bulk benches, and govern both
/// halves at once. Every mode computes the same computation bit for bit —
/// mode only changes cost, and may be flipped mid-trajectory.
enum class SweepMode { kAuto, kForceScalar, kForceBulk };

/// Manifest/CLI spelling of a SweepMode ("auto", "force_scalar",
/// "force_bulk"); throws PreconditionError on anything else.
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
  /// guard memos of that set are rebuilt on the next refresh, and round
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

  /// Probe-refresh strategy (see SweepMode). kForceBulk on a protocol
  /// without a bulk sweep, or with frozen exclusion on, falls back to the
  /// scalar path — the mode is a preference, the semantics never change.
  void set_sweep_mode(SweepMode mode) { sweep_mode_ = mode; }
  SweepMode sweep_mode() const { return sweep_mode_; }

  /// Intra-trial parallelism (invariant 7 in the file comment): evaluate
  /// guard refreshes and the selected set on `threads` pool workers with a
  /// deterministic merge. 1 (the default) runs fully serial with no pool.
  /// Any value produces the bit-identical computation — thread count only
  /// changes wall-clock — so callers may pick it from the hardware freely.
  void set_parallel_threads(int threads);
  int parallel_threads() const { return parallel_threads_; }

  /// Exact silence check of the current configuration.
  bool quiescent() const;

  /// Attach an extra read observer (e.g. StabilityTracker). Not owned.
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
  void refresh_enabled();
  /// One sweep_enabled pass committed into the probe memo, enabled set,
  /// and round covering — the bulk equivalent of draining the dirty queue
  /// through scalar probes.
  void bulk_refresh();
  /// Partitioned counterparts of the two refresh paths (invariant 7):
  /// every worker drains the dirty ids (scalar) or sweeps (bulk) its own
  /// 64-aligned range, deferring EnabledSet count and covered_count_
  /// deltas to the serial merge after the barrier.
  void parallel_scalar_refresh();
  void parallel_bulk_refresh();
  /// Phase 1 + 2 of step() over the pool: evaluate the selection in
  /// contiguous index slices (scalar per-process, or the bulk execute
  /// kernel per slice when use_bulk_execute holds), barrier, commit rows
  /// in parallel, barrier, then merge dirty marks and read metrics
  /// serially in ascending selection order. Only called under the
  /// invariant-7 gates.
  void parallel_phases(std::size_t selected, StepInfo& info);
  /// Invariant-6 dispatch: does this step's execution run the protocol's
  /// bulk kernel? A pure cost gate — both paths are bit-identical.
  bool use_bulk_execute(std::size_t selected) const;
  /// Serial bulk execution of the whole selection (invariant 6): mirror
  /// the memo into the action bitmap, run execute_selected, commit the
  /// staged rows.
  void bulk_phases(std::size_t selected, StepInfo& info);
  /// Mirrors probe_action_ into bulk_actions_ (the kernel's input) and
  /// staged_[i].action (what phase 2 and the trace read) for selection
  /// indices [begin, end). The memo is authoritative — the bitmap may be
  /// stale after scalar refreshes.
  void stage_bulk_actions(std::size_t begin, std::size_t end);
  /// Phase 2 of the bulk path for selection index i: comm-changed by
  /// comparing the staged comm prefix against the live row (equivalent to
  /// the pending-write flag, since unwritten slots keep their snapshot
  /// values), then whole-row copy. Returns whether a communication
  /// variable changed value.
  bool commit_staged_row(std::size_t i);
  /// Runs `action` for p through the scalar execute against a scratch rng
  /// with the empty random script installed, staging writes into `writes`
  /// (cleared first) and logging action reads through `logger`. The one
  /// home of the certified-execution setup and its "no randomness in
  /// certified paths" assert: a protocol that declares is_probabilistic()
  /// == false and draws anyway dies here. For probabilistic protocols
  /// (reachable via the frozen classifier only) a draw attempt is an
  /// answer, not an error — the false return says the action cannot be
  /// certified from one sample.
  bool execute_certified(ProcessId p, int action, ReadLogger* logger,
                         std::vector<PendingWrite>& writes,
                         bool& comm_write_attempted);
  /// Worker w's process range [begin, end): contiguous, 64-aligned, so
  /// partitioned writers never share an EnabledSet word.
  std::pair<ProcessId, ProcessId> worker_range(int worker) const;
  /// Would firing `action` (p's memoized first enabled action) provably
  /// leave the configuration unchanged? See set_exclude_frozen.
  bool verified_self_loop(ProcessId p, int action);
  void note_comm_changed(ProcessId p);
  void cover(ProcessId p);
  void reset_round();
  /// Incremental equivalent of is_comm_quiescent on the current
  /// configuration: refreshes stale solo_active_ entries (via the shared
  /// solo_would_write_comm procedure), then answers from
  /// solo_active_count_.
  bool comm_quiescent_cached();

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

  // Bulk sweep (invariant 5) and bulk execute (invariant 6). The
  // `*_supported_` flags cache the protocol's opt-ins; `bulk_actions_` is
  // the sweep's reusable output arena, doubling as the execute kernel's
  // action input (stage_bulk_actions re-syncs it from the memo);
  // `bulk_staged_rows_` holds one full configuration row per selection
  // index for the kernel's staged writes.
  bool bulk_supported_ = false;
  bool bulk_exec_supported_ = false;
  SweepMode sweep_mode_ = SweepMode::kAuto;
  EnabledBitmap bulk_actions_;
  std::vector<Value> bulk_staged_rows_;

  // Frozen-process exclusion (see set_exclude_frozen). `active_` is
  // enabled minus frozen, maintained alongside `enabled_` by the same
  // dirty-queue refresh; both vectors are only consulted while
  // `exclude_frozen_` is on, so the default path pays nothing.
  bool exclude_frozen_ = false;
  EnabledSet active_;
  std::vector<std::uint8_t> frozen_;
  std::vector<PendingWrite> frozen_scratch_;

  // Guard memo (invariant 4): per-process action chosen by the last probe
  // and the neighbor reads its guard evaluation logged, replayed verbatim
  // when the process is selected while clean.
  class ProbeRecorder final : public ReadLogger {
   public:
    std::vector<std::pair<ProcessId, int>>* target = nullptr;
    void on_read(ProcessId, ProcessId subject, int comm_var) override {
      target->push_back({subject, comm_var});
    }
  };
  std::vector<int> probe_action_;
  std::vector<std::vector<std::pair<ProcessId, int>>> probe_reads_;
  ProbeRecorder probe_recorder_;

  // Round accounting (invariant 2).
  std::vector<std::uint8_t> covered_;
  int covered_count_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t steps_at_round_start_ = 0;

  // Solo-quiescence cache (invariant 3).
  std::vector<std::uint8_t> solo_active_;
  std::vector<std::uint8_t> solo_dirty_;
  std::vector<ProcessId> solo_dirty_queue_;
  int solo_active_count_ = 0;

  // Lifetime counters.
  std::uint64_t steps_ = 0;
  std::uint64_t last_comm_change_step_ = 0;
  std::uint64_t rounds_at_last_comm_change_ = 0;

  // Scratch arenas reused across steps; sized up once, never shrunk, so
  // the steady-state step performs no heap allocation.
  std::vector<ProcessId> selection_;
  std::vector<ProcessStep> staged_;
  std::vector<Value> solo_saved_row_;
  ProcessStep solo_scratch_;

  // Intra-trial parallelism (invariant 7). worker_states_ holds one slot
  // per pool worker, reused across steps; external_loggers_ counts
  // attach_read_logger clients, whose presence forces the serial path.
  struct WorkerState {
    explicit WorkerState(const StepReadCounter& counter) : tally(counter) {}
    WorkerReadTally tally;
    /// (process, comm changed) per committed row, in slice order.
    std::vector<std::pair<ProcessId, bool>> commits;
    int enabled_delta = 0;
    int covered_delta = 0;
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
