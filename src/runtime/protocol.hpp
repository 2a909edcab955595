#pragma once
/// \file protocol.hpp
/// A protocol is a finite list of prioritized guarded actions per process
/// (Section 2). Guard evaluation is separated from action execution so the
/// engine can (a) probe enabledness without disturbing the model's read
/// accounting, and (b) execute the guard+action pair atomically against the
/// pre-step snapshot.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "runtime/bulk.hpp"
#include "runtime/context.hpp"
#include "runtime/spec.hpp"

namespace sss {

/// Seed of the scratch stream a solo run's actions draw from
/// (Protocol::solo_writes_comm); its draws never leave the run.
inline constexpr std::uint64_t kSoloScratchSeed = 0x5157;

class Protocol {
 public:
  /// Returned by first_enabled when no guard holds.
  static constexpr int kDisabled = -1;

  virtual ~Protocol() = default;

  virtual const std::string& name() const = 0;
  virtual const ProtocolSpec& spec() const = 0;
  virtual int num_actions() const = 0;

  /// Index of the highest-priority enabled action (0 = highest, matching
  /// the order of appearance in the paper's figures), or kDisabled.
  virtual int first_enabled(GuardContext& ctx) const = 0;

  /// Executes action `action`; must be the value first_enabled returned for
  /// the same pre-state.
  virtual void execute(int action, ActionContext& ctx) const = 0;

  virtual bool is_probabilistic() const { return false; }

  /// Extra solo activations beyond degree(p) the silence check
  /// (runtime/quiescence.hpp) must run before concluding that a process
  /// frozen against its neighborhood never attempts a communication
  /// write. 2 covers the protocols whose internal state is one rotating
  /// pointer (periodic within degree(p) activations, plus one
  /// confirmation). A wrapper protocol whose internal state needs an
  /// extra activation to settle (e.g. the generic efficiency
  /// transformer's one full mirror refresh) must return its wrapped
  /// protocol's margin plus its own overhead.
  virtual int solo_quiescence_margin() const { return 2; }

  /// Guard refresh of the listed processes (see runtime/bulk.hpp): for
  /// each id in `ids` (distinct, any order), writes its first enabled
  /// action (kDisabled included) into `out`. Entries of unlisted ids are
  /// left alone, so disjoint id lists may run concurrently. Refresh reads
  /// are probe reads and are charged to nobody. This is the engine's one
  /// refresh hook: it passes the dirty ids, either all of them or each
  /// pool worker's share.
  ///
  /// The default runs the scalar `first_enabled` probe per id and is the
  /// reference every override must equal; SweepMode::kForceScalar calls
  /// it directly. RuleProtocol (runtime/rule.hpp) overrides it with the
  /// protocol's one guard on slab-row contexts, so the refresh pays no
  /// virtual call or context construction per process.
  virtual void sweep_enabled_ids(BulkGuardContext& ctx, EnabledBitmap& out,
                                 std::span<const ProcessId> ids) const;

  /// True when the protocol's hooks are slab kernels (RuleProtocol
  /// supplies `sweep_enabled_ids`, `execute_selected` and
  /// `solo_writes_comm`) rather than the scalar defaults. Informational
  /// (capability listings, benches, tests); the engine calls the hooks
  /// either way.
  virtual bool has_bulk_sweep() const { return false; }

  /// Phase 1 of a step (see runtime/bulk.hpp) for selection indices
  /// [begin, end) of `selection` (strictly ascending process ids): for
  /// each index i with process p, re-run p's guard against `ctx.config()`,
  /// logging its neighbor reads through `ctx` as `first_enabled` would
  /// issue them, and check the result with `enabled.expect_rerun(p,
  /// action)`; when the action is not kDisabled, stage p's post-state row
  /// via `ctx.stage(i, p)`, applying exactly the writes and logging
  /// exactly the neighbor reads (order included) the scalar `execute`
  /// would produce for that action against the same snapshot. [begin,
  /// end) is the partition primitive of the engine's parallel
  /// composition; the serial path passes the whole selection. This is the
  /// engine's one execute hook.
  ///
  /// The default runs the scalar `first_enabled` and `execute` per
  /// process on a GuardContext and an ActionContext that log through
  /// `ctx`, and applies the pending writes onto the staged row. Without a
  /// model rng (`ctx.rng()` null) the action runs through
  /// `execute_certified`, so a draw fails loudly instead of leaving the
  /// model stream. The default is the reference every override must equal;
  /// SweepMode::kForceScalar calls it directly. RuleProtocol
  /// (runtime/rule.hpp) overrides it with the protocol's one guard and act
  /// on slab-row contexts.
  virtual void execute_selected(BulkExecContext& ctx,
                                const EnabledBitmap& enabled,
                                std::span<const ProcessId> selection,
                                std::size_t begin, std::size_t end) const;

  /// Silence certification's per-process question (Definition 3, see
  /// runtime/quiescence.hpp): would p, activated alone against the frozen
  /// communication state of `config`, attempt a communication write within
  /// `budget` activations? A disabled activation ends the run (p is stable
  /// forever); a `set_comm` call is an attempt whatever value it writes.
  /// Actions draw from one `Rng(kSoloScratchSeed)` per call, in activation
  /// order. `config` may be mutated only transiently and is left exactly
  /// as it came in. Its reads are probe reads, charged to nobody. This is
  /// the engine's one solo hook: its cache probes and its full
  /// `Engine::quiescent` check both call it.
  ///
  /// The default is the free `solo_would_write_comm` loop (a GuardContext,
  /// an ActionContext and two virtual calls per activation, writes
  /// committed into p's row and the row restored) and is the reference
  /// every override must equal; SweepMode::kForceScalar calls it directly.
  /// RuleProtocol (runtime/rule.hpp) overrides it with the protocol's one
  /// guard and act on `SlabSoloContext`, which keeps p's evolving state in
  /// row buffers and never writes `config`.
  virtual bool solo_writes_comm(const Graph& g, Configuration& config,
                                ProcessId p, int budget) const;

  /// Writes the protocol's communication constants (e.g. colors C.p) into
  /// `config`. Called once after construction and again after any state
  /// randomization, so constants survive "arbitrary" initialization.
  virtual void install_constants(const Graph& g, Configuration& config) const;
};

/// Result of evaluating-and-executing one process against a snapshot.
struct ProcessStep {
  int action = Protocol::kDisabled;
  bool comm_write_attempted = false;
  std::vector<PendingWrite> writes;
};

/// Runs guard evaluation and (if enabled) action execution for process `p`
/// against the snapshot `pre`, without committing anything.
ProcessStep evaluate_process(const Graph& g, const Protocol& protocol,
                             const Configuration& pre, ProcessId p, Rng& rng,
                             ReadLogger* logger);

/// Arena variant of evaluate_process: results land in `out`, whose `writes`
/// buffer is cleared and refilled in place. A caller that reuses the same
/// ProcessStep across evaluations pays no per-evaluation allocation once
/// the buffer capacity has grown to the protocol's write count — this is
/// what keeps Engine::step() heap-free in steady state.
void evaluate_process_into(const Graph& g, const Protocol& protocol,
                           const Configuration& pre, ProcessId p, Rng& rng,
                           ReadLogger* logger, ProcessStep& out);

/// Runs `action` for p through the scalar `execute` against a scratch rng
/// with the empty random script installed, staging writes into `writes`
/// (cleared first) and logging action reads through `logger`. This is the
/// one home of the certified-execution setup and of its "no randomness in
/// certified paths" assert: a protocol that declares is_probabilistic()
/// == false and draws anyway dies here instead of silently diverging from
/// the model rng stream. For a probabilistic protocol a draw attempt is an
/// answer, not an error: the false return says the action cannot be
/// certified from one sample (the scratch value it drew must not escape).
bool execute_certified(const Graph& g, const Protocol& protocol,
                       const Configuration& pre, ProcessId p, int action,
                       ReadLogger* logger, std::vector<PendingWrite>& writes);

/// Applies a process's pending writes to `config`. Returns true if any
/// communication variable actually changed value.
bool commit_writes(Configuration& config, ProcessId p,
                   const std::vector<PendingWrite>& writes);

/// Convenience: evaluate + commit for a single process ("solo step", the
/// central-daemon semantics). Returns the ProcessStep that was applied.
ProcessStep apply_solo_step(const Graph& g, const Protocol& protocol,
                            Configuration& config, ProcessId p, Rng& rng,
                            ReadLogger* logger = nullptr);

}  // namespace sss
