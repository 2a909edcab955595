#pragma once
/// \file protocol.hpp
/// A protocol is a finite list of prioritized guarded actions per process
/// (Section 2). Guard evaluation is separated from action execution so the
/// engine can (a) probe enabledness without disturbing the model's read
/// accounting, and (b) execute the guard+action pair atomically against the
/// pre-step snapshot.

#include <memory>
#include <span>
#include <string>

#include "runtime/bulk.hpp"
#include "runtime/context.hpp"
#include "runtime/spec.hpp"

namespace sss {

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

  /// Bulk guard evaluation (see runtime/bulk.hpp): true when the protocol
  /// provides `sweep_enabled_range`, letting the engine refresh every
  /// guard in one pass over the CSR slabs instead of n virtual probes.
  /// RuleProtocol (runtime/rule.hpp) supplies it from the protocol's one
  /// guard; protocols that stay on the scalar path keep the default.
  virtual bool has_bulk_sweep() const { return false; }

  /// Evaluates every process's guards in one pass: writes the first
  /// enabled action per process into `out` (pre-reset to all-disabled by
  /// the caller) and logs each guard's neighbor reads through `ctx`, in
  /// the exact order the scalar `first_enabled` would log them. Must be
  /// behaviourally identical to n scalar probes — the engine replays both
  /// outputs, and the lockstep suites compare against `ReferenceEngine`.
  /// Only called when `has_bulk_sweep()` is true. Implemented as the
  /// whole-network case of `sweep_enabled_range`.
  void sweep_enabled(BulkGuardContext& ctx, EnabledBitmap& out) const;

  /// The sweep restricted to processes [begin, end): touches only `out`
  /// entries and `ctx` logs of that range (reading any process's
  /// configuration is fine — guards read neighbors). This is the partition
  /// primitive of the engine's intra-trial parallel refresh: disjoint
  /// ranges sweep concurrently, each reproducing exactly the actions and
  /// read logs the whole-network sweep would produce for its slice.
  /// RuleProtocol implements it by running the protocol's guard on a
  /// slab-row context per process. Only called when `has_bulk_sweep()` is
  /// true; the default asserts.
  virtual void sweep_enabled_range(BulkGuardContext& ctx, EnabledBitmap& out,
                                   ProcessId begin, ProcessId end) const;

  /// Bulk action execution (see runtime/bulk.hpp): true when the protocol
  /// provides `execute_selected`, letting the engine run phase-1 memo
  /// replay plus action execution for a whole selection in one slab pass
  /// instead of one ActionContext + virtual `execute` per selected
  /// process. Independent of has_bulk_sweep; RuleProtocol supplies both.
  virtual bool has_bulk_execute() const { return false; }

  /// Executes selection indices [begin, end) of `selection` (strictly
  /// ascending process ids): for each index i with process p, replay p's
  /// guard memo through `ctx`, and — when `enabled.action(p)` is not
  /// kDisabled — stage p's post-state row via `ctx.stage(i, p)`, applying
  /// exactly the writes and logging exactly the neighbor reads (order
  /// included) the scalar `execute` would produce for that action against
  /// the same snapshot. [begin, end) is the partition primitive of the
  /// engine's parallel composition; the serial path passes the whole
  /// selection. RuleProtocol implements it by running the protocol's act
  /// on a slab-row action context per fired process. Only called when
  /// `has_bulk_execute()` is true; the default asserts.
  virtual void execute_selected(BulkExecContext& ctx,
                                const EnabledBitmap& enabled,
                                std::span<const ProcessId> selection,
                                std::size_t begin, std::size_t end) const;

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
