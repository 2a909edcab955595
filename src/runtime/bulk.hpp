#pragma once
/// \file bulk.hpp
/// Bulk guard evaluation: the engine's guard refresh without per-process
/// virtual probes.
///
/// Every step dirties some guards — the fired processes and the
/// neighbours of those whose communication changed: a handful under a
/// central daemon, nearly all n under co-firing ones. A scalar probe of
/// one dirty process pays a GuardContext construction, a virtual
/// `first_enabled` and range-checked neighbour lookups.
/// `Protocol::sweep_enabled_ids` instead evaluates a whole list of dirty
/// guards in one call against the CSR slabs (`Graph::csr_*`) and the flat
/// configuration rows (`Configuration::row`), with no virtual dispatch
/// and no per-read bounds checks inside the loop. The engine hands it
/// exactly the dirty ids, whatever their number, so the kernel replaces
/// the scalar probe under every daemon rather than only under mostly-dirty
/// refreshes.
///
/// The kernel owes the engine the first-enabled action per listed process
/// (`EnabledBitmap`), exactly what a scalar probe returns. A refresh is a
/// simulator probe and charges no reads (`BulkGuardContext::log` discards
/// them): phase 1 of the step that selects a process re-runs its guard on
/// the same snapshot and charges them there (engine invariant 4).
///
/// `RuleProtocol` (runtime/rule.hpp) runs each protocol's single
/// guard/act on slab-row contexts over these two contexts, so a refresh
/// and a phase-1 re-run reproduce the lazy, short-circuited reads of the
/// scalar guard by construction. The scalar default of
/// `sweep_enabled_ids` is the reference the kernels are held to
/// (SweepMode::kForceScalar runs it), by tests/test_bulk_sweep.cpp,
/// tests/test_bulk_execute.cpp and the property harness.
///
/// Bulk *execution* (`BulkExecContext`, `Protocol::execute_selected`) is
/// the same idea applied to phase 1, and the engine's one execute hook:
/// guard re-runs plus actions for a selection slice in one call. The hook
/// stages each fired process's post-state as a full configuration row,
/// which the engine commits under the scalar commit loop's exact
/// dirty-queue/covering/solo-cache treatment. RuleProtocol runs it as one
/// pass over the slabs; the scalar default pays a GuardContext, an
/// ActionContext and two virtual calls per selected process, and applies
/// the pending writes onto the staged row. A kernel must keep each
/// process's reads together (its guard reads, then its action reads,
/// then the next process): the serial path's StepReadCounter and the
/// parallel path's WorkerReadTally dedup per contiguous reader run
/// (runtime/metrics.hpp), and the kernel charges them directly through a
/// `ReadSink`.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"
#include "runtime/context.hpp"
#include "runtime/metrics.hpp"
#include "support/require.hpp"

namespace sss {

/// Per-process outcome of a guard refresh: the index of the first enabled
/// action, or kDisabled. The name reflects what the engine derives from
/// it — membership of the enabled set — but the action index itself is
/// kept: phase 1 checks its guard re-run against it, and the step's commit
/// and trace read the fired actions from it.
class EnabledBitmap {
 public:
  /// Matches Protocol::kDisabled (static_assert'd in protocol.cpp).
  static constexpr std::int8_t kDisabled = -1;

  /// Sizes the bitmap to ids [0, universe) with every process disabled.
  /// A refresh writes every entry it lists, so the engine sizes it once.
  /// Reuses capacity.
  void reset(int universe) {
    actions_.assign(static_cast<std::size_t>(universe), kDisabled);
  }

  int universe() const { return static_cast<int>(actions_.size()); }

  void set_action(ProcessId p, int action) {
    actions_[static_cast<std::size_t>(p)] = static_cast<std::int8_t>(action);
  }
  int action(ProcessId p) const {
    return actions_[static_cast<std::size_t>(p)];
  }
  bool enabled(ProcessId p) const {
    return actions_[static_cast<std::size_t>(p)] != kDisabled;
  }

  /// Phase 1's check of a guard re-run (engine invariant 4): `action`,
  /// what p's guard returned on the step's snapshot, must be the action
  /// the refresh recorded for that same configuration. A mismatch means a
  /// dirty-tracking bug left p's entry stale.
  void expect_rerun(ProcessId p, int action) const {
    SSS_ASSERT(action == actions_[static_cast<std::size_t>(p)],
               "a selected guard re-run disagrees with its refreshed "
               "action: the enabledness entry was stale");
  }

  /// Raw slab for refresh kernels that fill actions in a tight loop.
  std::int8_t* actions() { return actions_.data(); }
  const std::int8_t* actions() const { return actions_.data(); }

 private:
  std::vector<std::int8_t> actions_;
};

/// Read-only view a refresh evaluates against. Refresh reads are probe
/// reads, charged to nobody, so `log` discards them; the slab guard
/// context inlines the empty call away.
class BulkGuardContext {
 public:
  BulkGuardContext(const Graph& g, const Configuration& config)
      : graph_(g), config_(config) {}

  const Graph& graph() const { return graph_; }
  const Configuration& config() const { return config_; }

  void log(ProcessId, ProcessId, int) {}

 private:
  const Graph& graph_;
  const Configuration& config_;
};

/// View the execute hook runs against: the pre-step snapshot, a read
/// sink, and the staging slab the hook writes post-state rows into. One
/// context serves one selection slice (the whole selection serially, or a
/// worker's contiguous slice on the parallel path — the sink is the
/// engine's step counter, or its logger mux while an external logger is
/// attached, in the first case and the worker's tally in the second).
///
/// The kernel contract, per selection index i with process p:
///  1. Re-run p's guard on `config()`, logging its neighbour reads through
///     `log` in the scalar order — always, enabled or not: a selected
///     process's guard really runs — and check the result against the
///     refreshed action (`EnabledBitmap::expect_rerun`).
///  2. If the action is kDisabled, move on (nothing is staged).
///  3. Otherwise `stage(i, p)` and overwrite exactly the slots the scalar
///     action writes, logging every action-time neighbor read through
///     `log` in the scalar order. Values are read from the snapshot
///     (`config()`), never from staged rows — all selected processes see
///     gamma_i.
class BulkExecContext {
 public:
  /// `stride` values per staged row; `rng` is the model stream on the
  /// serial path for probabilistic protocols and nullptr everywhere else
  /// (see random_range).
  BulkExecContext(const Graph& g, const Configuration& config, ReadSink sink,
                  Value* staged_rows, std::size_t stride, Rng* rng)
      : graph_(g),
        config_(config),
        sink_(sink),
        staged_rows_(staged_rows),
        stride_(stride),
        rng_(rng) {}

  const Graph& graph() const { return graph_; }
  const Configuration& config() const { return config_; }
  /// The model stream, or nullptr (see random_range).
  Rng* rng() const { return rng_; }

  /// Records a neighbor read of p's guard or action — the bulk
  /// counterpart of GuardContext::nbr_comm's logging half (the kernel
  /// fetches the value itself from the slabs).
  void log(ProcessId p, ProcessId subject, int comm_var) {
    sink_.charge(p, subject, comm_var);
  }

  /// Copies p's snapshot row into the staged slot of selection index i
  /// and returns it; the kernel overwrites the slots its action writes.
  /// Unwritten slots keeping their snapshot values is what makes the
  /// engine's whole-row commit equivalent to the scalar pending-write
  /// commit.
  Value* stage(std::size_t i, ProcessId p) {
    Value* out = staged_rows_ + i * stride_;
    const Value* src = config_.row(p);
    std::copy(src, src + stride_, out);
    return out;
  }

  /// Uniform draw from {lo..hi}, identical to ActionContext::random_range
  /// without a script. Only legal on the serial path of a protocol that
  /// declares is_probabilistic() — there the engine wires the model rng
  /// and ascending selection order reproduces the scalar stream bit for
  /// bit. Everywhere else rng is null and the assert is the kernel
  /// counterpart of `execute_certified`'s "no randomness in certified
  /// paths" assert, which the scalar default runs instead.
  Value random_range(Value lo, Value hi) {
    SSS_ASSERT(rng_ != nullptr,
               "bulk-execute kernels may draw randomness only on the serial "
               "path of a protocol declaring is_probabilistic()");
    return static_cast<Value>(rng_->range(lo, hi));
  }

 private:
  const Graph& graph_;
  const Configuration& config_;
  ReadSink sink_;
  Value* staged_rows_;
  std::size_t stride_;
  Rng* rng_;
};

}  // namespace sss
