#pragma once
/// \file bulk.hpp
/// Bulk guard evaluation: the one-pass alternative to n per-process probes.
///
/// Under co-firing daemons (synchronous, distributed) almost every probe
/// cache entry is stale after every step, so the engine's refresh degrades
/// to n virtual `first_enabled` calls, each paying a GuardContext
/// construction, range-checked neighbor lookups, and a virtual read-logger
/// call per neighbor read. The bulk path instead evaluates *all* guards in
/// one `sweep_enabled` pass against the CSR slabs (`Graph::csr_*`) and the
/// flat configuration rows (`Configuration::row`) — no virtual dispatch
/// and no per-read bounds checks inside the loop.
///
/// The sweep owes the engine exactly what n scalar probes would have
/// produced, because the engine *replays* this data later:
///
///  * the first-enabled action per process (`EnabledBitmap`), which the
///    engine commits into its probe memo and enabled set; and
///  * the guard's neighbor-read log per process (`BulkGuardContext::log`),
///    in the order the scalar guard would have issued the reads — this is
///    the sequence `Engine::step` replays into the model's read counters
///    when the process is selected, so any deviation shows up as a read-
///    metric divergence from `ReferenceEngine`.
///
/// The contexts here are the engine-facing half of that contract. The
/// protocol-facing half is runtime/rule.hpp: `RuleProtocol` runs each
/// protocol's single guard/act on slab-row contexts that log through
/// `BulkGuardContext` / `BulkExecContext`, so a sweep reproduces the lazy,
/// short-circuited read structure of the scalar guard by construction.
/// The lockstep suites (tests/test_bulk_sweep.cpp,
/// tests/test_bulk_execute.cpp, the property harness with
/// SweepMode::kForceBulk) hold those contexts and the engine paths to the
/// contract.
///
/// Bulk *execution* (`BulkExecContext`, `Protocol::execute_selected`) is
/// the same idea applied to the other half of a deployed synchronous step:
/// phase-1 memo replay plus action execution for a whole selection in one
/// pass over the slabs, instead of one ActionContext + virtual `execute`
/// per selected process. The kernel stages each fired process's
/// post-state as a full configuration row; the engine commits the rows
/// under the exact dirty-queue/covering/solo-cache treatment of the
/// scalar commit loop, so trajectories and metrics stay bit-identical by
/// construction. The per-process read discipline is load-bearing: a
/// kernel must interleave reads per process (replay p's guard memo, then
/// log p's action reads, then move to the next process) because the
/// parallel path's WorkerReadTally dedups per contiguous reader run.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"
#include "runtime/context.hpp"
#include "support/require.hpp"

namespace sss {

/// Per-process outcome of one whole-network guard sweep: the index of the
/// first enabled action, or kDisabled. The name reflects what the engine
/// derives from it — membership of the enabled set — but the action index
/// itself is kept because the engine's guard memo replays it on selection.
class EnabledBitmap {
 public:
  /// Matches Protocol::kDisabled (static_assert'd in protocol.cpp).
  static constexpr std::int8_t kDisabled = -1;

  /// Sizes the bitmap to ids [0, universe) with every process disabled;
  /// a sweep only touches the enabled entries it finds. Reuses capacity.
  void reset(int universe) {
    actions_.assign(static_cast<std::size_t>(universe), kDisabled);
  }

  /// Range variant for partitioned sweeps: disables ids [begin, end) only,
  /// leaving the rest of the slab untouched. The engine's parallel bulk
  /// refresh has each worker reset exactly the range it is about to sweep,
  /// so the whole-slab fill of `reset` is not serialized. The bitmap must
  /// already be sized (reset(universe) once beforehand).
  void reset_range(ProcessId begin, ProcessId end) {
    std::fill(actions_.begin() + begin, actions_.begin() + end, kDisabled);
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

  /// Raw slab for sweep kernels that fill actions in a tight loop.
  std::int8_t* actions() { return actions_.data(); }
  const std::int8_t* actions() const { return actions_.data(); }

 private:
  std::vector<std::int8_t> actions_;
};

/// Read-only view a sweep evaluates against, plus the per-process read-log
/// sink. The logs alias the engine's guard memo (`Engine::probe_reads_`),
/// cleared by the engine before the sweep, so a sweep appends each
/// process's reads exactly once and in scalar-guard order.
class BulkGuardContext {
 public:
  /// One process's guard read log: (neighbor id, comm var) per read.
  using ReadLog = std::vector<std::pair<ProcessId, int>>;

  BulkGuardContext(const Graph& g, const Configuration& config,
                   std::vector<ReadLog>& logs)
      : graph_(g), config_(config), logs_(logs) {}

  const Graph& graph() const { return graph_; }
  const Configuration& config() const { return config_; }

  /// Records that p's guard read communication variable `comm_var` of its
  /// neighbor `subject` — the bulk counterpart of the probe recorder's
  /// ReadLogger::on_read.
  void log(ProcessId p, ProcessId subject, int comm_var) {
    logs_[static_cast<std::size_t>(p)].push_back({subject, comm_var});
  }

 private:
  const Graph& graph_;
  const Configuration& config_;
  std::vector<ReadLog>& logs_;
};

/// View a bulk-execute kernel runs against: the pre-step snapshot, the
/// guard memo to replay, a read sink, and the staging slab the kernel
/// writes post-state rows into. One context serves one selection slice
/// (the whole selection serially, or a worker's contiguous slice on the
/// parallel path — the read sink is the engine's step counter in the
/// first case and the worker's tally in the second).
///
/// The kernel contract, per selection index i with process p:
///  1. `replay_guard_reads(p)` — always, enabled or not: the scalar phase
///     1 replays the memo for every *selected* process, because its guard
///     really ran.
///  2. If the action is kDisabled, move on (nothing is staged).
///  3. Otherwise `stage(i, p)` and overwrite exactly the slots the scalar
///     action writes, logging every action-time neighbor read through
///     `log` in the scalar order. Values are read from the snapshot
///     (`config()`), never from staged rows — all selected processes see
///     gamma_i.
class BulkExecContext {
 public:
  using ReadLog = BulkGuardContext::ReadLog;

  /// `stride` values per staged row; `rng` is the model stream on the
  /// serial path for probabilistic protocols and nullptr everywhere else
  /// (see random_range).
  BulkExecContext(const Graph& g, const Configuration& config,
                  const std::vector<ReadLog>& guard_logs, ReadLogger& logger,
                  Value* staged_rows, std::size_t stride, Rng* rng)
      : graph_(g),
        config_(config),
        guard_logs_(guard_logs),
        logger_(logger),
        staged_rows_(staged_rows),
        stride_(stride),
        rng_(rng) {}

  const Graph& graph() const { return graph_; }
  const Configuration& config() const { return config_; }

  /// Phase 1's memo replay for one selected process: feeds the guard's
  /// recorded reads into the step's read accounting, exactly as the
  /// scalar path replays them through the logger mux.
  void replay_guard_reads(ProcessId p) {
    for (const auto& [subject, var] : guard_logs_[static_cast<std::size_t>(p)]) {
      logger_.on_read(p, subject, var);
    }
  }

  /// Records an action-phase neighbor read — the bulk counterpart of
  /// ActionContext::nbr_comm's logging half (the kernel fetches the value
  /// itself from the slabs).
  void log(ProcessId p, ProcessId subject, int comm_var) {
    logger_.on_read(p, subject, comm_var);
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
  /// bit. Everywhere else rng is null and the assert is the bulk
  /// counterpart of the engine's "no randomness in certified paths"
  /// contract.
  Value random_range(Value lo, Value hi) {
    SSS_ASSERT(rng_ != nullptr,
               "bulk-execute kernels may draw randomness only on the serial "
               "path of a protocol declaring is_probabilistic()");
    return static_cast<Value>(rng_->range(lo, hi));
  }

 private:
  const Graph& graph_;
  const Configuration& config_;
  const std::vector<ReadLog>& guard_logs_;
  ReadLogger& logger_;
  Value* staged_rows_;
  std::size_t stride_;
  Rng* rng_;
};

}  // namespace sss
