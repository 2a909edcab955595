#pragma once
/// \file context.hpp
/// The interface through which protocol code sees the network.
///
/// Model fidelity lives here. A `GuardContext` gives a process read access
/// to (a) its own variables and (b) the *communication* variables of its
/// neighbors, addressed only by 1-based local channel index — global ids
/// never leak into protocol code, which is what "anonymous" means in the
/// paper. Every neighbor read is reported to a `ReadLogger`, which is how
/// k-efficiency, communication complexity and ♦-(x,k)-stability are
/// measured (Section 3).
///
/// An `ActionContext` adds deferred writes: statements write into a pending
/// buffer that the engine commits after every process selected in the step
/// has executed, so that all processes of one step read the same pre-step
/// configuration — the paper's atomic-step semantics for distributed
/// daemons. Reads keep returning pre-step values even after a write, which
/// matches the paper's actions (no action reads a variable it just wrote).

#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"

namespace sss {

/// Observer of neighbor communication-variable reads.
class ReadLogger {
 public:
  virtual ~ReadLogger() = default;
  /// `reader` read communication variable `comm_var` of its neighbor
  /// `subject` (global ids; loggers are simulator-side).
  virtual void on_read(ProcessId reader, ProcessId subject, int comm_var) = 0;
};

/// A deferred write produced by an action.
struct PendingWrite {
  bool is_comm = false;
  int var = 0;
  Value value = 0;
};

/// Read-only view for guard evaluation of one process over the pre-step
/// configuration snapshot.
class GuardContext {
 public:
  GuardContext(const Graph& g, const Configuration& pre, ProcessId self,
               ReadLogger* logger);

  /// delta.p of the executing process.
  int degree() const { return graph_.degree(self_); }

  Value self_comm(int var) const { return pre_.comm(self_, var); }
  Value self_internal(int var) const { return pre_.internal_var(self_, var); }

  /// Reads communication variable `var` of the neighbor on channel
  /// `channel` (1-based). Logged.
  Value nbr_comm(NbrIndex channel, int var) const;

  /// The channel number under which the neighbor on `channel` sees *this*
  /// process. This is how "PR.(cur.p) = p" (Fig 10) is evaluated: the
  /// neighbor's pointer is compared against our index in its numbering.
  NbrIndex self_index_at(NbrIndex channel) const;

  /// Neighbor-view overlay: when installed, `nbr_comm(ch, var)` returns
  /// `overlay[(ch - 1) * stride + var]` instead of the neighbor's real
  /// communication row, and the read is NOT logged — an overlay read
  /// touches local memory only. This is how the generic efficiency
  /// transformer evaluates a wrapped protocol it can reach only through
  /// the virtual `first_enabled` (GenericEfficiency<Protocol>) against its
  /// *mirrored* neighbor states (its own internal variables) at zero
  /// communication cost; over a rule protocol, MirrorContext
  /// (runtime/rule.hpp) does the same without a GuardContext. `overlay`
  /// must hold degree() * stride values laid out channel-major and
  /// outlive the context.
  void set_nbr_overlay(const Value* overlay, int stride) {
    nbr_overlay_ = overlay;
    overlay_stride_ = stride;
  }

  /// The simulator-side handles a wrapper protocol needs to build a
  /// nested context over the same pre-step snapshot.
  const Graph& graph() const { return graph_; }
  const Configuration& config() const { return pre_; }
  ProcessId self() const { return self_; }

 protected:
  const Graph& graph_;
  const Configuration& pre_;
  ProcessId self_;
  ReadLogger* logger_;
  const Value* nbr_overlay_ = nullptr;
  int overlay_stride_ = 0;
};

/// Guard view plus deferred writes and randomness, for action execution.
class ActionContext final : public GuardContext {
 public:
  ActionContext(const Graph& g, const Configuration& pre, ProcessId self,
                Rng& rng, ReadLogger* logger);

  /// Arena variant: pending writes land in `*writes_out` (cleared first)
  /// instead of an owned vector, so a caller that reuses the buffer across
  /// evaluations performs no per-evaluation allocation. `writes_out` must
  /// outlive the context.
  ActionContext(const Graph& g, const Configuration& pre, ProcessId self,
                Rng& rng, ReadLogger* logger,
                std::vector<PendingWrite>* writes_out);

  // writes_out_ may point into the context itself (own_writes_), so a
  // copy would alias or dangle; contexts are single-use views anyway.
  ActionContext(const ActionContext&) = delete;
  ActionContext& operator=(const ActionContext&) = delete;

  void set_comm(int var, Value v);
  void set_internal(int var, Value v);

  /// Uniform draw from {lo..hi} — the random color choice of Fig 7.
  Value random_range(Value lo, Value hi);

  const std::vector<PendingWrite>& writes() const { return *writes_out_; }

  /// True if any communication variable was written (regardless of value).
  /// Silence detection keys off write *attempts*: in all protocols in this
  /// library a guard only launches a communication write when it changes
  /// the value, and attempts are robust against a randomized action
  /// happening to redraw the old value.
  bool comm_write_attempted() const { return comm_write_attempted_; }

  /// Enumeration support (model checker): when a script is installed,
  /// random_range returns scripted values instead of fresh draws, and
  /// every requested range is recorded. Running an action once with an
  /// empty script discovers its draw ranges; re-running it with every
  /// combination of scripted values enumerates all outcomes. Draw ranges
  /// are only recorded while a script is installed, which keeps the
  /// simulator hot path free of bookkeeping allocations.
  void set_random_script(const std::vector<Value>* script);
  const std::vector<VarDomain>& random_draws() const { return draws_; }

 private:
  Rng& rng_;
  std::vector<PendingWrite> own_writes_;
  std::vector<PendingWrite>* writes_out_;
  bool comm_write_attempted_ = false;
  const std::vector<Value>* script_ = nullptr;
  std::size_t script_pos_ = 0;
  std::vector<VarDomain> draws_;
};

}  // namespace sss
