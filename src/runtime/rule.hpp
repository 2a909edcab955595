#pragma once
/// \file rule.hpp
/// One copy of each protocol rule, driving every engine path.
///
/// A protocol here is a list of prioritized guarded actions (Section 2),
/// written once as two member templates of the protocol class:
///
///   template <class Ctx> int guard(Ctx& ctx) const;
///   template <class Ctx> void act(int action, Ctx& ctx) const;
///
/// against a small context concept. Guards may use `degree()`,
/// `self_comm(var)`, `self_internal(var)`, `nbr_comm(channel, var)` (a
/// logged neighbor read) and `self_index_at(channel)`; actions may also
/// use `set_comm(var, v)`, `set_internal(var, v)` and `random_range(lo,
/// hi)`. `RuleProtocol<P>` instantiates that rule six times:
///
///  * on the scalar `GuardContext` / `ActionContext` for
///    `first_enabled` / `execute` (what `ReferenceEngine`, the model
///    checker, the scalar silence oracle `is_comm_quiescent` and a
///    per-process GenericEfficiency<Protocol> wrapper see);
///  * on `SlabGuardContext` for `sweep_enabled_ids`, the engine's guard
///    refresh of the dirty ids, reading the CSR slabs and flat
///    configuration rows directly and logging nothing (`BulkGuardContext`
///    discards probe reads);
///  * on `SlabReadContext<BulkExecContext>` and `SlabActionContext` for
///    `execute_selected`: the guard re-run of each selected process and
///    its action, reading the snapshot, logging through the step's read
///    sink, the action writing into the row `BulkExecContext::stage`
///    hands out and drawing through the context's rng;
///  * on `SlabSoloContext` for `solo_writes_comm`, silence
///    certification's solo run of one process (the engine's cache probes
///    and its full `Engine::quiescent` check): guard and act alternate on
///    two row buffers holding the process's state before and after each
///    activation, against the frozen configuration, which is only read.
///
/// Because the same rule code runs on every path, a slab guard issues the
/// scalar guard's reads in the scalar order (short-circuits included) and
/// a slab action writes exactly the scalar action's slots: read-stream,
/// trajectory and silence-answer agreement between the paths hold by
/// construction, and the lockstep suites test the slab contexts and the
/// engine paths rather than per-protocol transcriptions.
///
/// A composition reuses the rule rather than copying it. GENERIC-EFFICIENCY
/// of P (transformer/generic_efficiency.hpp) is itself a rule protocol,
/// `RuleProtocol<GenericEfficiency<P>>`: its guard runs P's guard on
/// `MirrorContext<Ctx>` (neighbour reads answered from the process's own
/// mirror bank, unlogged) and again on the real context to confirm, and
/// its act runs P's act, both through `RuleProtocol<P>::rule_guard` /
/// `rule_act`. So P's rule is inlined into the composition's refresh,
/// execute and solo kernels as well, with no virtual call per process.
///
/// Build layout: a protocol declares `guard`/`act` with SSS_RULE, defines
/// them in its .cpp, and there explicitly instantiates both rule protocols
/// its rule drives:
///
///   template class RuleProtocol<P>;
///   template class RuleProtocol<GenericEfficiency<P>>;
///
/// declaring both `extern template` in its header, so each kernel is
/// compiled once, in the one file that sees the rule's body. All ten rule
/// classes behind the twelve registry protocols carry both lines. The
/// registry's
/// generic-efficiency wrap lists P to pick the second instantiation
/// (core/protocol_registry.cpp); any inner it does not list is wrapped by
/// the per-process `GenericEfficiency<Protocol>`.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "runtime/protocol.hpp"

/// Declaration specifier for a protocol's `guard`/`act` and their private
/// helpers. Each instantiation has exactly one caller (a RuleProtocol hook),
/// and the bulk kernels only beat the scalar path when the rule is inlined
/// into their per-process loop, so inlining is forced rather than left to
/// the compiler's size heuristics.
#define SSS_RULE [[gnu::always_inline]] inline

namespace sss {

template <class Inner>
class GenericEfficiency;

/// The CSR and flat-row pointers slab contexts read through, hoisted once
/// per kernel call.
struct SlabView {
  SlabView(const Graph& g, const Configuration& config)
      : offsets(g.csr_offsets().data()),
        neighbors(g.csr_neighbors().data()),
        mirrors(g.csr_mirrors().data()),
        data(config.row(0)),
        stride(static_cast<std::size_t>(config.stride())),
        num_comm(static_cast<std::size_t>(config.num_comm())) {}

  const std::int32_t* offsets;
  const ProcessId* neighbors;
  const NbrIndex* mirrors;
  const Value* data;
  std::size_t stride;
  std::size_t num_comm;
};

/// Process `self`'s read view over the slabs: the guard half of the
/// context concept. Neighbor reads are logged into `Sink::log`, which
/// discards them on a refresh (BulkGuardContext) and charges the step's
/// read sink in phase 1 (BulkExecContext).
template <class Sink>
class SlabReadContext {
 public:
  SlabReadContext(const SlabView& view, Sink& sink, ProcessId self)
      : view_(view),
        sink_(sink),
        self_(self),
        row_(view.data + static_cast<std::size_t>(self) * view.stride),
        base_(view.offsets[self]) {}

  int degree() const { return view_.offsets[self_ + 1] - base_; }

  Value self_comm(int var) const { return row_[var]; }
  Value self_internal(int var) const {
    return row_[view_.num_comm + static_cast<std::size_t>(var)];
  }

  Value nbr_comm(NbrIndex channel, int var) const {
    const ProcessId q = view_.neighbors[slot(channel)];
    sink_.log(self_, q, var);
    return view_.data[static_cast<std::size_t>(q) * view_.stride +
                      static_cast<std::size_t>(var)];
  }

  NbrIndex self_index_at(NbrIndex channel) const {
    return view_.mirrors[slot(channel)];
  }

 protected:
  std::size_t slot(NbrIndex channel) const {
    return static_cast<std::size_t>(base_ + channel - 1);
  }

  const SlabView& view_;
  Sink& sink_;
  ProcessId self_;
  const Value* row_;
  std::int32_t base_;
};

using SlabGuardContext = SlabReadContext<BulkGuardContext>;

/// The action half: reads stay on the pre-step snapshot, writes land in
/// the staged row `out` (a copy of the snapshot row, see
/// BulkExecContext::stage), draws come from the exec context's rng.
class SlabActionContext final : public SlabReadContext<BulkExecContext> {
 public:
  SlabActionContext(const SlabView& view, BulkExecContext& exec,
                    ProcessId self, Value* out)
      : SlabReadContext(view, exec, self), out_(out) {}

  void set_comm(int var, Value v) { out_[var] = v; }
  void set_internal(int var, Value v) {
    out_[view_.num_comm + static_cast<std::size_t>(var)] = v;
  }
  Value random_range(Value lo, Value hi) { return sink_.random_range(lo, hi); }

 private:
  Value* out_;
};

/// Process `self` run solo against the frozen communication state
/// (Protocol::solo_writes_comm). Its own variables are read from the row
/// buffer `cur`, its state after the activations so far; its neighbours'
/// communication variables from the configuration, unlogged (a solo run
/// is a probe). An action writes into the row buffer `next`, a copy of
/// `cur`, so it reads its pre-state as on every other path; a `set_comm`
/// is recorded as an attempt, and draws come from the run's scratch
/// stream.
class SlabSoloContext final : public SlabReadContext<BulkGuardContext> {
 public:
  SlabSoloContext(const SlabView& view, BulkGuardContext& probe,
                  ProcessId self, const Value* cur, Value* next, Rng& rng)
      : SlabReadContext(view, probe, self), next_(next), rng_(rng) {
    row_ = cur;
  }

  void set_comm(int var, Value v) {
    attempted_ = true;
    next_[var] = v;
  }
  void set_internal(int var, Value v) {
    next_[view_.num_comm + static_cast<std::size_t>(var)] = v;
  }
  Value random_range(Value lo, Value hi) {
    return static_cast<Value>(rng_.range(lo, hi));
  }

  bool comm_write_attempted() const { return attempted_; }

 private:
  Value* next_;
  Rng& rng_;
  bool attempted_ = false;
};

namespace detail {

/// The calling thread's scratch for a solo kernel's two row buffers, at
/// least `size` values; it keeps its capacity across runs.
inline Value* solo_rows(std::size_t size) {
  thread_local std::vector<Value> rows;
  if (rows.size() < size) rows.resize(size);
  return rows.data();
}

}  // namespace detail

/// The wrapped rule's view of a process under GENERIC-EFFICIENCY: a
/// neighbour read returns the process's own mirror of that variable, an
/// internal variable of the bank that starts at internal index `bank` and
/// holds `stride` values per channel, channel-major. The read is not
/// logged, since the mirror is local memory. Every other call passes
/// straight through to the wrapped context, so the same mirror evaluation
/// runs on GuardContext (the scalar probe) and SlabGuardContext (the
/// refresh kernel).
template <class Ctx>
class MirrorContext {
 public:
  MirrorContext(Ctx& ctx, int bank, int stride)
      : ctx_(ctx), bank_(bank), stride_(stride) {}

  int degree() const { return ctx_.degree(); }
  Value self_comm(int var) const { return ctx_.self_comm(var); }
  Value self_internal(int var) const { return ctx_.self_internal(var); }
  Value nbr_comm(NbrIndex channel, int var) const {
    return ctx_.self_internal(bank_ + (channel - 1) * stride_ + var);
  }
  NbrIndex self_index_at(NbrIndex channel) const {
    return ctx_.self_index_at(channel);
  }

  /// The wrapped context, for an inner reachable only through a virtual
  /// `first_enabled` (GenericEfficiency<Protocol> hands it an overlay
  /// GuardContext over the same bank).
  Ctx& real() const { return ctx_; }

 private:
  Ctx& ctx_;
  int bank_;
  int stride_;
};

/// CRTP base supplying every rule-driven Protocol hook from P's
/// `guard`/`act` (P befriends this base; the rule stays private). Member
/// bodies are defined out of class so that `extern template` in P's
/// header suppresses implicit instantiation everywhere but P's .cpp.
template <class P>
class RuleProtocol : public Protocol {
 public:
  int first_enabled(GuardContext& ctx) const final;
  void execute(int action, ActionContext& ctx) const final;

  bool has_bulk_sweep() const final { return true; }
  void sweep_enabled_ids(BulkGuardContext& ctx, EnabledBitmap& out,
                         std::span<const ProcessId> ids) const final;

  void execute_selected(BulkExecContext& ctx, const EnabledBitmap& enabled,
                        std::span<const ProcessId> selection, std::size_t begin,
                        std::size_t end) const final;

  bool solo_writes_comm(const Graph& g, Configuration& config, ProcessId p,
                        int budget) const final;

  /// P's rule on any context, for a composition that inlines it into its
  /// own rule (GenericEfficiency<P>).
  template <class Ctx>
  SSS_RULE int rule_guard(Ctx& ctx) const {
    return rule().guard(ctx);
  }
  template <class Ctx>
  SSS_RULE void rule_act(int action, Ctx& ctx) const {
    rule().act(action, ctx);
  }

 private:
  const P& rule() const { return static_cast<const P&>(*this); }
};

template <class P>
int RuleProtocol<P>::first_enabled(GuardContext& ctx) const {
  return rule().guard(ctx);
}

template <class P>
void RuleProtocol<P>::execute(int action, ActionContext& ctx) const {
  rule().act(action, ctx);
}

template <class P>
void RuleProtocol<P>::sweep_enabled_ids(BulkGuardContext& ctx,
                                        EnabledBitmap& out,
                                        std::span<const ProcessId> ids) const {
  const SlabView view(ctx.graph(), ctx.config());
  std::int8_t* actions = out.actions();
  for (const ProcessId p : ids) {
    SlabGuardContext row(view, ctx, p);
    actions[p] = static_cast<std::int8_t>(rule().guard(row));
  }
}

template <class P>
void RuleProtocol<P>::execute_selected(BulkExecContext& ctx,
                                       const EnabledBitmap& enabled,
                                       std::span<const ProcessId> selection,
                                       std::size_t begin,
                                       std::size_t end) const {
  const SlabView view(ctx.graph(), ctx.config());
  for (std::size_t i = begin; i < end; ++i) {
    const ProcessId p = selection[i];
    // Every selected guard runs, enabled or not, and is charged here: the
    // refresh that chose the action logged nothing.
    SlabReadContext<BulkExecContext> guard(view, ctx, p);
    const int action = rule().guard(guard);
    enabled.expect_rerun(p, action);
    if (action == kDisabled) continue;
    SlabActionContext row(view, ctx, p, ctx.stage(i, p));
    rule().act(action, row);
  }
}

template <class P>
bool RuleProtocol<P>::solo_writes_comm(const Graph& g, Configuration& config,
                                       ProcessId p, int budget) const {
  const SlabView view(g, config);
  BulkGuardContext probe(g, config);
  Value* cur = detail::solo_rows(2 * view.stride);
  Value* next = cur + view.stride;
  const Value* live = config.row(p);
  std::copy(live, live + view.stride, cur);
  Rng rng(kSoloScratchSeed);
  for (int i = 0; i < budget; ++i) {
    SlabSoloContext solo(view, probe, p, cur, next, rng);
    const int action = rule().guard(solo);
    if (action == kDisabled) return false;  // stable forever
    std::copy(cur, cur + view.stride, next);
    rule().act(action, solo);
    if (solo.comm_write_attempted()) return true;
    std::swap(cur, next);
  }
  return false;
}

}  // namespace sss
