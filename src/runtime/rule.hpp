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
/// hi)`. `RuleProtocol<P>` instantiates that rule four times:
///
///  * on the scalar `GuardContext` / `ActionContext` for
///    `first_enabled` / `execute` (what `ReferenceEngine`, the model
///    checker and the transformers' overlay contexts see);
///  * on `SlabGuardContext` for `sweep_enabled_range`, reading the CSR
///    slabs and flat configuration rows directly and logging into the
///    engine's guard memo through `BulkGuardContext`;
///  * on `SlabActionContext` for `execute_selected`, reading the snapshot,
///    writing into the row `BulkExecContext::stage` hands out, logging
///    through the step's read sink and drawing through its rng.
///
/// Because the same rule code runs on every path, a slab sweep issues the
/// scalar guard's reads in the scalar order (short-circuits included) and
/// a slab action writes exactly the scalar action's slots: read-log and
/// trajectory agreement between the paths hold by construction, and the
/// lockstep suites test the two slab contexts and the engine paths rather
/// than per-protocol transcriptions.
///
/// Build layout: a protocol declares `guard`/`act` with SSS_RULE, defines
/// them in its .cpp, explicitly instantiates `RuleProtocol<P>` there, and
/// declares it `extern template` in its header, so each kernel is compiled
/// once with the rule inlined.

#include <cstddef>
#include <cstdint>
#include <span>

#include "runtime/protocol.hpp"

/// Declaration specifier for a protocol's `guard`/`act` and their private
/// helpers. Each instantiation has exactly one caller (a RuleProtocol hook),
/// and the bulk kernels only beat the scalar path when the rule is inlined
/// into their per-process loop, so inlining is forced rather than left to
/// the compiler's size heuristics.
#define SSS_RULE [[gnu::always_inline]] inline

namespace sss {

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
/// context concept. Neighbor reads are logged into `Sink::log`, which is
/// the guard memo (BulkGuardContext) or the step's read sink
/// (BulkExecContext).
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
  void sweep_enabled_range(BulkGuardContext& ctx, EnabledBitmap& out,
                           ProcessId begin, ProcessId end) const final;

  bool has_bulk_execute() const final { return true; }
  void execute_selected(BulkExecContext& ctx, const EnabledBitmap& enabled,
                        std::span<const ProcessId> selection, std::size_t begin,
                        std::size_t end) const final;

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
void RuleProtocol<P>::sweep_enabled_range(BulkGuardContext& ctx,
                                          EnabledBitmap& out, ProcessId begin,
                                          ProcessId end) const {
  const SlabView view(ctx.graph(), ctx.config());
  std::int8_t* actions = out.actions();
  for (ProcessId p = begin; p < end; ++p) {
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
    // The scalar phase 1 replays every selected guard, enabled or not.
    ctx.replay_guard_reads(p);
    const int action = enabled.action(p);
    if (action == kDisabled) continue;
    SlabActionContext row(view, ctx, p, ctx.stage(i, p));
    rule().act(action, row);
  }
}

}  // namespace sss
