#pragma once
/// \file generic_efficiency.hpp
/// The general communication-efficiency transformer the paper leaves open
/// (Section 6), after "Making local algorithms efficiently self-stabilizing
/// in arbitrary asynchronous environments" (arXiv:2307.06635).
///
/// `rotating_check` covers only the universally-pairwise-checkable
/// fragment: predicates a memoryless one-neighbor-per-step rotation can
/// certify. The general construction removes that restriction by giving
/// each process a *mirror* of every neighbor's communication state (an
/// internal variable bank) plus a rotating audit pointer:
///
///   audit    — read the communication variables of the one neighbor the
///              pointer names and compare them to its mirror (the only
///              communication reads of a quiet step);
///   collect  — on any discrepancy, refresh the whole mirror bank from
///              the real neighborhood (a full-width read, paid only while
///              stabilizing);
///   evaluate — run the wrapped protocol's guards against the mirror at
///              zero communication cost; if some guard fires, *confirm*
///              it against the real neighborhood (this is the witness
///              pinning a memoryless rotation cannot express: the mirror
///              remembers the evidence between steps) and execute the
///              confirmed action with the wrapped protocol's own
///              semantics — every communication write of the transformed
///              protocol is a genuine inner move on the real state;
///   advance  — otherwise just rotate the audit pointer.
///
/// In the stabilized phase no mirror is stale and no comm-writing inner
/// guard fires, so a step costs the communication variables of a *single*
/// neighbor — independent of the degree — while the wrapped protocol, run
/// bare, may pay its whole neighborhood forever (the full-read baselines
/// do). Self-stabilization and silence carry over from the wrapped
/// protocol: confirmed execution means the projected computation (audits
/// and collects erased) is a fair computation of the wrapped protocol.
///
/// The transformed protocol's communication variables are exactly the
/// wrapped protocol's (its legitimacy predicate applies unchanged); the
/// mirror bank, the audit pointer, and the wrapped protocol's own
/// internal variables are all internal.
///
/// The rule — audit, mirror evaluation, confirm, then collect, a confirmed
/// inner action or advance — is written once, as the `guard`/`act`
/// templates of `GenericEfficiency<Inner>`, and instantiated for two
/// kinds of inner (runtime/rule.hpp):
///
///  * a rule protocol P: `GenericEfficiency<P>` is the rule protocol
///    `RuleProtocol<GenericEfficiency<P>>`. The mirror evaluation runs P's
///    guard on `MirrorContext<Ctx>` and the confirm on the real context,
///    both inlined, so the composition gets the refresh
///    (`sweep_enabled_ids`) and execute (`execute_selected`) kernels on the
///    CSR slabs. P's .cpp instantiates them, next to `RuleProtocol<P>`.
///  * any other runnable protocol (a nested transformer, a test mock):
///    `GenericEfficiency<Protocol>` calls the inner's virtual hooks, its
///    mirror evaluation through an overlay GuardContext over the bank,
///    and the engine runs the per-process refresh and execute defaults.
///
/// `make_generic_efficiency<Rules...>` picks between the two by the inner's
/// dynamic type; the registry's generic-efficiency entry lists every rule
/// protocol.

#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "runtime/rule.hpp"
#include "support/require.hpp"

namespace sss {

namespace detail {

/// The transformed spec: the wrapped protocol's variables at their own
/// indices, then the audit pointer, then the mirror bank. Checks the inner
/// and the network.
ProtocolSpec generic_efficiency_spec(const Graph& g, const Protocol* inner);

/// The hooks of `GenericEfficiency<Protocol>`: its rule on the scalar
/// contexts only, leaving Protocol's per-process refresh and execute
/// defaults in place.
class ErasedInnerHooks : public Protocol {
 public:
  int first_enabled(GuardContext& ctx) const final;
  void execute(int action, ActionContext& ctx) const final;
};

}  // namespace detail

/// The transformed protocol. Wraps (and owns) a runnable protocol: a rule
/// protocol as `Inner` itself, any other one as `Inner = Protocol`.
template <class Inner>
class GenericEfficiency final
    : public std::conditional_t<std::is_same_v<Inner, Protocol>,
                                detail::ErasedInnerHooks,
                                RuleProtocol<GenericEfficiency<Inner>>> {
 public:
  GenericEfficiency(const Graph& g, std::unique_ptr<Inner> inner)
      : inner_(std::move(inner)),
        spec_(detail::generic_efficiency_spec(g, inner_.get())),
        name_("GENERIC-EFFICIENCY(" + inner_->name() + ")"),
        num_comm_(inner_->spec().num_comm()),
        tcur_index_(inner_->spec().num_internal()) {}

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  /// The wrapped protocol's actions keep their indices; collect and
  /// advance ride behind them.
  int num_actions() const override { return inner_->num_actions() + 2; }
  bool is_probabilistic() const override { return inner_->is_probabilistic(); }
  /// One activation may be spent on the full mirror refresh before the
  /// wrapped protocol's own solo trace surfaces (see
  /// Protocol::solo_quiescence_margin).
  int solo_quiescence_margin() const override {
    return inner_->solo_quiescence_margin() + 1;
  }
  /// Shared comm indices: the wrapped protocol writes its own constants.
  /// Mirror slots are NOT constants — arbitrary initialization corrupts
  /// them and the audit/collect pair repairs them.
  void install_constants(const Graph& g, Configuration& config) const override {
    inner_->install_constants(g, config);
  }

  const Inner& inner() const { return *inner_; }

  /// Action indices of the transformer's own two actions (the wrapped
  /// protocol's actions occupy [0, inner().num_actions())).
  int collect_action() const { return inner_->num_actions(); }
  int advance_action() const { return inner_->num_actions() + 1; }

  /// Internal-variable index of the audit pointer.
  int tcur_index() const { return tcur_index_; }
  /// Internal-variable index of the mirror of neighbor `ch`'s
  /// communication variable `var`.
  int mirror_index(NbrIndex ch, int var) const {
    return tcur_index_ + 1 + (ch - 1) * num_comm_ + var;
  }

 private:
  friend RuleProtocol<GenericEfficiency>;
  friend detail::ErasedInnerHooks;

  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  /// The wrapped protocol's guard and act: inlined for a rule protocol,
  /// virtual calls for `Inner = Protocol`.
  template <class Ctx>
  SSS_RULE int inner_guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void inner_act(int action, Ctx& ctx) const;

  std::unique_ptr<Inner> inner_;
  ProtocolSpec spec_;
  std::string name_;
  int num_comm_;    ///< = inner spec's num_comm
  int tcur_index_;  ///< = inner spec's num_internal
};

template <class Inner>
template <class Ctx>
int GenericEfficiency<Inner>::guard(Ctx& ctx) const {
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(tcur_index_));
  // Audit: the step's only unconditional communication reads — the
  // variables of the single neighbor the pointer names.
  for (int v = 0; v < num_comm_; ++v) {
    if (ctx.nbr_comm(cur, v) != ctx.self_internal(mirror_index(cur, v))) {
      return collect_action();
    }
  }
  // Evaluate the wrapped protocol's guards against the mirror bank: local
  // memory only, nothing read from the network.
  MirrorContext<Ctx> mirror(ctx, mirror_index(1, 0), num_comm_);
  if (inner_guard(mirror) == Protocol::kDisabled) return advance_action();
  // Confirm against the real neighborhood before acting: a genuine inner
  // guard must hold on the real state for the move to be a genuine inner
  // move. A mirror that fired where the real state does not is stale in a
  // way the single-channel audit missed — refresh it.
  const int confirmed = inner_guard(ctx);
  return confirmed == Protocol::kDisabled ? collect_action() : confirmed;
}

template <class Inner>
template <class Ctx>
void GenericEfficiency<Inner>::act(int action, Ctx& ctx) const {
  // Every action rotates the audit pointer, so each neighbor is audited
  // within delta.p activations.
  const auto cur = static_cast<Value>(ctx.self_internal(tcur_index_));
  const Value next = (cur % static_cast<Value>(ctx.degree())) + 1;
  if (action == collect_action()) {
    // Full mirror refresh (the stabilizing-phase full-width read): one
    // collect leaves every channel fresh, so a solo process spends at
    // most one activation here before behaving as the wrapped protocol.
    for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
      for (int v = 0; v < num_comm_; ++v) {
        ctx.set_internal(mirror_index(ch, v), ctx.nbr_comm(ch, v));
      }
    }
  } else if (action != advance_action()) {
    SSS_ASSERT(action >= 0 && action < inner_->num_actions(),
               "GENERIC-EFFICIENCY action out of range");
    inner_act(action, ctx);
  }
  ctx.set_internal(tcur_index_, next);
}

template <class Inner>
template <class Ctx>
int GenericEfficiency<Inner>::inner_guard(Ctx& ctx) const {
  if constexpr (!std::is_same_v<Inner, Protocol>) {
    return inner_->rule_guard(ctx);
  } else if constexpr (std::is_same_v<Ctx, GuardContext>) {
    return inner_->first_enabled(ctx);
  } else {
    // The mirror evaluation of a virtual guard: an overlay GuardContext
    // answers its neighbor reads from the same bank, unlogged.
    const GuardContext& real = ctx.real();
    GuardContext overlay(real.graph(), real.config(), real.self(), nullptr);
    overlay.set_nbr_overlay(real.config().row(real.self()) + num_comm_ +
                                mirror_index(1, 0),
                            num_comm_);
    return inner_->first_enabled(overlay);
  }
}

template <class Inner>
template <class Ctx>
void GenericEfficiency<Inner>::inner_act(int action, Ctx& ctx) const {
  if constexpr (std::is_same_v<Inner, Protocol>) {
    inner_->execute(action, ctx);
  } else {
    inner_->rule_act(action, ctx);
  }
}

/// GENERIC-EFFICIENCY over `inner`: `GenericEfficiency<P>`, with its slab
/// kernels, when the inner's dynamic type is one of the rule protocols
/// `P, Rest...`; the per-process `GenericEfficiency<Protocol>` otherwise.
template <class P, class... Rest>
std::unique_ptr<Protocol> make_generic_efficiency(
    const Graph& g, std::unique_ptr<Protocol> inner) {
  const Protocol* raw = inner.get();
  if (raw != nullptr && typeid(*raw) == typeid(P)) {
    return std::make_unique<GenericEfficiency<P>>(
        g, std::unique_ptr<P>(static_cast<P*>(inner.release())));
  }
  if constexpr (sizeof...(Rest) == 0) {
    return std::make_unique<GenericEfficiency<Protocol>>(g, std::move(inner));
  } else {
    return make_generic_efficiency<Rest...>(g, std::move(inner));
  }
}

extern template class GenericEfficiency<Protocol>;

}  // namespace sss
