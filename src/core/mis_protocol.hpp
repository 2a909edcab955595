#pragma once
/// \file mis_protocol.hpp
/// Protocol MIS (Figure 8) — deterministic self-stabilizing maximal
/// independent set for locally-colored networks, 1-efficient.
///
///   Communication variable:  S.p in {Dominator, dominated}
///   Communication constant:  C.p — a color, unique in p's neighborhood
///   Internal variable:       cur.p in [1 .. delta.p]
///   Actions (priority order):
///     (S.(cur.p) = Dom ∧ C.(cur.p) < C.p ∧ S.p = Dom)
///         -> S.p <- dominated
///     ((S.(cur.p) = dominated ∨ C.p < C.(cur.p)) ∧ S.p = dominated)
///         -> S.p <- Dominator; cur.p <- (cur.p mod delta.p) + 1
///     (S.p = Dominator)
///         -> cur.p <- (cur.p mod delta.p) + 1
///
/// Note the first action does *not* advance cur: a freshly dominated
/// process keeps pointing at the Dominator that beat it, which is exactly
/// what makes dominated processes eventually 1-stable (Theorem 6). Silent
/// within Delta * #C rounds (Lemma 4).

#include <string>

#include "graph/coloring.hpp"
#include "runtime/rule.hpp"

namespace sss {

class MisProtocol final : public RuleProtocol<MisProtocol> {
 public:
  /// S values.
  static constexpr Value kDominated = 0;
  static constexpr Value kDominator = 1;

  /// Variable indices.
  static constexpr int kStateVar = 0;  ///< comm: S
  static constexpr int kColorVar = 1;  ///< comm constant: C
  static constexpr int kCurVar = 0;    ///< internal: cur

  /// `colors` must be a proper coloring of `g` (colors unique between
  /// neighbors); it becomes the communication constant C.
  ///
  /// `promote_on_higher_color` keeps the second action's "∨ C.p < C.(cur.p)"
  /// disjunct, which the paper adds "to have a faster convergence time".
  /// Passing false ablates it: the protocol still stabilizes to a maximal
  /// independent set (a dominated process parks on ANY Dominator), but the
  /// Lemma 4 round-bound argument no longer applies and the silent output
  /// is no longer the unique greedy-by-color MIS. See bench_mis_ablation.
  explicit MisProtocol(const Graph& g, Coloring colors,
                       bool promote_on_higher_color = true);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 3; }

  void install_constants(const Graph& g, Configuration& config) const override;

  const Coloring& colors() const { return colors_; }
  int num_colors() const { return num_colors_; }
  bool promote_on_higher_color() const { return promote_on_higher_color_; }

 private:
  friend RuleProtocol<MisProtocol>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_;
  Coloring colors_;
  int num_colors_;
  bool promote_on_higher_color_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<MisProtocol>;

}  // namespace sss
