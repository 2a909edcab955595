#pragma once
/// \file matching_protocol.hpp
/// Protocol MATCHING (Figure 10) — deterministic self-stabilizing maximal
/// matching for locally-colored networks, 1-efficient. Derived from Manne
/// et al. [17] with the cur-pointer adaptation that yields 1-efficiency.
///
///   Communication variables:  M.p in {true, false},
///                             PR.p in {0 .. delta.p}
///   Communication constant:   C.p — a color, unique in p's neighborhood
///   Internal variable:        cur.p in [1 .. delta.p]
///   Predicate:  PRmarried(p) ≡ (PR.p = cur.p ∧ PR.(cur.p) = p)
///   Actions (priority order):
///     A1: PR.p ∉ {0, cur.p}                  -> PR.p <- cur.p
///     A2: M.p ≠ PRmarried(p)                 -> M.p <- PRmarried(p)
///     A3: PR.p = 0 ∧ PR.(cur.p) = p          -> PR.p <- cur.p
///     A4: PR.p = cur.p ∧ PR.(cur.p) ≠ p ∧
///         (M.(cur.p) ∨ C.(cur.p) < C.p)      -> PR.p <- 0
///     A5: PR.p = 0 ∧ PR.(cur.p) = 0 ∧
///         C.p < C.(cur.p) ∧ ¬M.(cur.p)       -> PR.p <- cur.p
///     A6: PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨
///         C.(cur.p) < C.p ∨ M.(cur.p))       -> cur.p <- (cur mod delta)+1
///
/// PR holds a local channel index (or 0 = free), so "PR.(cur.p) = p" is
/// evaluated by comparing the neighbor's pointer with the channel number
/// under which that neighbor sees p. Silent within (Delta+1)n + 2 rounds
/// (Lemma 9); married pairs are eventually 1-stable (Theorem 8).

#include <string>

#include "graph/coloring.hpp"
#include "runtime/rule.hpp"

namespace sss {

class MatchingProtocol final : public RuleProtocol<MatchingProtocol> {
 public:
  /// Variable indices.
  static constexpr int kMarriedVar = 0;  ///< comm: M
  static constexpr int kPrVar = 1;       ///< comm: PR
  static constexpr int kColorVar = 2;    ///< comm constant: C
  static constexpr int kCurVar = 0;      ///< internal: cur

  /// `colors` must be a proper coloring of `g`.
  MatchingProtocol(const Graph& g, Coloring colors);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 6; }

  void install_constants(const Graph& g, Configuration& config) const override;

  const Coloring& colors() const { return colors_; }

 private:
  friend RuleProtocol<MatchingProtocol>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;
  /// PRmarried(p) evaluated against a rule context.
  template <class Ctx>
  SSS_RULE static bool pr_married(Ctx& ctx);

  std::string name_ = "MATCHING";
  Coloring colors_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<MatchingProtocol>;
extern template class RuleProtocol<GenericEfficiency<MatchingProtocol>>;

}  // namespace sss
