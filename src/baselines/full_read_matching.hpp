#pragma once
/// \file full_read_matching.hpp
/// The status-quo comparator for Protocol MATCHING: the self-stabilizing
/// maximal matching of Manne, Mjelde, Pilard & Tixeuil [17], with colors
/// playing the role of the identifiers. Every guard scans the entire
/// neighborhood (Delta-efficient). Figure 10 of the paper is this protocol
/// *plus* the cur-pointer discipline that brings reads down to one
/// neighbor per step; keeping the two in the same repository makes the
/// communication savings directly measurable.
///
///   Update:     M.p ≠ married(p)                     -> M.p <- married(p)
///   Abandon:    PR.p = q ∧ PR.q ≠ p ∧
///               (M.q ∨ C.q < C.p)                    -> PR.p <- 0
///   Accept:     PR.p = 0 ∧ ∃q: PR.q = p              -> PR.p <- min such q
///   Propose:    PR.p = 0 ∧ ∄q: PR.q = p ∧
///               ∃q: PR.q = 0 ∧ ¬M.q ∧ C.p < C.q      -> PR.p <- min such q
///
/// where married(p) ≡ ∃q: PR.p = q ∧ PR.q = p.

#include <string>

#include "core/problems.hpp"
#include "graph/coloring.hpp"
#include "runtime/rule.hpp"

namespace sss {

class FullReadMatching final : public RuleProtocol<FullReadMatching> {
 public:
  static constexpr int kMarriedVar = 0;  ///< comm: M
  static constexpr int kPrVar = 1;       ///< comm: PR
  static constexpr int kColorVar = 2;    ///< comm constant: C

  FullReadMatching(const Graph& g, Coloring colors);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 4; }

  void install_constants(const Graph& g, Configuration& config) const override;

 private:
  friend RuleProtocol<FullReadMatching>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  /// married(p): PR.p points at a neighbor whose PR points back.
  template <class Ctx>
  SSS_RULE static bool married(Ctx& ctx);
  /// Lowest channel whose neighbor proposes to p (PR.q = p), or 0.
  template <class Ctx>
  SSS_RULE static NbrIndex first_proposer(Ctx& ctx);
  /// Lowest channel holding a free, unmarried, higher-colored neighbor,
  /// or 0.
  template <class Ctx>
  SSS_RULE static NbrIndex first_candidate(Ctx& ctx);

  std::string name_ = "FULL-READ-MATCHING";
  Coloring colors_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<FullReadMatching>;

/// Legitimacy for the baseline's layout: the mutually-pointing PR pairs
/// form a maximal matching. (The cur-based predicate of Section 5.3 does
/// not apply — the baseline has no cur.) Registered in the
/// ProblemRegistry as "mutual-pr-matching", which is what pairs the
/// baseline with a sound predicate in the registry-wide property harness.
class MutualPrMatchingProblem final : public Problem, public CoverLegitimacy {
 public:
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  /// Local form, a cover form of radius 2: mutual pairs are always a
  /// matching, so holds reduces to the mutually paired processes
  /// (matching_mutual_pr) forming a vertex cover.
  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 2; }
  bool constants_ok(const Graph&, const Configuration&) const override {
    return true;
  }
  bool covered_at(const Graph& g, const Configuration& config,
                  ProcessId p) const override {
    return matching_mutual_pr(g, config, p);
  }

 private:
  std::string name_ = "mutual-pr-matching";
};

}  // namespace sss
