#pragma once
/// \file spanning_forest_protocol.hpp
/// Protocol SPANNING-FOREST — deterministic silent self-stabilizing BFS
/// spanning *forest* construction, generalizing Protocol BFS-TREE to a set
/// of roots after the acyclic strategy for silent spanning forests
/// (arXiv:1805.02401). Each process converges to the distance of its
/// nearest root and a parent pointer one level closer to it, so the parent
/// edges form a forest of BFS trees, one per root, partitioning the
/// network into the roots' Voronoi cells.
///
///   Communication variables:  D.p  in {0 .. n-1}   (claimed distance)
///                             PR.p in {0 .. delta.p} (parent channel,
///                                                     0 = none)
///   Communication constant:   R.p  in {0, 1}       (1 iff p is a root)
///   Internal variable:        cur.p in [1 .. delta.p]
///   Actions (priority order; cap(x) = min(x, n-1)):
///     A1 fix-root:  R.p ∧ (D.p ≠ 0 ∨ PR.p ≠ 0)
///                      -> D.p <- 0; PR.p <- 0
///     A2 follow:    ¬R.p ∧ PR.p ≠ 0 ∧ D.p ≠ cap(D.(PR.p) + 1)
///                      -> D.p <- cap(D.(PR.p) + 1)
///     A3 adopt:     ¬R.p ∧ PR.p = 0
///                      -> PR.p <- cur.p; D.p <- cap(D.(cur.p) + 1);
///                         cur.p <- (cur.p mod delta.p) + 1
///     A4 improve:   ¬R.p ∧ PR.p ≠ 0 ∧ D.(cur.p) + 1 < D.p
///                      -> PR.p <- cur.p; D.p <- D.(cur.p) + 1;
///                         cur.p <- (cur.p mod delta.p) + 1
///     A5 scan:      ¬R.p -> cur.p <- (cur.p mod delta.p) + 1
///
/// The convergence argument of BFS-TREE (see bfs_tree_protocol.hpp) is
/// root-count-agnostic: A2 glues a child to its parent so fake too-small
/// distances chase each other up to the n-1 cap, and a parent chain that
/// is everywhere A2-consistent below the cap is a real path to *some*
/// root — never shorter than the multi-source BFS distance — which A4
/// then attains as every root's 0 spreads. Guard evaluation reads at most
/// the parent (A2) and the cur neighbor (A3/A4): k = 2, independent of
/// the degree and of the number of roots.

#include <string>
#include <vector>

#include "runtime/rule.hpp"

namespace sss {

class SpanningForestProtocol final : public RuleProtocol<SpanningForestProtocol> {
 public:
  /// Variable indices, public for predicates/tests (shared layout with
  /// BfsTreeProtocol, which is the one-root special case).
  static constexpr int kDistVar = 0;    ///< comm: D
  static constexpr int kParentVar = 1;  ///< comm: PR
  static constexpr int kRootVar = 2;    ///< comm constant: R
  static constexpr int kCurVar = 0;     ///< internal: cur

  /// Requires a connected network with n >= 2 and a non-empty set of
  /// distinct in-range roots.
  SpanningForestProtocol(const Graph& g, std::vector<ProcessId> roots);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 5; }

  void install_constants(const Graph& g, Configuration& config) const override;

  const std::vector<ProcessId>& roots() const { return roots_; }
  /// The distance cap n-1, which is what flushes fake parent cycles.
  Value max_distance() const { return max_distance_; }

 private:
  friend RuleProtocol<SpanningForestProtocol>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "SPANNING-FOREST";
  std::vector<ProcessId> roots_;
  Value max_distance_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<SpanningForestProtocol>;

}  // namespace sss
