#pragma once
/// \file bfs_tree_protocol.hpp
/// Protocol BFS-TREE — deterministic silent self-stabilizing BFS spanning
/// tree construction for rooted networks, with the communication-efficient
/// read pattern of Devismes–Johnen (arXiv:1509.03815) transplanted into
/// this library's cur-pointer idiom: a process reads at most its parent
/// plus one round-robin neighbor per step (2-efficient), against the
/// Delta reads of the classic full-read construction
/// (baselines/full_read_bfs_tree.hpp).
///
///   Communication variables:  D.p  in {0 .. n-1}   (claimed distance)
///                             PR.p in {0 .. delta.p} (parent channel,
///                                                     0 = none)
///   Communication constant:   R.p  in {0, 1}       (1 iff p is the root)
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
/// A2 keeps a child glued to its parent's distance, so too-small values in
/// a parent cycle chase each other up to the n-1 cap (where A2 disables)
/// instead of persisting; A4 then pulls every process down to the true BFS
/// level as the root's 0 spreads, because a parent chain that is
/// everywhere A2-consistent below the cap is a real path from the root and
/// can never be shorter than the BFS distance. In the silent configuration
/// D.p is exactly the BFS distance from the root and PR.p points at a
/// distance-(D.p - 1) neighbor; only A5's internal rotation keeps running,
/// which writes no communication variable. Guard evaluation reads at most
/// the parent (A2) and the cur neighbor (A3/A4): k = 2.

#include <string>

#include "runtime/rule.hpp"

namespace sss {

class BfsTreeProtocol final : public RuleProtocol<BfsTreeProtocol> {
 public:
  /// Variable indices, public for predicates/tests.
  static constexpr int kDistVar = 0;    ///< comm: D
  static constexpr int kParentVar = 1;  ///< comm: PR
  static constexpr int kRootVar = 2;    ///< comm constant: R
  static constexpr int kCurVar = 0;     ///< internal: cur

  /// Requires a connected network with n >= 2 and a root in range.
  explicit BfsTreeProtocol(const Graph& g, ProcessId root = 0);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 5; }

  void install_constants(const Graph& g, Configuration& config) const override;

  ProcessId root() const { return root_; }
  /// The distance cap n-1 (the largest BFS distance a connected network
  /// can realize), which is what flushes fake parent cycles.
  Value max_distance() const { return max_distance_; }

 private:
  friend RuleProtocol<BfsTreeProtocol>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "BFS-TREE";
  ProcessId root_;
  Value max_distance_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<BfsTreeProtocol>;

}  // namespace sss
