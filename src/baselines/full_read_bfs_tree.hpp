#pragma once
/// \file full_read_bfs_tree.hpp
/// The status-quo comparator for Protocol BFS-TREE: the classic silent
/// BFS spanning-tree construction (Dolev-style) in which every guard
/// evaluation scans the *entire* neighborhood for the minimum claimed
/// distance (Delta-efficient). One action recomputes D.p as
/// min(min_q D.q + 1, n-1) and repoints PR.p at the first minimizing
/// channel; the root pins itself at distance 0. Converges in O(n) rounds,
/// but charges Delta distance reads per step where BFS-TREE charges 2.

#include <string>

#include "runtime/rule.hpp"

namespace sss {

class FullReadBfsTree final : public RuleProtocol<FullReadBfsTree> {
 public:
  /// Same communication layout as BfsTreeProtocol (minus cur): predicates
  /// apply to both.
  static constexpr int kDistVar = 0;    ///< comm: D
  static constexpr int kParentVar = 1;  ///< comm: PR
  static constexpr int kRootVar = 2;    ///< comm constant: R

  explicit FullReadBfsTree(const Graph& g, ProcessId root = 0);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }

  void install_constants(const Graph& g, Configuration& config) const override;

  ProcessId root() const { return root_; }
  Value max_distance() const { return max_distance_; }

 private:
  friend RuleProtocol<FullReadBfsTree>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "FULL-READ-BFS-TREE";
  ProcessId root_;
  Value max_distance_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<FullReadBfsTree>;

}  // namespace sss
