#pragma once
/// \file full_read_spanning_forest.hpp
/// The status-quo comparator for Protocol SPANNING-FOREST: the classic
/// silent BFS forest construction in which every guard evaluation scans
/// the *entire* neighborhood for the minimum claimed distance
/// (Delta-efficient). One action recomputes D.p as min(min_q D.q + 1, n-1)
/// and repoints PR.p at the first minimizing channel; every root pins
/// itself at distance 0. Converges in O(n) rounds, but charges Delta
/// distance reads per step where SPANNING-FOREST charges 2.

#include <string>
#include <vector>

#include "runtime/rule.hpp"

namespace sss {

class FullReadSpanningForest final : public RuleProtocol<FullReadSpanningForest> {
 public:
  /// Same communication layout as SpanningForestProtocol (minus cur):
  /// predicates apply to both.
  static constexpr int kDistVar = 0;    ///< comm: D
  static constexpr int kParentVar = 1;  ///< comm: PR
  static constexpr int kRootVar = 2;    ///< comm constant: R

  FullReadSpanningForest(const Graph& g, std::vector<ProcessId> roots);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }

  void install_constants(const Graph& g, Configuration& config) const override;

  const std::vector<ProcessId>& roots() const { return roots_; }
  Value max_distance() const { return max_distance_; }

 private:
  friend RuleProtocol<FullReadSpanningForest>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "FULL-READ-SPANNING-FOREST";
  std::vector<ProcessId> roots_;
  Value max_distance_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<FullReadSpanningForest>;

}  // namespace sss
