#pragma once
/// \file full_read_mis.hpp
/// The status-quo comparator for Protocol MIS: the classical
/// identifier-ordered self-stabilizing MIS in the style of Ikeda, Kamei &
/// Kakugawa [13]. A process is in the set iff none of its lower-colored
/// neighbors is; every guard scans the whole neighborhood, so the protocol
/// is Delta-efficient and its stabilized fixed point is the greedy MIS by
/// color order.
///
///   A1: S.p = IN  ∧ ∃q: C.q < C.p ∧ S.q = IN    -> S.p <- OUT
///   A2: S.p = OUT ∧ ∀q: C.q < C.p ⇒ S.q = OUT  -> S.p <- IN

#include <string>

#include "graph/coloring.hpp"
#include "runtime/rule.hpp"

namespace sss {

class FullReadMis final : public RuleProtocol<FullReadMis> {
 public:
  static constexpr Value kOut = 0;
  static constexpr Value kIn = 1;
  static constexpr int kStateVar = 0;  ///< comm: S
  static constexpr int kColorVar = 1;  ///< comm constant: C

  /// `colors` must be a proper coloring (global ids via identity_coloring
  /// model the original paper's setting).
  FullReadMis(const Graph& g, Coloring colors);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }

  void install_constants(const Graph& g, Configuration& config) const override;

 private:
  friend RuleProtocol<FullReadMis>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "FULL-READ-MIS";
  Coloring colors_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<FullReadMis>;
extern template class RuleProtocol<GenericEfficiency<FullReadMis>>;

}  // namespace sss
