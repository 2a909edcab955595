#pragma once
/// \file full_read_coloring.hpp
/// The status-quo comparator for Protocol COLORING: a randomized
/// self-stabilizing (Delta+1)-coloring in the style of Gradinariu & Tixeuil
/// [12] that reads *every* neighbor at every step (Delta-efficient, the
/// baseline the paper's Section 3.2 charges Delta*log2(Delta+1) bits per
/// step). On a conflict the process redraws uniformly among the colors not
/// used by any neighbor, which exists because the palette has Delta+1
/// colors.

#include <string>

#include "runtime/rule.hpp"

namespace sss {

class FullReadColoring final : public RuleProtocol<FullReadColoring> {
 public:
  static constexpr int kColorVar = 0;  ///< comm

  explicit FullReadColoring(const Graph& g, int palette_size = 0);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  bool is_probabilistic() const override { return true; }

  int palette_size() const { return palette_size_; }

 private:
  friend RuleProtocol<FullReadColoring>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "FULL-READ-COLORING";
  int palette_size_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<FullReadColoring>;

}  // namespace sss
