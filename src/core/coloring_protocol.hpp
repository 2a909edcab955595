#pragma once
/// \file coloring_protocol.hpp
/// Protocol COLORING (Figure 7) — probabilistic self-stabilizing vertex
/// coloring for arbitrary *anonymous* networks, 1-efficient.
///
///   Communication variable:  C.p in {1 .. Delta+1}
///   Internal variable:       cur.p in [1 .. delta.p]
///   Actions (priority order):
///     (C.p  = C.(cur.p)) -> C.p <- random({1..Delta+1});
///                           cur.p <- (cur.p mod delta.p) + 1
///     (C.p != C.(cur.p)) -> cur.p <- (cur.p mod delta.p) + 1
///
/// Each process checks one neighbor per step, round-robin via cur; on a
/// conflict it redraws its color uniformly. Stabilizes to a proper coloring
/// with probability 1 (Theorem 3) and communicates log2(Delta+1) bits per
/// step instead of the Delta*log2(Delta+1) a full-read protocol needs
/// (Section 3.2).

#include <string>

#include "runtime/rule.hpp"

namespace sss {

class ColoringProtocol final : public RuleProtocol<ColoringProtocol> {
 public:
  /// Variable indices, public for predicates/tests.
  static constexpr int kColorVar = 0;  ///< comm
  static constexpr int kCurVar = 0;    ///< internal

  /// `palette_size` defaults to Delta+1, the minimum that works on every
  /// graph of maximum degree Delta (a Delta-clique needs them all).
  /// Requires palette_size >= Delta+1 and a network with n >= 2.
  explicit ColoringProtocol(const Graph& g, int palette_size = 0);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }
  bool is_probabilistic() const override { return true; }

  int palette_size() const { return palette_size_; }

 private:
  friend RuleProtocol<ColoringProtocol>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "COLORING";
  int palette_size_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<ColoringProtocol>;

}  // namespace sss
