#pragma once
/// \file leader_election_protocol.hpp
/// Protocol LEADER-ELECTION — deterministic silent self-stabilizing leader
/// election for identified networks, communication-efficient in the style
/// of arXiv:2008.04252: a process reads at most its parent plus one
/// round-robin neighbor per step (2-efficient), against the Delta reads of
/// the classic full-read election (baselines/full_read_leader_election
/// .hpp). The elected process is the one with the minimum identifier, and
/// the parent pointers converge to a BFS spanning tree rooted at it.
///
///   Communication variables:  L.p  — claimed leader id
///                             D.p  in {0 .. n-1} (claimed tree depth)
///                             PR.p in {0 .. delta.p} (parent channel)
///   Communication constant:   ID.p — p's unique identifier
///   Internal variable:        cur.p in [1 .. delta.p]
///
/// Write self(p) ≡ (L.p = ID.p ∧ D.p = 0 ∧ PR.p = 0), dmax = n-1, and
/// q = PR.p's neighbor. Actions (priority order):
///   A1 reset:     L.p > ID.p
///                 ∨ (L.p = ID.p ∧ (D.p ≠ 0 ∨ PR.p ≠ 0))
///                 ∨ (L.p < ID.p ∧ (PR.p = 0 ∨ D.p = 0))
///                 ∨ (L.p < ID.p ∧ (L.q > L.p ∨ D.q = dmax))
///                    -> L.p <- ID.p; D.p <- 0; PR.p <- 0
///   A2 inherit:   L.p < ID.p ∧ L.q < L.p      -> L.p <- L.q; D.p <- D.q+1
///   A3 follow:    L.p < ID.p ∧ L.q = L.p ∧ D.p ≠ D.q + 1
///                                             -> D.p <- D.q + 1
///   A4 adopt:     L.(cur.p) < L.p ∧ D.(cur.p) + 1 <= dmax
///                    -> L.p <- L.(cur.p); D.p <- D.(cur.p) + 1;
///                       PR.p <- cur.p; advance cur
///   A5 improve:   L.p < ID.p ∧ L.(cur.p) = L.p ∧ D.(cur.p) + 1 < D.p
///                    -> D.p <- D.(cur.p) + 1; PR.p <- cur.p; advance cur
///   A6 scan:      true -> advance cur
///
/// Fake leader ids cannot survive: a consistent chain of equal-L parents
/// with depths decreasing by 1 is a real path and must bottom out at a
/// process whose own id *is* that L — for a fake id no such process
/// exists, so the lowest-depth holder resets (A1) while parent cycles
/// chase their depths up to the dmax cap, where A1's D.q = dmax clause
/// cuts them down. Once only real ids remain, the minimum id spreads via
/// A4 (each process checks one candidate per activation through cur) and
/// A5 shrinks depths to BFS distances from the winner. In the silent
/// configuration every process agrees on L = min id, the winner is in the
/// self state, and PR/D form a BFS tree rooted at it; only A6's internal
/// rotation keeps firing. Guard evaluation reads at most the parent
/// (A1-A3) and the cur neighbor (A4-A5): k = 2.

#include <string>
#include <vector>

#include "runtime/rule.hpp"

namespace sss {

class LeaderElectionProtocol final : public RuleProtocol<LeaderElectionProtocol> {
 public:
  /// Variable indices, public for predicates/tests.
  static constexpr int kLeaderVar = 0;  ///< comm: L
  static constexpr int kDistVar = 1;    ///< comm: D
  static constexpr int kParentVar = 2;  ///< comm: PR
  static constexpr int kIdVar = 3;      ///< comm constant: ID
  static constexpr int kCurVar = 0;     ///< internal: cur

  /// `ids` assigns one identifier per process; they must be distinct and
  /// non-negative. Requires a connected network with n >= 2.
  LeaderElectionProtocol(const Graph& g, std::vector<Value> ids);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 6; }

  void install_constants(const Graph& g, Configuration& config) const override;

  const std::vector<Value>& ids() const { return ids_; }
  Value min_id() const { return min_id_; }
  Value max_distance() const { return max_distance_; }

 private:
  friend RuleProtocol<LeaderElectionProtocol>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "LEADER-ELECTION";
  std::vector<Value> ids_;
  Value min_id_;
  Value max_id_;
  Value max_distance_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<LeaderElectionProtocol>;

/// Identifier assignments for the registry's `id_scheme` parameter:
///   "identity"  ID.p = p
///   "reverse"   ID.p = n-1-p (the winner is the highest-index process)
///   "random"    a seed-deterministic permutation of 0..n-1
std::vector<Value> make_id_assignment(const Graph& g,
                                      const std::string& scheme,
                                      std::uint64_t seed);

}  // namespace sss
