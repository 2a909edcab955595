#pragma once
/// \file full_read_leader_election.hpp
/// The status-quo comparator for Protocol LEADER-ELECTION: classic silent
/// min-id election in which every guard evaluation reads the leader claim
/// and depth of *every* neighbor (Delta-efficient). The rules are the
/// same flush-by-depth-cap construction as the communication-efficient
/// protocol — reset inconsistent claims, adopt the best (leader, depth)
/// offer in the whole neighborhood — so the two stabilize to the same
/// configurations and differ exactly in read volume.

#include <string>
#include <vector>

#include "runtime/rule.hpp"

namespace sss {

class FullReadLeaderElection final : public RuleProtocol<FullReadLeaderElection> {
 public:
  /// Same communication layout as LeaderElectionProtocol (minus cur):
  /// predicates apply to both.
  static constexpr int kLeaderVar = 0;  ///< comm: L
  static constexpr int kDistVar = 1;    ///< comm: D
  static constexpr int kParentVar = 2;  ///< comm: PR
  static constexpr int kIdVar = 3;      ///< comm constant: ID

  FullReadLeaderElection(const Graph& g, std::vector<Value> ids);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }

  void install_constants(const Graph& g, Configuration& config) const override;

  const std::vector<Value>& ids() const { return ids_; }
  Value min_id() const { return min_id_; }
  Value max_distance() const { return max_distance_; }

 private:
  friend RuleProtocol<FullReadLeaderElection>;
  template <class Ctx>
  SSS_RULE int guard(Ctx& ctx) const;
  template <class Ctx>
  SSS_RULE void act(int action, Ctx& ctx) const;

  std::string name_ = "FULL-READ-LEADER-ELECTION";
  std::vector<Value> ids_;
  Value min_id_;
  Value max_id_;
  Value max_distance_;
  ProtocolSpec spec_;
};

extern template class RuleProtocol<FullReadLeaderElection>;

}  // namespace sss
