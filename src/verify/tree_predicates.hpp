#pragma once
/// \file tree_predicates.hpp
/// Legitimacy predicates for the tree-shaped problems of the protocol
/// registry: BFS spanning-tree construction and leader election. Both
/// audit configurations through the shared communication layout of the
/// cur-pointer protocols and their full-read baselines (distance, parent
/// channel, and the root-flag / identifier constants), so one predicate
/// serves the efficient protocol and its comparator alike — including
/// hand-built configurations in tests and the stitched counterexamples of
/// the impossibility module.

#include <string>
#include <vector>

#include "core/problems.hpp"
#include "graph/graph.hpp"
#include "runtime/configuration.hpp"

namespace sss {

/// BFS spanning tree w.r.t. the root flagged in the configuration:
/// exactly one process carries R = 1; the root claims distance 0 and no
/// parent; every other process claims its exact BFS distance from the
/// root and a parent channel pointing at a distance-(D.p - 1) neighbor.
/// Variable layout: SpanningForestProtocol::{kDistVar, kParentVar,
/// kRootVar} (the `bfs-tree` entries are its one-root case).
///
/// Local form (radius 1): constants_ok is "exactly one root flag"; ok_at
/// is bfs_ok_at. Exact distances follow from the local Bellman-Ford
/// fixpoint, so no global BFS is needed.
class BfsTreeProblem final : public Problem, public LocalLegitimacy {
 public:
  BfsTreeProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 1; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override;
  bool constants_ok(const Graph& g,
                    const Configuration& config) const override;

 private:
  std::string name_ = "bfs-spanning-tree";
};

/// Unique leader + tree agreement: every process claims the minimum
/// identifier as leader; the owner of that identifier is in the self
/// state (D = 0, PR = 0); every other process has a parent channel whose
/// neighbor claims depth D.p - 1 and its depth is its exact BFS distance
/// from the owner — so the parent pointers form a BFS spanning tree
/// rooted at the elected process. Variable layout:
/// LeaderElectionProtocol::{kLeaderVar, kDistVar, kParentVar, kIdVar}.
///
/// Local form (radius 1): ok_at(p) is leader agreement with every
/// neighbour, ID.p >= L.p, and bfs_ok_at with p as a root iff ID.p = L.p.
/// On a connected graph agreement spreads to everyone, and a rootless
/// Bellman-Ford fixpoint cannot exist, so some process owns L — the
/// minimum id. constants_ok is "the graph is connected (holds is false on
/// any other) and exactly one process owns the minimum id" (the protocols
/// require distinct ids; a duplicated minimum is outside the contract).
class LeaderElectionProblem final : public Problem, public LocalLegitimacy {
 public:
  LeaderElectionProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 1; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override;
  bool constants_ok(const Graph& g,
                    const Configuration& config) const override;

 private:
  std::string name_ = "leader-election";
};

// --- Output extractors and independent validators (tests, checkers) --------

/// The unique process with R = 1, or -1 when the flag count is not one.
ProcessId extract_bfs_root(const Graph& g, const Configuration& config);

/// The (child, parent) edges named by the parent channels; processes with
/// PR = 0 contribute nothing. `parent_var` is the comm index of PR.
std::vector<Edge> extract_parent_edges(const Graph& g,
                                       const Configuration& config,
                                       int parent_var);

/// The leader id every process agrees on, or -1 on disagreement.
Value extract_agreed_leader(const Graph& g, const Configuration& config);

/// The local BFS check at p, shared by the tree, forest and leader forms:
/// a root claims distance 0 and no parent; any other process claims one
/// more than its nearest neighbour's distance and a parent channel naming
/// a neighbour one level closer. Over a root set R, these checks hold
/// everywhere iff the claims are the exact multi-source BFS distances and
/// a BFS forest of R (the Bellman-Ford fixpoint is unique, and a
/// component without a root has none).
bool bfs_ok_at(const Graph& g, const Configuration& config, ProcessId p,
               bool root, int dist_var, int parent_var);

}  // namespace sss
