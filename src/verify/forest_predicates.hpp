#pragma once
/// \file forest_predicates.hpp
/// Legitimacy predicate for the spanning-forest family: a configuration is
/// legitimate when the parent channels encode the multi-source BFS forest
/// of the flagged root set — every process claims its exact distance to
/// the *nearest* root and, unless it is a root, a parent channel one level
/// closer to that root. Shared communication layout with the tree
/// predicates ({D, PR, R} at SpanningForestProtocol::{kDistVar, kParentVar,
/// kRootVar}), so one predicate serves both SPANNING-FOREST and its
/// full-read comparator.

#include <string>
#include <vector>

#include "core/problems.hpp"
#include "graph/graph.hpp"
#include "runtime/configuration.hpp"

namespace sss {

/// BFS spanning forest w.r.t. the roots flagged in the configuration:
/// at least one process carries R = 1; every root claims distance 0 and
/// no parent; every other process claims its exact distance to the
/// nearest root and a parent channel pointing at a distance-(D.p - 1)
/// neighbor. With a single flagged root this coincides with
/// BfsTreeProblem.
///
/// Local form (radius 1): constants_ok is "at least one root flag"; ok_at
/// is bfs_ok_at over the flagged root set.
class BfsForestProblem final : public Problem, public LocalLegitimacy {
 public:
  BfsForestProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 1; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override;
  bool constants_ok(const Graph& g,
                    const Configuration& config) const override;

 private:
  std::string name_ = "bfs-spanning-forest";
};

// --- Output extractors and independent validators (tests, checkers) --------

/// Every process with R = 1, in increasing id order (possibly empty).
std::vector<ProcessId> extract_forest_roots(const Graph& g,
                                            const Configuration& config);

/// Multi-source BFS distances: each vertex's hop distance to the nearest
/// element of `roots`. Unreachable vertices get -1; `roots` must be
/// non-empty and in range.
std::vector<int> multi_source_bfs_distances(const Graph& g,
                                            const std::vector<ProcessId>& roots);

/// True iff `dist`/`parent` encode the BFS forest of `roots`: dist equals
/// the multi-source BFS distance everywhere, roots have no parent, and
/// every non-root parent channel points one level down. The forest,
/// BFS-tree and leader-election predicates reduce to this (the latter two
/// with one root) after pulling their layouts out of the configuration.
bool is_bfs_forest(const Graph& g, const std::vector<ProcessId>& roots,
                   const std::vector<Value>& dist,
                   const std::vector<Value>& parent);

}  // namespace sss
