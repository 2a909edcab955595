#pragma once
/// \file problems.hpp
/// The problems of Section 5 as legitimacy predicates over configurations,
/// plus output extractors and independent validators used by tests.
///
/// A configuration is *legitimate* for a protocol stabilizing to predicate
/// R iff it conforms to R (Section 2.1). These classes evaluate R directly
/// on the shared variables, so they can audit any configuration — including
/// the stitched counterexamples of the impossibility module.
///
/// Every registered problem is also locally checkable and exposes its
/// local form (runtime/legitimacy.hpp) through `local_form()`. The
/// contract, for every configuration whose constants the protocol
/// installed:
///
///   holds(g, c)  <=>  constants_ok(g, c)  and  for all p: ok_at(g, c, p)
///
///  * ok_at(g, c, p) reads only variables of processes within radius()
///    hops of p, and only their communication variables unless the form
///    declares reads_internal() (maximal matching, whose PRmarried reads
///    cur); tests/test_legitimacy_tracking.cpp audits both declarations;
///  * constants_ok(g, c) reads only protocol constants (root flags,
///    identifiers) and the graph;
///  * both are const and stateless, because one Problem is shared by every
///    engine of a batch, across worker threads.
///
/// Engine::run (engine invariant 8) and the churn window
/// (runtime/churn.hpp) use the local form to re-check only the
/// neighbourhoods whose read variables changed; `holds` stays the
/// reference both re-confirm against, and tests/test_legitimacy_tracking.cpp
/// and tests/test_churn.cpp check the equivalence registry-wide.

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"
#include "runtime/engine.hpp"
#include "runtime/legitimacy.hpp"

namespace sss {

class Problem {
 public:
  virtual ~Problem() = default;
  virtual const std::string& name() const = 0;
  virtual bool holds(const Graph& g, const Configuration& config) const = 0;

  /// Adapter for RunOptions::legitimacy. The Problem must outlive the
  /// returned callable.
  LegitimacyPredicate predicate() const;

  /// The local form of `holds` for RunOptions::local_legitimacy (see the
  /// file comment), or null when the problem has none; run then falls back
  /// to calling predicate() after every step. Owned by the Problem.
  virtual const LocalLegitimacy* local_form() const { return nullptr; }
};

/// Vertex coloring predicate: for every process p and neighbor q,
/// C.p != C.q (Section 5.1). `color_var` is the comm index of C.
class ColoringProblem final : public Problem, public LocalLegitimacy {
 public:
  explicit ColoringProblem(int color_var = 0);
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  /// Local form: p's color differs from every neighbour's (radius 1).
  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 1; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override;
  bool constants_ok(const Graph&, const Configuration&) const override {
    return true;
  }

 private:
  std::string name_ = "vertex-coloring";
  int color_var_;
};

/// MIS predicate: {q : S.q = Dominator} is a maximal independent set
/// (Section 5.2). `state_var` is the comm index of S.
class MisProblem final : public Problem, public LocalLegitimacy {
 public:
  explicit MisProblem(int state_var = 0);
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  /// Local form (radius 1): a Dominator has no Dominator neighbour, any
  /// other process has at least one.
  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 1; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override;
  bool constants_ok(const Graph&, const Configuration&) const override {
    return true;
  }

 private:
  std::string name_ = "maximal-independent-set";
  int state_var_;
};

/// PR.p names a neighbour q whose PR names p back (MatchingProtocol's
/// layout; also the full-read baseline's, which shares the PR slot).
bool matching_mutual_pr(const Graph& g, const Configuration& config,
                        ProcessId p);

/// Whether p is an endpoint of an extract_matching edge: p's PR pair is
/// mutual and either endpoint is PRmarried. Reads p's one-hop
/// neighbourhood only.
bool matching_covered(const Graph& g, const Configuration& config,
                      ProcessId p);

/// Maximal matching predicate over the output functions of Section 5.3:
/// inMM[q].p ≡ PRmarried(p) ∧ PR.p = q, and the edge set
/// {{p,q} : inMM[q].p ∨ inMM[p].q} must be a maximal matching.
/// Uses MatchingProtocol's variable layout.
class MatchingProblem final : public Problem, public CoverLegitimacy {
 public:
  MatchingProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

  /// Local form, a cover form of radius 2. The matched edges are always a
  /// matching — an edge {p, q} is matched only if PR.p and PR.q point at
  /// each other, so every matched edge at p is {p, PR.p} — hence holds
  /// reduces to maximality: the covered processes (matching_covered) form
  /// a vertex cover. PRmarried compares PR with the internal pointer cur,
  /// so the form reads_internal().
  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 2; }
  bool reads_internal() const override { return true; }
  bool constants_ok(const Graph&, const Configuration&) const override {
    return true;
  }
  bool covered_at(const Graph& g, const Configuration& config,
                  ProcessId p) const override {
    return matching_covered(g, config, p);
  }

 private:
  std::string name_ = "maximal-matching";
};

// --- Output extractors -----------------------------------------------------

/// Colors per process from comm var `color_var`.
std::vector<int> extract_colors(const Graph& g, const Configuration& config,
                                int color_var = 0);

/// Membership bitmap of the S = Dominator set.
std::vector<bool> extract_mis(const Graph& g, const Configuration& config,
                              int state_var = 0);

/// PRmarried(p) for MatchingProtocol's layout (needs cur, see Fig 10).
bool matching_pr_married(const Graph& g, const Configuration& config,
                         ProcessId p);

/// Edges {p,q} with inMM[q].p ∨ inMM[p].q (the paper's matched set),
/// each once, in the order of its first married endpoint.
std::vector<Edge> extract_matching(const Graph& g,
                                   const Configuration& config);

/// Mutually-pointing PR pairs regardless of cur; in silent configurations
/// this coincides with extract_matching (Lemma 7 forces PR.p = cur.p).
std::vector<Edge> extract_mutual_pr_edges(const Graph& g,
                                          const Configuration& config);

// --- Independent validators (used by tests and checkers) -------------------

bool is_independent_set(const Graph& g, const std::vector<bool>& in_set);
bool is_maximal_independent_set(const Graph& g,
                                const std::vector<bool>& in_set);
bool is_matching(const Graph& g, const std::vector<Edge>& edges);
bool is_maximal_matching(const Graph& g, const std::vector<Edge>& edges);

}  // namespace sss
