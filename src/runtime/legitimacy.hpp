#pragma once
/// \file legitimacy.hpp
/// Local form of a legitimacy predicate, and the tracker that lets
/// Engine::run (engine invariant 8) and the churn window (runtime/churn.hpp)
/// follow it incrementally.
///
/// The problems of Section 5 are locally checkable: a violation at p is
/// visible inside p's neighbourhood. A `LocalLegitimacy` states that fact
/// as code — a per-process check with a declared read radius and a
/// declared set of read variables, plus a check of the protocol constants
/// — so a caller can re-check only the neighbourhoods whose read variables
/// changed instead of evaluating the whole O(n + m) predicate after every
/// step. `runtime` cannot see `core::Problem`; the problems implement this
/// interface and hand it over through `RunOptions::local_legitimacy` or
/// the ChurnRunner constructors.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"

namespace sss {

/// The local form of a legitimacy predicate `holds`. Contract:
///
///   holds(g, c)  <=>  constants_ok(g, c)  and  for all p: ok_at(g, c, p)
///
/// where ok_at(g, c, p) reads only variables of processes within radius()
/// hops of p — only their communication variables unless reads_internal()
/// — and constants_ok reads only protocol constants (root flags,
/// identifiers) and the graph. Both are const and stateless: one form may
/// serve many engines on many threads.
class LocalLegitimacy {
 public:
  virtual ~LocalLegitimacy() = default;

  /// Hops around p that ok_at reads.
  virtual int radius() const = 0;
  /// Whether ok_at (or covered_at) reads internal variables too. A
  /// comm-only form lets the tracker ignore writes that touch internal
  /// variables alone, such as a pointer rotation at silence.
  virtual bool reads_internal() const { return false; }
  virtual bool ok_at(const Graph& g, const Configuration& config,
                     ProcessId p) const = 0;
  virtual bool constants_ok(const Graph& g,
                            const Configuration& config) const = 0;
};

/// A local form factored through a per-process `covered` flag (maximal
/// matching): covered_at reads only within radius() - 1 hops, and
///
///   ok_at(g, c, p)  <=>  covered_at(p)  or  every neighbour covered_at
///
/// i.e. the covered processes must form a vertex cover. The tracker then
/// caches the flags and counts uncovered edges, so a step costs
/// O(|touched| * Delta) instead of re-checking radius-2 balls.
class CoverLegitimacy : public LocalLegitimacy {
 public:
  virtual bool covered_at(const Graph& g, const Configuration& config,
                          ProcessId p) const = 0;
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const final;
};

/// Violation count over a LocalLegitimacy on one graph. Construction
/// evaluates the form on the whole configuration once and mirrors every
/// process's read-visible row: its communication prefix, or its full row
/// when the form reads_internal(). After each mutation of the
/// configuration, `recheck(config, touched)` takes the processes the
/// mutation may have written (a step's selection, a corruption's victims),
/// keeps those whose read-visible row differs from the mirror (updating
/// the mirror), and re-evaluates only the radius-r ball around them. Every
/// write lands in a touched process, so the mirror equals the
/// configuration between calls and the count stays exact. Each process in
/// the ball is checked once per call (generation-stamped dedup).
/// Constants never change on one graph, so a failed constants_ok makes
/// every later recheck a no-op. The tracker keeps references to the graph
/// and the form; a caller that replaces the graph builds a new tracker.
class LegitimacyTracker {
 public:
  LegitimacyTracker(const Graph& g, const LocalLegitimacy& form,
                    const Configuration& config);

  void recheck(const Configuration& config,
               std::span<const ProcessId> touched);

  bool legitimate() const { return constants_ok_ && violations_ == 0; }

 private:
  /// Fills seeds_ with the touched processes whose read-visible row
  /// changed since the last call, bringing their mirrored rows up to date.
  void collect_changed(const Configuration& config,
                       std::span<const ProcessId> touched);
  /// Fills ball_ with every process within `radius` hops of seeds_.
  void collect_ball(int radius);
  /// Uncovered neighbours of p under the cached flags.
  std::int64_t uncovered_neighbours(ProcessId p) const;

  const Graph& graph_;
  const LocalLegitimacy& form_;
  /// Non-null when the form is a cover form.
  const CoverLegitimacy* cover_;
  bool constants_ok_ = false;
  /// Violating processes, or (cover form) edges with both ends uncovered.
  std::int64_t violations_ = 0;
  /// Per process: violating (plain form) or covered (cover form).
  std::vector<std::uint8_t> flag_;
  /// Read-visible rows, `width_` values per process.
  std::vector<Value> mirror_;
  int width_ = 0;
  std::vector<ProcessId> seeds_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<ProcessId> ball_;
};

}  // namespace sss
