#include "core/problems.hpp"

#include <algorithm>

#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "support/require.hpp"

namespace sss {

LegitimacyPredicate Problem::predicate() const {
  return [this](const Graph& g, const Configuration& config) {
    return holds(g, config);
  };
}

ColoringProblem::ColoringProblem(int color_var) : color_var_(color_var) {}

bool ColoringProblem::holds(const Graph& g, const Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value color = config.comm(p, color_var_);
    for (const ProcessId q : g.neighbors(p)) {
      if (q > p && config.comm(q, color_var_) == color) return false;
    }
  }
  return true;
}

bool ColoringProblem::ok_at(const Graph& g, const Configuration& config,
                            ProcessId p) const {
  const Value color = config.comm(p, color_var_);
  for (const ProcessId q : g.neighbors(p)) {
    if (config.comm(q, color_var_) == color) return false;
  }
  return true;
}

MisProblem::MisProblem(int state_var) : state_var_(state_var) {}

bool MisProblem::holds(const Graph& g, const Configuration& config) const {
  return is_maximal_independent_set(g, extract_mis(g, config, state_var_));
}

bool MisProblem::ok_at(const Graph& g, const Configuration& config,
                       ProcessId p) const {
  const bool in_set = config.comm(p, state_var_) == MisProtocol::kDominator;
  for (const ProcessId q : g.neighbors(p)) {
    if (config.comm(q, state_var_) == MisProtocol::kDominator) {
      return !in_set;  // dominated, which a Dominator must not be
    }
  }
  return in_set;
}

MatchingProblem::MatchingProblem() = default;

bool MatchingProblem::holds(const Graph& g, const Configuration& config) const {
  return is_maximal_matching(g, extract_matching(g, config));
}

std::vector<int> extract_colors(const Graph& g, const Configuration& config,
                                int color_var) {
  std::vector<int> colors(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    colors[static_cast<std::size_t>(p)] = config.comm(p, color_var);
  }
  return colors;
}

std::vector<bool> extract_mis(const Graph& g, const Configuration& config,
                              int state_var) {
  std::vector<bool> in_set(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    in_set[static_cast<std::size_t>(p)] =
        config.comm(p, state_var) == MisProtocol::kDominator;
  }
  return in_set;
}

bool matching_mutual_pr(const Graph& g, const Configuration& config,
                        ProcessId p) {
  const Value pr = config.comm(p, MatchingProtocol::kPrVar);
  if (pr == 0) return false;
  const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(pr));
  return config.comm(q, MatchingProtocol::kPrVar) ==
         static_cast<Value>(g.mirror_index(p, static_cast<NbrIndex>(pr)));
}

bool matching_pr_married(const Graph& g, const Configuration& config,
                         ProcessId p) {
  return matching_mutual_pr(g, config, p) &&
         config.internal_var(p, MatchingProtocol::kCurVar) ==
             config.comm(p, MatchingProtocol::kPrVar);
}

bool matching_covered(const Graph& g, const Configuration& config,
                      ProcessId p) {
  // Every matched edge at p is {p, PR.p} (both ends point at each other),
  // so p is covered iff one end of its mutual pair is PRmarried.
  if (!matching_mutual_pr(g, config, p)) return false;
  const ProcessId q = g.neighbor(
      p, static_cast<NbrIndex>(config.comm(p, MatchingProtocol::kPrVar)));
  return matching_pr_married(g, config, p) ||
         matching_pr_married(g, config, q);
}

std::vector<Edge> extract_matching(const Graph& g,
                                   const Configuration& config) {
  std::vector<Edge> matched;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (!matching_pr_married(g, config, p)) continue;
    const Value pr = config.comm(p, MatchingProtocol::kPrVar);
    const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(pr));
    // A married pair points at each other, so {p, q} was already emitted
    // iff its lower end q is married too.
    if (q < p && matching_pr_married(g, config, q)) continue;
    matched.emplace_back(std::min(p, q), std::max(p, q));
  }
  return matched;
}

std::vector<Edge> extract_mutual_pr_edges(const Graph& g,
                                          const Configuration& config) {
  std::vector<Edge> matched;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (!matching_mutual_pr(g, config, p)) continue;
    const ProcessId q = g.neighbor(
        p, static_cast<NbrIndex>(config.comm(p, MatchingProtocol::kPrVar)));
    if (q > p) matched.emplace_back(p, q);  // each pair once
  }
  return matched;
}

bool is_independent_set(const Graph& g, const std::vector<bool>& in_set) {
  SSS_REQUIRE(static_cast<int>(in_set.size()) == g.num_vertices(),
              "membership bitmap has the wrong size");
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (!in_set[static_cast<std::size_t>(p)]) continue;
    for (const ProcessId q : g.neighbors(p)) {
      if (q > p && in_set[static_cast<std::size_t>(q)]) return false;
    }
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g,
                                const std::vector<bool>& in_set) {
  if (!is_independent_set(g, in_set)) return false;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (in_set[static_cast<std::size_t>(p)]) continue;
    bool dominated = false;
    for (ProcessId q : g.neighbors(p)) {
      if (in_set[static_cast<std::size_t>(q)]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

bool is_matching(const Graph& g, const std::vector<Edge>& edges) {
  std::vector<int> incidence(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const auto& [a, b] : edges) {
    if (!g.has_edge(a, b)) return false;
    if (++incidence[static_cast<std::size_t>(a)] > 1) return false;
    if (++incidence[static_cast<std::size_t>(b)] > 1) return false;
  }
  return true;
}

bool is_maximal_matching(const Graph& g, const std::vector<Edge>& edges) {
  if (!is_matching(g, edges)) return false;
  std::vector<bool> covered(static_cast<std::size_t>(g.num_vertices()), false);
  for (const auto& [a, b] : edges) {
    covered[static_cast<std::size_t>(a)] = true;
    covered[static_cast<std::size_t>(b)] = true;
  }
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (covered[static_cast<std::size_t>(p)]) continue;
    for (const ProcessId q : g.neighbors(p)) {
      if (!covered[static_cast<std::size_t>(q)]) return false;
    }
  }
  return true;
}

}  // namespace sss
