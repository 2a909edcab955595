#include "verify/forest_predicates.hpp"

#include <algorithm>
#include <deque>

#include "core/spanning_forest_protocol.hpp"
#include "support/require.hpp"
#include "verify/tree_predicates.hpp"

namespace sss {

BfsForestProblem::BfsForestProblem() = default;

bool BfsForestProblem::holds(const Graph& g,
                             const Configuration& config) const {
  const std::vector<ProcessId> roots = extract_forest_roots(g, config);
  if (roots.empty()) return false;
  std::vector<Value> dist(static_cast<std::size_t>(g.num_vertices()));
  std::vector<Value> parent(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    dist[static_cast<std::size_t>(p)] =
        config.comm(p, SpanningForestProtocol::kDistVar);
    parent[static_cast<std::size_t>(p)] =
        config.comm(p, SpanningForestProtocol::kParentVar);
  }
  return is_bfs_forest(g, roots, dist, parent);
}

bool BfsForestProblem::ok_at(const Graph& g, const Configuration& config,
                             ProcessId p) const {
  return bfs_ok_at(g, config, p,
                   config.comm(p, SpanningForestProtocol::kRootVar) == 1,
                   SpanningForestProtocol::kDistVar,
                   SpanningForestProtocol::kParentVar);
}

bool BfsForestProblem::constants_ok(const Graph& g,
                                    const Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (config.comm(p, SpanningForestProtocol::kRootVar) == 1) return true;
  }
  return false;
}

std::vector<ProcessId> extract_forest_roots(const Graph& g,
                                            const Configuration& config) {
  std::vector<ProcessId> roots;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (config.comm(p, SpanningForestProtocol::kRootVar) == 1) {
      roots.push_back(p);
    }
  }
  return roots;
}

std::vector<int> multi_source_bfs_distances(
    const Graph& g, const std::vector<ProcessId>& roots) {
  SSS_REQUIRE(!roots.empty(),
              "multi-source BFS needs at least one source");
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::deque<ProcessId> queue;
  for (const ProcessId root : roots) {
    SSS_REQUIRE(root >= 0 && root < g.num_vertices(),
                "BFS source out of range");
    if (dist[static_cast<std::size_t>(root)] == 0) continue;
    dist[static_cast<std::size_t>(root)] = 0;
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const ProcessId p = queue.front();
    queue.pop_front();
    for (NbrIndex ch = 1; ch <= g.degree(p); ++ch) {
      const ProcessId q = g.neighbor(p, ch);
      if (dist[static_cast<std::size_t>(q)] >= 0) continue;
      dist[static_cast<std::size_t>(q)] =
          dist[static_cast<std::size_t>(p)] + 1;
      queue.push_back(q);
    }
  }
  return dist;
}

bool is_bfs_forest(const Graph& g, const std::vector<ProcessId>& roots,
                   const std::vector<Value>& dist,
                   const std::vector<Value>& parent) {
  SSS_REQUIRE(!roots.empty(), "is_bfs_forest needs at least one root");
  SSS_REQUIRE(static_cast<int>(dist.size()) == g.num_vertices() &&
                  static_cast<int>(parent.size()) == g.num_vertices(),
              "is_bfs_forest needs one distance and one parent per process");
  const std::vector<int> truth = multi_source_bfs_distances(g, roots);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (dist[i] != static_cast<Value>(truth[i])) return false;
    if (truth[i] == 0) {
      // In-range roots are exactly the distance-0 vertices.
      if (parent[i] != 0) return false;
      continue;
    }
    if (parent[i] < 1 || parent[i] > g.degree(p)) return false;
    const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(parent[i]));
    if (truth[static_cast<std::size_t>(q)] != truth[i] - 1) return false;
  }
  return true;
}

}  // namespace sss
