#include "verify/tree_predicates.hpp"

#include <algorithm>
#include <limits>

#include "core/leader_election_protocol.hpp"
#include "core/spanning_forest_protocol.hpp"
#include "graph/properties.hpp"
#include "verify/forest_predicates.hpp"

namespace sss {

BfsTreeProblem::BfsTreeProblem() = default;

bool BfsTreeProblem::holds(const Graph& g, const Configuration& config) const {
  const ProcessId root = extract_bfs_root(g, config);
  if (root < 0) return false;
  std::vector<Value> dist(static_cast<std::size_t>(g.num_vertices()));
  std::vector<Value> parent(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    dist[static_cast<std::size_t>(p)] =
        config.comm(p, SpanningForestProtocol::kDistVar);
    parent[static_cast<std::size_t>(p)] =
        config.comm(p, SpanningForestProtocol::kParentVar);
  }
  return is_bfs_forest(g, {root}, dist, parent);
}

bool BfsTreeProblem::ok_at(const Graph& g, const Configuration& config,
                           ProcessId p) const {
  return bfs_ok_at(g, config, p,
                   config.comm(p, SpanningForestProtocol::kRootVar) == 1,
                   SpanningForestProtocol::kDistVar,
                   SpanningForestProtocol::kParentVar);
}

bool BfsTreeProblem::constants_ok(const Graph& g,
                                  const Configuration& config) const {
  return extract_bfs_root(g, config) >= 0;
}

LeaderElectionProblem::LeaderElectionProblem() = default;

bool LeaderElectionProblem::holds(const Graph& g,
                                  const Configuration& config) const {
  const Value agreed = extract_agreed_leader(g, config);
  if (agreed < 0) return false;
  // The agreed leader must be the *minimum* identifier and its owner must
  // exist in the network (a fake agreed-on id is not an election).
  ProcessId owner = -1;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value id = config.comm(p, LeaderElectionProtocol::kIdVar);
    if (id < agreed) return false;
    if (id == agreed) owner = p;
  }
  if (owner < 0) return false;
  std::vector<Value> dist(static_cast<std::size_t>(g.num_vertices()));
  std::vector<Value> parent(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    dist[static_cast<std::size_t>(p)] =
        config.comm(p, LeaderElectionProtocol::kDistVar);
    parent[static_cast<std::size_t>(p)] =
        config.comm(p, LeaderElectionProtocol::kParentVar);
  }
  return is_bfs_forest(g, {owner}, dist, parent);
}

bool LeaderElectionProblem::ok_at(const Graph& g, const Configuration& config,
                                  ProcessId p) const {
  const Value leader = config.comm(p, LeaderElectionProtocol::kLeaderVar);
  for (const ProcessId q : g.neighbors(p)) {
    if (config.comm(q, LeaderElectionProtocol::kLeaderVar) != leader) {
      return false;
    }
  }
  const Value id = config.comm(p, LeaderElectionProtocol::kIdVar);
  if (id < leader) return false;
  return bfs_ok_at(g, config, p, id == leader,
                   LeaderElectionProtocol::kDistVar,
                   LeaderElectionProtocol::kParentVar);
}

bool LeaderElectionProblem::constants_ok(const Graph& g,
                                         const Configuration& config) const {
  Value min_id = config.comm(0, LeaderElectionProtocol::kIdVar);
  int owners = 0;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value id = config.comm(p, LeaderElectionProtocol::kIdVar);
    if (id < min_id) {
      min_id = id;
      owners = 0;
    }
    if (id == min_id) ++owners;
  }
  return owners == 1 && is_connected(g);
}

ProcessId extract_bfs_root(const Graph& g, const Configuration& config) {
  ProcessId root = -1;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (config.comm(p, SpanningForestProtocol::kRootVar) != 1) continue;
    if (root >= 0) return -1;  // two flagged roots
    root = p;
  }
  return root;
}

std::vector<Edge> extract_parent_edges(const Graph& g,
                                       const Configuration& config,
                                       int parent_var) {
  std::vector<Edge> edges;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value pr = config.comm(p, parent_var);
    if (pr < 1 || pr > g.degree(p)) continue;
    edges.emplace_back(p, g.neighbor(p, static_cast<NbrIndex>(pr)));
  }
  return edges;
}

Value extract_agreed_leader(const Graph& g, const Configuration& config) {
  const Value claimed = config.comm(0, LeaderElectionProtocol::kLeaderVar);
  for (ProcessId p = 1; p < g.num_vertices(); ++p) {
    if (config.comm(p, LeaderElectionProtocol::kLeaderVar) != claimed) {
      return -1;
    }
  }
  return claimed;
}

bool bfs_ok_at(const Graph& g, const Configuration& config, ProcessId p,
               bool root, int dist_var, int parent_var) {
  const Value dist = config.comm(p, dist_var);
  const Value parent = config.comm(p, parent_var);
  if (root) return dist == 0 && parent == 0;
  if (parent < 1 || parent > g.degree(p)) return false;
  Value nearest = std::numeric_limits<Value>::max();
  for (const ProcessId q : g.neighbors(p)) {
    nearest = std::min(nearest, config.comm(q, dist_var));
  }
  return dist == nearest + 1 &&
         config.comm(g.neighbor(p, static_cast<NbrIndex>(parent)), dist_var) ==
             dist - 1;
}

}  // namespace sss
