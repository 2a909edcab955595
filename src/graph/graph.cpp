#include "graph/graph.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

Graph Graph::from_edges(int num_vertices, const std::vector<Edge>& edges) {
  SSS_REQUIRE(num_vertices >= 1, "a graph needs at least one vertex");
  std::vector<std::vector<ProcessId>> adjacency(
      static_cast<std::size_t>(num_vertices));
  for (const auto& [a, b] : edges) {
    SSS_REQUIRE(a >= 0 && a < num_vertices && b >= 0 && b < num_vertices,
                "edge endpoint out of range");
    SSS_REQUIRE(a != b, "self-loops are not allowed");
    adjacency[static_cast<std::size_t>(a)].push_back(b);
    adjacency[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& nbrs : adjacency) {
    std::sort(nbrs.begin(), nbrs.end());
    SSS_REQUIRE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end(),
                "duplicate edge in edge list");
  }
  Graph g;
  g.num_edges_ = static_cast<int>(edges.size());
  g.build_csr(adjacency);
  return g;
}

Graph Graph::from_ports(const std::vector<std::vector<ProcessId>>& ports) {
  const int n = static_cast<int>(ports.size());
  SSS_REQUIRE(n >= 1, "a graph needs at least one vertex");
  int total_endpoints = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto& nbrs = ports[static_cast<std::size_t>(p)];
    total_endpoints += static_cast<int>(nbrs.size());
    std::vector<ProcessId> sorted = nbrs;
    std::sort(sorted.begin(), sorted.end());
    SSS_REQUIRE(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "duplicate neighbor in port list");
    for (ProcessId q : nbrs) {
      SSS_REQUIRE(q >= 0 && q < n, "port neighbor out of range");
      SSS_REQUIRE(q != p, "self-loops are not allowed");
      const auto& back = ports[static_cast<std::size_t>(q)];
      SSS_REQUIRE(std::find(back.begin(), back.end(), p) != back.end(),
                  "port relation must be symmetric");
    }
  }
  Graph g;
  g.num_edges_ = total_endpoints / 2;
  g.build_csr(ports);
  return g;
}

void Graph::build_csr(const std::vector<std::vector<ProcessId>>& adjacency) {
  num_vertices_ = static_cast<int>(adjacency.size());
  offsets_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  max_degree_ = 0;
  min_degree_ = num_vertices_;
  for (ProcessId p = 0; p < num_vertices_; ++p) {
    const int deg =
        static_cast<int>(adjacency[static_cast<std::size_t>(p)].size());
    offsets_[static_cast<std::size_t>(p) + 1] =
        offsets_[static_cast<std::size_t>(p)] + deg;
    max_degree_ = std::max(max_degree_, deg);
    min_degree_ = std::min(min_degree_, deg);
  }
  neighbors_.reserve(static_cast<std::size_t>(offsets_.back()));
  for (const auto& nbrs : adjacency) {
    neighbors_.insert(neighbors_.end(), nbrs.begin(), nbrs.end());
  }
  mirror_index_.resize(neighbors_.size());
  for (ProcessId p = 0; p < num_vertices_; ++p) {
    for (std::int32_t slot = offsets_[static_cast<std::size_t>(p)];
         slot < offsets_[static_cast<std::size_t>(p) + 1]; ++slot) {
      const ProcessId q = neighbors_[static_cast<std::size_t>(slot)];
      mirror_index_[static_cast<std::size_t>(slot)] = local_index_of(q, p);
    }
  }
}

NbrIndex Graph::local_index_of(ProcessId p, ProcessId q) const {
  SSS_REQUIRE(p >= 0 && p < num_vertices(), "process id out of range");
  // Linear scan: port lists need not be sorted (from_ports), and degrees
  // in this library are small.
  const auto nbrs = neighbors(p);
  const auto it = std::find(nbrs.begin(), nbrs.end(), q);
  if (it == nbrs.end()) return 0;
  return static_cast<NbrIndex>(it - nbrs.begin()) + 1;
}

NbrIndex Graph::mirror_index(ProcessId p, NbrIndex channel) const {
  SSS_REQUIRE(p >= 0 && p < num_vertices(), "process id out of range");
  const std::int32_t begin = offsets_[static_cast<std::size_t>(p)];
  const std::int32_t deg = offsets_[static_cast<std::size_t>(p) + 1] - begin;
  SSS_REQUIRE(channel >= 1 && channel <= deg,
              "local channel index out of range");
  return mirror_index_[static_cast<std::size_t>(begin + channel - 1)];
}

bool Graph::has_edge(ProcessId p, ProcessId q) const {
  if (p == q) return false;
  return local_index_of(p, q) != 0;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges_));
  for (ProcessId p = 0; p < num_vertices(); ++p) {
    for (ProcessId q : neighbors(p)) {
      if (p < q) out.emplace_back(p, q);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sss
