#pragma once
/// \file graph.hpp
/// The network topology substrate of the paper's model (Section 2).
///
/// A distributed system is an undirected connected graph G = (Pi, E); each
/// process distinguishes its neighbors only through *local channel indices*
/// numbered 1..delta.p. `Graph` is immutable after construction and exposes
/// exactly that local view, plus the global view needed by checkers and
/// experiment harnesses (which are outside the anonymous model).
///
/// Storage is a flat CSR (compressed sparse row) layout, sized once at
/// construction:
///  * `offsets_` — n+1 entries; the neighbors of p occupy the half-open
///    slot range [offsets_[p], offsets_[p+1]) and their order IS the
///    channel order (slot offsets_[p]+i holds the neighbor on channel i+1);
///  * `neighbors_` — 2m neighbor ids, one per directed edge slot;
///  * `mirror_index_` — 2m entries; for the slot holding edge (p -> q),
///    the 1-based channel under which q sees p. This makes the paper's
///    "PR.(cur.p) = p" evaluation (`GuardContext::self_index_at`) O(1)
///    instead of a scan of q's neighbor list.
/// All three arrays are contiguous, so the engine's hot loop walks
/// neighborhoods with zero pointer chasing and zero allocation.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/require.hpp"

namespace sss {

/// Global process identifier, 0-based. Protocol code never sees these;
/// they exist for the simulator, checkers, and reports.
using ProcessId = int;

/// 1-based local channel index, as in the paper ("numbered from 1 to
/// delta.p"). The value 0 is reserved to mean "no neighbor" (e.g. the free
/// state of the PR pointer in Protocol MATCHING).
using NbrIndex = int;

/// An undirected edge between two process ids.
using Edge = std::pair<ProcessId, ProcessId>;

/// Immutable undirected graph with per-process local channel numbering,
/// stored CSR-flat (see file comment).
///
/// With `from_edges`, neighbor lists are sorted by global id and the local
/// index of a neighbor is its 1-based position in that sorted list —
/// deterministic, which keeps every experiment reproducible. The model
/// itself, however, permits *arbitrary* port numberings (the paper's
/// impossibility proofs pick them adversarially: "there exists a possible
/// network where p4 is the neighbor i in the local order of p6"), so
/// `from_ports` accepts explicit per-vertex neighbor orders.
class Graph {
 public:
  /// Builds a graph on `num_vertices` vertices from an edge list.
  /// Requires: num_vertices >= 1; endpoints in range; no self-loops;
  /// duplicate edges are rejected.
  static Graph from_edges(int num_vertices, const std::vector<Edge>& edges);

  /// Builds a graph from explicit port lists: ports[p][i] is the neighbor
  /// of p on channel i+1. Requires a symmetric, loop-free, duplicate-free
  /// relation.
  static Graph from_ports(const std::vector<std::vector<ProcessId>>& ports);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return num_edges_; }

  /// delta.p — the number of neighbors of p.
  int degree(ProcessId p) const;

  /// Delta — the maximum degree over all processes.
  int max_degree() const { return max_degree_; }

  /// Minimum degree over all processes.
  int min_degree() const { return min_degree_; }

  /// The neighbor of `p` on local channel `index` (1-based).
  ProcessId neighbor(ProcessId p, NbrIndex index) const;

  /// The local index of `q` in `p`'s numbering, or 0 if not adjacent.
  NbrIndex local_index_of(ProcessId p, ProcessId q) const;

  /// Global ids of p's neighbors in channel order; position i holds
  /// channel i+1. A view into the CSR slab: valid as long as the graph.
  std::span<const ProcessId> neighbors(ProcessId p) const;

  /// The channel under which `neighbor(p, channel)` sees p. O(1): reads the
  /// precomputed mirror slot (local_index_of would scan the other list).
  NbrIndex mirror_index(ProcessId p, NbrIndex channel) const;

  /// Raw CSR slabs for bulk guard kernels (runtime/bulk.hpp), which walk
  /// whole neighborhoods in tight loops: `csr_offsets()[p]` is the first
  /// slot of p's neighbor range, `csr_neighbors()[slot]` the neighbor id
  /// in channel order, and `csr_mirrors()[slot]` the 1-based channel under
  /// which that neighbor sees p. Unlike the checked per-call accessors
  /// above these are plain spans — callers index within bounds.
  std::span<const std::int32_t> csr_offsets() const { return offsets_; }
  std::span<const ProcessId> csr_neighbors() const { return neighbors_; }
  std::span<const NbrIndex> csr_mirrors() const { return mirror_index_; }

  bool has_edge(ProcessId p, ProcessId q) const;

  /// All edges with first < second, sorted lexicographically.
  std::vector<Edge> edges() const;

  /// Human-readable name, settable by builders ("path(5)", "spider(3)", ...).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  Graph() = default;
  /// Flattens per-vertex neighbor lists into the CSR arrays and fills the
  /// degree summaries and mirror indices.
  void build_csr(const std::vector<std::vector<ProcessId>>& adjacency);

  int num_vertices_ = 0;
  int num_edges_ = 0;
  int max_degree_ = 0;
  int min_degree_ = 0;
  std::vector<std::int32_t> offsets_;   ///< n+1 slot offsets
  std::vector<ProcessId> neighbors_;    ///< 2m neighbor ids, channel order
  std::vector<NbrIndex> mirror_index_;  ///< 2m reverse channel numbers
  std::string name_ = "graph";
};

// The per-read accessors live here so every scalar neighbor read inlines
// them; the range checks stay on.
inline int Graph::degree(ProcessId p) const {
  SSS_REQUIRE(p >= 0 && p < num_vertices(), "process id out of range");
  return offsets_[static_cast<std::size_t>(p) + 1] -
         offsets_[static_cast<std::size_t>(p)];
}

inline ProcessId Graph::neighbor(ProcessId p, NbrIndex index) const {
  SSS_REQUIRE(p >= 0 && p < num_vertices(), "process id out of range");
  const std::int32_t begin = offsets_[static_cast<std::size_t>(p)];
  const std::int32_t deg = offsets_[static_cast<std::size_t>(p) + 1] - begin;
  SSS_REQUIRE(index >= 1 && index <= deg,
              "local channel index out of range");
  return neighbors_[static_cast<std::size_t>(begin + index - 1)];
}

inline std::span<const ProcessId> Graph::neighbors(ProcessId p) const {
  SSS_REQUIRE(p >= 0 && p < num_vertices(), "process id out of range");
  const std::int32_t begin = offsets_[static_cast<std::size_t>(p)];
  const std::int32_t end = offsets_[static_cast<std::size_t>(p) + 1];
  return {neighbors_.data() + begin, static_cast<std::size_t>(end - begin)};
}

}  // namespace sss
