#pragma once
/// \file bounds.hpp
/// Every closed-form bound the paper states, as checked formulas. Benches
/// print these next to measured values; tests assert the measured side.

#include <cstdint>

#include "support/bits.hpp"

namespace sss {

/// Figure 7: the palette {1..Delta+1} is the minimum that colors every
/// graph of maximum degree Delta (a (Delta+1)-clique needs them all).
int coloring_palette_size(int max_degree);

/// Lemma 4: Protocol MIS reaches a silent configuration within
/// Delta * #C rounds, #C the number of distinct colors in use.
std::int64_t mis_round_bound(int max_degree, int num_colors);

/// Lemma 9: Protocol MATCHING reaches a silent configuration within
/// (Delta + 1) * n + 2 rounds.
std::int64_t matching_round_bound(int n, int max_degree);

/// Protocol SPANNING-FOREST (arXiv:1805.02401) reaches a silent
/// configuration within (Delta + 1) * n + 2 rounds, in the Lemma 9 style,
/// regardless of the number of roots; with one root it is the bound of
/// Protocol BFS-TREE (arXiv:1509.03815). The distance cap n-1 flushes
/// fake parent chains within n rounds (their minimum claimed distance
/// rises every round), and the round-robin cur pointer re-examines a full
/// neighborhood every Delta rounds, so each of the at most n-1 true
/// layers of the multi-source BFS settles within Delta rounds of the
/// previous one; more roots only shrink the layer count. Asserted across
/// the daemon x menagerie grid in tests/test_spanning_forest.cpp and, for
/// the `bfs-tree` registry entries, tests/test_bfs_tree_protocol.cpp.
std::int64_t spanning_forest_round_bound(int n, int max_degree);

/// Same treatment for communication-efficient LEADER-ELECTION
/// (arXiv:2008.04252): electing the minimum identifier builds the BFS
/// tree of the winner after a reset wave clears inflated leader claims —
/// one extra n rounds on top of the tree bound, giving
/// (Delta + 2) * n + 2. Asserted in tests/test_leader_election_protocol.cpp.
std::int64_t leader_election_round_bound(int n, int max_degree);

/// Theorem 6: at least floor((Lmax+1)/2) processes become 1-stable under
/// Protocol MIS, where Lmax is the length of the longest elementary path.
std::int64_t mis_one_stable_lower_bound(int longest_path_len);

/// Biedl et al. [6]: every maximal matching has at least
/// ceil(m / (2*Delta - 1)) edges.
std::int64_t matching_size_lower_bound(int num_edges, int max_degree);

/// Theorem 8: at least 2 * ceil(m / (2*Delta - 1)) processes become
/// 1-stable under Protocol MATCHING.
std::int64_t matching_one_stable_lower_bound(int num_edges, int max_degree);

/// Section 3.2: bits read per step by Protocol COLORING — log2(Delta+1).
int coloring_comm_bits_efficient(int max_degree);

/// Section 3.2: bits read per step by a full-read coloring protocol —
/// delta.p * log2(Delta+1).
int coloring_comm_bits_full_read(int degree, int max_degree);

/// Section 3.2: space complexity of a COLORING process —
/// 2*log2(Delta+1) + log2(delta.p) bits.
int coloring_space_bits(int degree, int max_degree);

}  // namespace sss
