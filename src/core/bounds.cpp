#include "core/bounds.hpp"

#include "support/require.hpp"

namespace sss {

int coloring_palette_size(int max_degree) {
  SSS_REQUIRE(max_degree >= 1, "max degree must be positive");
  return max_degree + 1;
}

std::int64_t mis_round_bound(int max_degree, int num_colors) {
  SSS_REQUIRE(max_degree >= 1 && num_colors >= 1, "invalid parameters");
  return static_cast<std::int64_t>(max_degree) * num_colors;
}

std::int64_t matching_round_bound(int n, int max_degree) {
  SSS_REQUIRE(n >= 2 && max_degree >= 1, "invalid parameters");
  return (static_cast<std::int64_t>(max_degree) + 1) * n + 2;
}

std::int64_t spanning_forest_round_bound(int n, int max_degree) {
  SSS_REQUIRE(n >= 2 && max_degree >= 1, "invalid parameters");
  return (static_cast<std::int64_t>(max_degree) + 1) * n + 2;
}

std::int64_t leader_election_round_bound(int n, int max_degree) {
  SSS_REQUIRE(n >= 2 && max_degree >= 1, "invalid parameters");
  return (static_cast<std::int64_t>(max_degree) + 2) * n + 2;
}

std::int64_t mis_one_stable_lower_bound(int longest_path_len) {
  SSS_REQUIRE(longest_path_len >= 0, "invalid path length");
  return (static_cast<std::int64_t>(longest_path_len) + 1) / 2;
}

std::int64_t matching_size_lower_bound(int num_edges, int max_degree) {
  SSS_REQUIRE(num_edges >= 1 && max_degree >= 1, "invalid parameters");
  return ceil_div(num_edges, 2 * static_cast<std::int64_t>(max_degree) - 1);
}

std::int64_t matching_one_stable_lower_bound(int num_edges, int max_degree) {
  return 2 * matching_size_lower_bound(num_edges, max_degree);
}

int coloring_comm_bits_efficient(int max_degree) {
  return ceil_log2(max_degree + 1);
}

int coloring_comm_bits_full_read(int degree, int max_degree) {
  SSS_REQUIRE(degree >= 0, "invalid degree");
  return degree * ceil_log2(max_degree + 1);
}

int coloring_space_bits(int degree, int max_degree) {
  SSS_REQUIRE(degree >= 1, "invalid degree");
  return 2 * ceil_log2(max_degree + 1) + ceil_log2(degree);
}

}  // namespace sss
