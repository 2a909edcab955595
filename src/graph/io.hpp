#pragma once
/// \file io.hpp
/// Graph serialization: Graphviz DOT for inspection.

#include <optional>
#include <string>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"

namespace sss {

/// Renders the graph as Graphviz DOT. If `colors` is provided, vertices are
/// labelled "id:color" and given a fill color from a small palette.
std::string to_dot(const Graph& g,
                   const std::optional<Coloring>& colors = std::nullopt);

}  // namespace sss
