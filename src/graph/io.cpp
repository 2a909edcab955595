#include "graph/io.hpp"

#include <array>
#include <sstream>

namespace sss {

std::string to_dot(const Graph& g, const std::optional<Coloring>& colors) {
  static constexpr std::array<const char*, 8> kPalette = {
      "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
      "#cab2d6", "#ffff99", "#1f78b4", "#33a02c"};
  std::ostringstream out;
  out << "graph \"" << g.name() << "\" {\n";
  out << "  node [style=filled];\n";
  for (ProcessId v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (colors) {
      const int c = (*colors)[static_cast<std::size_t>(v)];
      out << " [label=\"" << v << ":" << c << "\" fillcolor=\""
          << kPalette[static_cast<std::size_t>(c) % kPalette.size()] << "\"]";
    }
    out << ";\n";
  }
  for (const auto& [a, b] : g.edges()) {
    out << "  " << a << " -- " << b << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace sss
