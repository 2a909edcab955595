#include "analysis/report.hpp"

#include <cstdio>

namespace sss {

void print_banner(const std::string& title) {
  const std::string bar(title.size() + 10, '=');
  std::printf("\n%s\n==== %s ====\n%s\n", bar.c_str(), title.c_str(),
              bar.c_str());
}

void print_note(const std::string& note) {
  std::printf("  %s\n", note.c_str());
}

}  // namespace sss
