#pragma once
/// \file report.hpp
/// Console formatting shared by bench binaries and examples.

#include <string>

namespace sss {

/// "==== title ====" banner sized to the title.
void print_banner(const std::string& title);

/// Indented context line ("  note ...").
void print_note(const std::string& note);

}  // namespace sss
