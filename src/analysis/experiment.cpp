#include "analysis/experiment.hpp"

namespace sss {

const std::vector<std::string>& default_sweep_daemons() {
  static const std::vector<std::string> kDaemons = {"distributed",
                                                    "central-rr",
                                                    "synchronous"};
  return kDaemons;
}

}  // namespace sss
