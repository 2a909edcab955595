#include "runtime/quiescence.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

int solo_margin(const Protocol& protocol, const QuiescenceOptions& options) {
  const int margin =
      std::max(options.margin, protocol.solo_quiescence_margin());
  SSS_REQUIRE(margin >= 1, "margin must be positive");
  return margin;
}

bool solo_would_write_comm(const Graph& g, const Protocol& protocol,
                           Configuration& config, ProcessId p,
                           ProcessStep& scratch, std::vector<Value>& saved_row,
                           int budget) {
  const int num_comm = protocol.spec().num_comm();
  const int num_internal = protocol.spec().num_internal();
  saved_row.clear();
  for (int v = 0; v < num_comm; ++v) saved_row.push_back(config.comm(p, v));
  for (int v = 0; v < num_internal; ++v) {
    saved_row.push_back(config.internal_var(p, v));
  }
  Rng scratch_rng(kSoloScratchSeed);
  bool active = false;
  for (int i = 0; i < budget; ++i) {
    evaluate_process_into(g, protocol, config, p, scratch_rng, nullptr,
                          scratch);
    if (scratch.action == Protocol::kDisabled) break;  // stable forever
    if (scratch.comm_write_attempted) {
      active = true;
      break;
    }
    commit_writes(config, p, scratch.writes);
  }
  for (int v = 0; v < num_comm; ++v) {
    config.set_comm(p, v, saved_row[static_cast<std::size_t>(v)]);
  }
  for (int v = 0; v < num_internal; ++v) {
    config.set_internal(p, v,
                        saved_row[static_cast<std::size_t>(num_comm + v)]);
  }
  return active;
}

bool is_comm_quiescent(const Graph& g, const Protocol& protocol,
                       const Configuration& config,
                       const QuiescenceOptions& options) {
  // Freezing all communication variables decouples the processes, so each
  // one is probed solo; one scratch copy serves every probe because the
  // probe restores the rows it touches.
  Configuration scratch_config = config;
  ProcessStep scratch;
  std::vector<Value> saved_row;
  const int margin = solo_margin(protocol, options);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (solo_would_write_comm(g, protocol, scratch_config, p, scratch,
                              saved_row, g.degree(p) + margin)) {
      return false;
    }
  }
  return true;
}

}  // namespace sss
