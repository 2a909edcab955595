#pragma once
/// \file experiment.hpp
/// The sweep shape shared by the bench harness: a protocol on a graph
/// across daemons x seeds, and the convergence and communication metrics
/// aggregated over those trials. The batch runner (analysis/batch.hpp)
/// executes sweeps — `make_batch_item` turns SweepOptions into one plan
/// item, and `run_batch` reduces each item into a SweepSummary.
/// Everything is deterministic in (base_seed, daemons, seeds): every
/// (daemon, seed) trial owns a private Engine whose seed is derived from
/// its trial index alone, and aggregation happens in trial-index order
/// after all workers join, so the thread count can never leak into the
/// results.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "support/stats.hpp"

namespace sss {

/// Defaults shared by every sweep-shaped option struct (SweepOptions here,
/// BatchItem in analysis/batch.hpp), kept in one place so they cannot
/// drift apart.
const std::vector<std::string>& default_sweep_daemons();
inline constexpr int kDefaultSeedsPerDaemon = 5;
inline constexpr std::uint64_t kDefaultBaseSeed = 42;

struct SweepOptions {
  std::vector<std::string> daemons = default_sweep_daemons();
  int seeds_per_daemon = kDefaultSeedsPerDaemon;
  RunOptions run;
  std::uint64_t base_seed = kDefaultBaseSeed;
  /// Forwarded to Engine::set_exclude_frozen for every trial (opt-in
  /// verified-self-loop exclusion; see engine.hpp).
  bool exclude_frozen = false;
};

struct SweepSummary {
  int runs = 0;
  int silent_runs = 0;
  /// Runs whose trajectory reached the bound legitimacy predicate; stays
  /// 0 when the sweep carries no problem (RunOptions::legitimacy unset).
  int legitimate_runs = 0;
  std::uint64_t max_rounds_to_silence = 0;
  std::uint64_t max_steps_to_silence = 0;
  Summary rounds_to_silence;
  Summary steps_to_silence;
  Summary rounds_to_legitimate;
  /// Worst per-process per-step read count over all runs (measured k).
  int k_measured = 0;
  /// Worst per-process per-step bits over all runs.
  int bits_measured = 0;
  double mean_total_reads = 0.0;
  double mean_total_bits = 0.0;
};

}  // namespace sss
