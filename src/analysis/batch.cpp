#include "analysis/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "support/require.hpp"

namespace sss {

namespace {

/// A trial's coordinates in the plan; the global trial list is the plan
/// flattened item by item.
struct TrialRef {
  int item = 0;
  int index_in_item = 0;
};

/// Messages are built only on failure; the label names the item in a
/// manifest that expands to many.
std::string item_error(const BatchItem& item, const char* what) {
  return "batch item \"" + item.label + "\": " + what;
}

}  // namespace

void validate_item_ranges(const BatchItem& item) {
  SSS_REQUIRE(!item.daemons.empty() && item.seeds_per_daemon >= 1,
              item_error(item, "needs at least one daemon and one seed"));
  SSS_REQUIRE(item.extra_steps >= 0,
              item_error(item, "extra_steps cannot be negative"));
  SSS_REQUIRE(item.parallel_threads >= 1 && item.parallel_threads <= 1024,
              item_error(item, "parallel_threads must be in [1, 1024]"));
}

void validate_batch_item(const BatchItem& item) {
  SSS_REQUIRE(item.graph != nullptr && item.protocol != nullptr,
              item_error(item, "needs a graph and a protocol"));
  validate_item_ranges(item);
  if (item.churn_enabled) {
    SSS_REQUIRE(
        item.extra_steps == 0,
        item_error(item, "extra_steps and churn windows cannot be combined"));
    SSS_REQUIRE(item.parallel_threads == 1,
                item_error(item,
                           "churn mode runs single-threaded engines; "
                           "parallel_threads must be 1"));
    SSS_REQUIRE(item.churn.topology_weight == 0 || item.protocol_factory,
                item_error(item, "topology churn needs a protocol_factory"));
    validate_churn_options(item.churn);
  }
}

SweepSummary summarize_runs(const RunStats* stats, int count) {
  SweepSummary summary;
  std::vector<double> rounds_to_silence;
  std::vector<double> steps_to_silence;
  std::vector<double> rounds_to_legitimate;
  double total_reads = 0.0;
  double total_bits = 0.0;
  for (int i = 0; i < count; ++i) {
    const RunStats& run = stats[i];
    ++summary.runs;
    if (run.silent) {
      ++summary.silent_runs;
      rounds_to_silence.push_back(static_cast<double>(run.rounds_to_silence));
      steps_to_silence.push_back(static_cast<double>(run.steps_to_silence));
      summary.max_rounds_to_silence =
          std::max(summary.max_rounds_to_silence, run.rounds_to_silence);
      summary.max_steps_to_silence =
          std::max(summary.max_steps_to_silence, run.steps_to_silence);
    }
    if (run.reached_legitimate) {
      ++summary.legitimate_runs;
      rounds_to_legitimate.push_back(
          static_cast<double>(run.rounds_to_legitimate));
    }
    summary.k_measured =
        std::max(summary.k_measured, run.max_reads_per_process_step);
    summary.bits_measured =
        std::max(summary.bits_measured, run.max_bits_per_process_step);
    total_reads += static_cast<double>(run.total_reads);
    total_bits += static_cast<double>(run.total_read_bits);
  }
  summary.rounds_to_silence = summarize(std::move(rounds_to_silence));
  summary.steps_to_silence = summarize(std::move(steps_to_silence));
  summary.rounds_to_legitimate = summarize(std::move(rounds_to_legitimate));
  if (summary.runs > 0) {
    summary.mean_total_reads = total_reads / summary.runs;
    summary.mean_total_bits = total_bits / summary.runs;
  }
  return summary;
}

BatchResult run_batch(const std::vector<BatchItem>& items,
                      const BatchOptions& options) {
  SSS_REQUIRE(!items.empty(), "batch needs at least one item");
  SSS_REQUIRE(options.threads >= 0, "thread count cannot be negative");
  for (const BatchItem& item : items) validate_batch_item(item);

  // Per-item effective run options: a problem supplies the legitimacy
  // predicate and its local form unless the caller already set a
  // predicate — an opaque caller predicate keeps the per-step full check.
  std::vector<RunOptions> runs;
  runs.reserve(items.size());
  for (const BatchItem& item : items) {
    RunOptions run = item.run;
    if (item.problem != nullptr && !run.legitimacy) {
      run.legitimacy = item.problem->predicate();
      run.local_legitimacy = item.problem->local_form();
    }
    runs.push_back(std::move(run));
  }

  // Flatten the plan. trials[g] for g in [item_offset[i], item_offset[i+1])
  // are item i's trials in (daemon-major, seed-minor) order — the order the
  // original serial sweep produced and the order reduction consumes.
  std::vector<TrialRef> trials;
  std::vector<int> item_offset(items.size() + 1, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int per_item = static_cast<int>(items[i].daemons.size()) *
                         items[i].seeds_per_daemon;
    item_offset[i] = static_cast<int>(trials.size());
    for (int j = 0; j < per_item; ++j) {
      trials.push_back({static_cast<int>(i), j});
    }
  }
  item_offset[items.size()] = static_cast<int>(trials.size());
  const int total = static_cast<int>(trials.size());

  std::vector<RunStats> results(static_cast<std::size_t>(total));
  std::vector<ChurnStats> churn_results(static_cast<std::size_t>(total));
  // Which trials actually ran: skip_trial excludes resumed-over trials up
  // front, cancellation stops scheduling new ones. Each slot is written
  // by exactly one worker before the join, read only after it.
  std::vector<char> executed(static_cast<std::size_t>(total), 0);
  const auto skip = [&](int global) {
    const TrialRef ref = trials[static_cast<std::size_t>(global)];
    return options.skip_trial &&
           options.skip_trial(ref.item, ref.index_in_item);
  };
  const auto cancel_requested = [&] {
    return options.cancelled && options.cancelled();
  };
  // The streaming hook may be called from any worker; one mutex serializes
  // the calls so sinks never need their own locking. Rows arrive in
  // completion order — the (item, trial) indices they carry make the
  // stream canonically sortable.
  std::mutex stream_mutex;
  auto run_trial = [&](int global) {
    const TrialRef ref = trials[static_cast<std::size_t>(global)];
    const BatchItem& item = items[static_cast<std::size_t>(ref.item)];
    const std::string& daemon_name =
        item.daemons[static_cast<std::size_t>(ref.index_in_item) /
                     static_cast<std::size_t>(item.seeds_per_daemon)];
    const std::uint64_t engine_seed =
        item.base_seed + 1 + static_cast<std::uint64_t>(ref.index_in_item);
    RunStats stats;
    if (item.churn_enabled) {
      // Per-trial churn stream: derived from the item's churn seed and the
      // trial's engine seed alone, so churn windows inherit the batch
      // runner's thread-count invariance.
      ChurnOptions churn = item.churn;
      std::uint64_t seed_state =
          churn.seed ^ (0x9e3779b97f4a7c15ULL * (engine_seed + 1));
      churn.seed = splitmix64(seed_state);
      churn.exclude_frozen = item.exclude_frozen;
      churn.sweep_mode = item.sweep_mode;
      const RunOptions& run = runs[static_cast<std::size_t>(ref.item)];
      auto drive = [&](auto& runner) {
        stats = runner.stabilize();
        runner.run_window();
        churn_results[static_cast<std::size_t>(global)] = runner.stats();
      };
      if (item.protocol_factory) {
        ChurnRunner<Engine> runner(*item.graph, item.protocol_factory,
                                   daemon_name, engine_seed, churn,
                                   run.legitimacy, run.local_legitimacy);
        drive(runner);
      } else {
        ChurnRunner<Engine> runner(*item.graph, *item.protocol, daemon_name,
                                   engine_seed, churn, run.legitimacy,
                                   run.local_legitimacy);
        drive(runner);
      }
    } else {
      Engine engine(*item.graph, *item.protocol, make_daemon(daemon_name),
                    engine_seed);
      engine.set_exclude_frozen(item.exclude_frozen);
      engine.set_parallel_threads(item.parallel_threads);
      engine.set_sweep_mode(item.sweep_mode);
      engine.randomize_state();
      stats = engine.run(runs[static_cast<std::size_t>(ref.item)]);
      if (item.extra_steps > 0) {
        for (int e = 0; e < item.extra_steps; ++e) engine.step();
        stats.max_reads_per_process_step =
            engine.read_counter().max_reads_per_process_step();
        stats.max_bits_per_process_step =
            engine.read_counter().max_bits_per_process_step();
      }
    }
    results[static_cast<std::size_t>(global)] = stats;
    executed[static_cast<std::size_t>(global)] = 1;
    if (options.on_trial) {
      BatchTrialRow row;
      row.item = ref.item;
      row.trial = ref.index_in_item;
      row.label = item.label;
      row.graph = item.graph->name();
      row.protocol = item.protocol->name();
      row.daemon = daemon_name;
      row.engine_seed = engine_seed;
      row.stats = stats;
      row.churn = item.churn_enabled;
      if (item.churn_enabled) {
        row.churn_stats = churn_results[static_cast<std::size_t>(global)];
      }
      const std::lock_guard<std::mutex> lock(stream_mutex);
      options.on_trial(row);
    }
  };

  int threads = options.threads != 0
                    ? options.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::clamp(threads, 1, total);

  if (threads == 1) {
    for (int g = 0; g < total; ++g) {
      if (skip(g)) continue;
      if (cancel_requested()) break;
      run_trial(g);
    }
  } else {
    // One shard per item — the item's trials, contiguous in the flat
    // plan — so every engine a shard schedules shares its predecessors'
    // graph/protocol slabs (warm caches). Per-shard cursors; claiming a
    // trial is one fetch_add, stealing is claiming from someone else's
    // shard after your own runs dry, so no shard becomes a serialization
    // unit.
    const int shards = static_cast<int>(items.size());
    std::vector<std::atomic<int>> cursors(items.size());
    for (auto& cursor : cursors) cursor.store(0, std::memory_order_relaxed);
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&](int id) {
      for (int probe = 0; probe < shards; ++probe) {
        const std::size_t s = static_cast<std::size_t>((id + probe) % shards);
        for (;;) {
          const int g = item_offset[s] +
                        cursors[s].fetch_add(1, std::memory_order_relaxed);
          if (g >= item_offset[s + 1]) break;
          if (skip(g)) continue;
          // Cancellation is per-trial, never mid-trial: claimed trials
          // run to completion and stream whole rows.
          if (cancel_requested()) return;
          try {
            run_trial(g);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  // Reduction in item order, each item over its *executed* trials in
  // trial-index order: bitwise identical for every thread count, and —
  // absent skip/cancel hooks — identical to reducing all trials.
  BatchResult out;
  out.planned_trials = total;
  out.summaries.reserve(items.size());
  out.churn_summaries.reserve(items.size());
  std::vector<RunStats> item_stats;
  std::vector<ChurnStats> item_churn;
  for (std::size_t i = 0; i < items.size(); ++i) {
    item_stats.clear();
    item_churn.clear();
    for (int g = item_offset[i]; g < item_offset[i + 1]; ++g) {
      if (!executed[static_cast<std::size_t>(g)]) continue;
      item_stats.push_back(results[static_cast<std::size_t>(g)]);
      item_churn.push_back(churn_results[static_cast<std::size_t>(g)]);
    }
    out.summaries.push_back(summarize_runs(
        item_stats.data(), static_cast<int>(item_stats.size())));
    out.churn_summaries.push_back(
        items[i].churn_enabled
            ? summarize_churn(item_churn.data(),
                              static_cast<int>(item_churn.size()))
            : ChurnSweepSummary{});
  }
  for (int g = 0; g < total; ++g) {
    if (executed[static_cast<std::size_t>(g)]) {
      ++out.total_trials;
    } else if (skip(g)) {
      ++out.skipped_trials;
    }
  }
  out.cancelled = out.total_trials + out.skipped_trials < total;
  return out;
}

}  // namespace sss
