#pragma once
/// \file batch.hpp
/// Sharded multi-graph batch runner: one process, one thread pool, a whole
/// experiment plan (many graphs x daemons x seeds).
///
/// `BatchItem` is the one description of a sweep — a protocol on a graph
/// across daemons x seeds — from manifest (analysis/plan.hpp) to engine,
/// and its member initializers are the one copy of the sweep defaults.
/// `validate_batch_item` is the one check of which items can run; the
/// plan expander, the engine overrides and `run_batch` all call it.
///
/// `run_batch` is the one trial runner: a single (graph, protocol) sweep
/// is the one-item plan, and a menagerie is one plan rather than a loop
/// of sweeps, so the plan pays one thread-pool spin-up and a slow graph
/// cannot serialize everything behind it:
///
///  * every item is a (graph, protocol[, problem]) triple plus the sweep
///    shape to run on it — the graph/protocol immutables are shared by
///    reference across all of the item's engines (engines only ever read
///    them), so a thousand trials on one topology cost one CSR slab;
///  * trials are grouped into *shards*, one per item, so a shard's
///    engines revisit the same graph memory, and executed by a pool of
///    workers with per-shard work stealing: a worker drains its own shard
///    first, then pulls from the next shard cyclically, so one slow graph
///    cannot starve the rest of the plan;
///  * results are bit-identical at every thread count: a trial's
///    engine seed derives from its index within its item alone
///    (base_seed + 1 + index, the sequence the original serial loop
///    produced), and per-item reduction happens in trial-index order
///    after all workers join. Scheduling can reorder execution, never
///    results.
///
/// `BatchStore` is the companion slab for callers that build their plan's
/// graphs/protocols/problems on the fly: pointer-stable ownership so
/// `BatchItem`s can hold plain references into it.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/problems.hpp"
#include "runtime/churn.hpp"
#include "runtime/engine.hpp"
#include "support/stats.hpp"

namespace sss {

/// One sweep unit of a batch plan. Pointers are non-owning and must
/// outlive `run_batch`; `problem` may be null. The initializers are the
/// sweep defaults a manifest falls back to.
struct BatchItem {
  std::string label;
  const Graph* graph = nullptr;
  const Protocol* protocol = nullptr;
  const Problem* problem = nullptr;
  std::vector<std::string> daemons = {"distributed", "central-rr",
                                      "synchronous"};
  int seeds_per_daemon = 5;
  RunOptions run;
  std::uint64_t base_seed = 42;
  /// Extra engine.step() calls after run() completes, before the trial's
  /// read maxima are sampled — the post-silence window the communication-
  /// complexity measurements need (guards keep being evaluated after
  /// stabilization).
  int extra_steps = 0;
  /// Forwarded to Engine::set_exclude_frozen for every trial (opt-in
  /// verified-self-loop exclusion; see engine.hpp).
  bool exclude_frozen = false;
  /// Forwarded to Engine::set_parallel_threads for every trial: intra-trial
  /// worker threads (engine invariant 7 — bit-identical to single-threaded
  /// at any count, so trajectories and metrics never depend on it). Churn
  /// mode requires 1; ChurnRunner owns its engines and is not plumbed.
  int parallel_threads = 1;
  /// Forwarded to Engine::set_sweep_mode for every trial (and to
  /// ChurnOptions::sweep_mode in churn mode): auto / force_scalar for the
  /// bulk sweep and bulk execute halves (engine invariants 5 and 6). Mode
  /// changes cost only, never results.
  SweepMode sweep_mode = SweepMode::kAuto;

  /// Churn-window mode (runtime/churn.hpp): each trial stabilizes first
  /// (that phase fills the trial's RunStats), then runs a measured window
  /// under the item's churn schedule; the resulting ChurnStats ride along
  /// on the trial rows and reduce into BatchResult::churn_summaries. The
  /// per-trial churn stream is derived from `churn.seed` and the trial's
  /// engine seed, so churn results share the batch runner's
  /// thread-count invariance. `extra_steps` must be 0 in churn mode.
  bool churn_enabled = false;
  ChurnOptions churn;
  /// Topology churn (churn.topology_weight > 0) must rebuild the protocol
  /// per topology; required then, optional otherwise (when present, churn
  /// trials always use the owning-mode runner).
  ProtocolFactory protocol_factory;
};

/// Throws PreconditionError unless the sweep-shape ranges of `item` hold:
/// at least one daemon and one seed, non-negative extra_steps, and
/// parallel_threads in [1, 1024]. These need no graph or protocol, so the
/// plan expander checks a sweep's prototype with them before it builds
/// any graph.
void validate_item_ranges(const BatchItem& item);

/// Throws PreconditionError unless `item` can run: a graph and a
/// protocol, the ranges of validate_item_ranges, and — in churn mode — no
/// extra_steps, one engine thread, a protocol_factory for topology churn,
/// and churn options that pass validate_churn_options.
void validate_batch_item(const BatchItem& item);

/// Convergence and communication metrics of one item, reduced over its
/// trials in trial order.
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

/// Reduction shared by `run_batch` and anyone aggregating raw trial stats:
/// folds `count` RunStats (in order) into a SweepSummary.
SweepSummary summarize_runs(const RunStats* stats, int count);

/// One finished trial, as handed to the streaming callback: the trial's
/// plan coordinates plus its raw stats. Everything identifying is carried
/// in the row itself so a sink can emit it without consulting the plan,
/// and `(item, trial)` is a total order — streamed output is
/// sortable-deterministic no matter which worker finished first.
struct BatchTrialRow {
  int item = 0;   ///< index into the plan's item vector
  int trial = 0;  ///< trial index within the item (daemon-major, seed-minor)
  std::string label;     ///< BatchItem::label
  std::string graph;     ///< Graph::name()
  std::string protocol;  ///< Protocol::name()
  std::string daemon;    ///< daemon name of this trial
  std::uint64_t engine_seed = 0;  ///< exact seed the trial's engine used
  /// Stabilization-phase stats (churn trials) or the whole run (others).
  RunStats stats;
  /// Whether this trial ran a churn window (churn_stats is meaningful).
  bool churn = false;
  ChurnStats churn_stats;
};

struct BatchOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = run inline.
  int threads = 0;
  /// Streaming hook: called once per trial as it finishes, so results
  /// reach a sink (file, pipe, live dashboard) incrementally instead of
  /// only after the whole plan completes. Calls are serialized by the
  /// runner (no sink-side locking needed) but arrive in completion order
  /// — sort by (item, trial) for a canonical stream. The in-order
  /// reduction into summaries is unaffected; note the runner itself still
  /// holds one RunStats per trial for that reduction (medians/percentiles
  /// need every sample), so this hook changes when results leave the
  /// process, not the runner's own footprint.
  std::function<void(const BatchTrialRow&)> on_trial;
  /// Resume hook: trials for which this returns true are neither executed
  /// nor streamed — the serve layer passes the completed-(item, trial)
  /// set recovered from a durable stream, so a resumed batch produces
  /// exactly the missing rows. Because a trial's engine seed derives from
  /// its index alone (never from which trials ran), the remaining rows
  /// are byte-identical to the same rows of an uninterrupted run.
  /// Summaries reduce over executed trials only. Called once per trial
  /// before it is scheduled; must be thread-safe and pure.
  std::function<bool(int item, int trial)> skip_trial;
  /// Cooperative cancellation: polled between trials (never mid-trial).
  /// Once it returns true, no new trial starts; already-finished trials
  /// have streamed normally, so a cancelled run's durable output is a
  /// resumable set of whole rows. Must be thread-safe.
  std::function<bool()> cancelled;
};

struct BatchResult {
  /// One summary per item, in item order, reduced over executed trials
  /// (= all trials unless skip_trial/cancelled intervened).
  std::vector<SweepSummary> summaries;
  /// One churn summary per item, in item order; all-zero for items that
  /// did not run churn windows.
  std::vector<ChurnSweepSummary> churn_summaries;
  /// Trials actually executed this call (excludes skipped and
  /// cancelled-away trials).
  int total_trials = 0;
  /// Trials the plan contained (executed + skipped + cancelled-away).
  int planned_trials = 0;
  /// Trials skip_trial excluded.
  int skipped_trials = 0;
  /// True when `cancelled` stopped the run before every non-skipped trial
  /// executed.
  bool cancelled = false;
};

/// Runs every trial of every item and reduces per item. See the file
/// comment for the determinism and scheduling contract.
BatchResult run_batch(const std::vector<BatchItem>& items,
                      const BatchOptions& options);

/// Pointer-stable storage for plan inputs built on the fly. Everything
/// added lives until the store is destroyed, so batch items can reference
/// it without ownership gymnastics.
class BatchStore {
 public:
  const Graph& add(Graph g) {
    graphs_.push_back(std::move(g));
    return graphs_.back();
  }
  const Protocol& add(std::unique_ptr<Protocol> protocol) {
    protocols_.push_back(std::move(protocol));
    return *protocols_.back();
  }
  const Problem& add(std::unique_ptr<Problem> problem) {
    problems_.push_back(std::move(problem));
    return *problems_.back();
  }

  /// Constructs a protocol in place and returns a reference to it.
  template <typename P, typename... Args>
  const P& emplace_protocol(Args&&... args) {
    protocols_.push_back(std::make_unique<P>(std::forward<Args>(args)...));
    return static_cast<const P&>(*protocols_.back());
  }

 private:
  std::deque<Graph> graphs_;  // deque: growth never moves stored graphs
  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::vector<std::unique_ptr<Problem>> problems_;
};

}  // namespace sss
