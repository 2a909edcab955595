/// E13 — churn service-level objectives for every registry protocol.
///
/// The paper proves its protocols silent and self-stabilizing; this bench
/// measures what that buys operationally: run each registry protocol to
/// silence, then keep it under *continuous* disruption (state corruption,
/// node resets, and in the periodic cells live topology churn) for a
/// measured window and report service metrics — availability (fraction of
/// window steps spent in a legitimate configuration), the recovery-round
/// distribution (p50/p90/p99), and the read overhead per disruption
/// versus the idle read rate of the silent baseline.
///
/// The grid is examples/manifests/churn_slo.json: every base registry
/// protocols x {central-rr, distributed} x two churn schedules (a
/// Bernoulli corruption/reset mix and a deterministic period with
/// topology churn), expanded by the shared plan builder — the same plan
/// `sss_lab run` executes. Results are seed-deterministic and
/// thread-count invariant (see runtime/churn.hpp). Emits
/// BENCH_churn_slo.json through the batch sink; "availability" gates
/// higher-is-better and "recovery_rounds_p*" lower-is-better in
/// tools/bench_diff.py.
///
/// A same-run cell then times the whole plan twice more, serially: with
/// each problem's opaque predicate (the churn window calls it after every
/// step that fired) and with its local form (the default binding, which
/// the window follows through a LegitimacyTracker). Identical ChurnStats
/// are required; the ratio is the "speedup" of the "churn-legitimacy"
/// record.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/plan.hpp"
#include "analysis/sink.hpp"
#include "core/protocol_registry.hpp"
#include "bench_common.hpp"
#include "support/require.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace sss;
  using namespace sss::bench;

  print_banner("E13: churn SLOs (availability under continuous faults)");
  print_note("every trial stabilizes, then runs a measured window under");
  print_note("continuous disruption; availability = legitimate steps /");
  print_note("window steps; recovery rounds = disruption -> certified");
  print_note("silence, pooled over the item's trials.");

  const ExperimentPlan plan = plan_from_manifest_file(
      std::string(SSS_MANIFEST_DIR) + "/churn_slo.json");
  BenchJsonSink json("churn_slo");
  const BatchResult result =
      run_batch_to_sinks(plan.items, BatchOptions{}, {&json});

  TextTable table({"protocol", "daemon", "schedule", "runs", "disrupt",
                   "topo", "recov", "avail", "p50", "p99", "reads/disr"});
  std::set<std::string> protocols_seen;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const BatchItem& item = plan.items[i];
    const ChurnSweepSummary& c = result.churn_summaries[i];
    SSS_REQUIRE(item.churn_enabled, item.label + ": expected a churn sweep");
    protocols_seen.insert(item.protocol->name());
    const std::string schedule =
        item.churn.period > 0
            ? "period=" + std::to_string(item.churn.period)
            : "p=" + std::to_string(item.churn.event_probability);
    table.row()
        .add(item.protocol->name())
        .add(join(item.daemons, ","))
        .add(schedule)
        .add(c.runs)
        .add(static_cast<std::int64_t>(c.disruptions))
        .add(static_cast<std::int64_t>(c.topology_events))
        .add(static_cast<std::int64_t>(c.recoveries))
        .add(c.availability_mean, 3)
        .add(c.recovery_rounds_p50, 1)
        .add(c.recovery_rounds_p99, 1)
        .add(c.reads_per_disruption, 1);
    // The SLO claim: every cell saw real disruptions and recovered from
    // at least some of them. (A cell that never recovers would report
    // availability ~= 0 and recoveries == 0 — fail loudly instead.)
    SSS_REQUIRE(c.initial_silent_runs == c.runs,
                item.label + ": a trial failed to stabilize before churn");
    SSS_REQUIRE(c.disruptions > 0,
                item.label + ": churn window saw no disruptions");
    SSS_REQUIRE(c.recoveries > 0,
                item.label + ": no disruption was ever recovered from");
    SSS_REQUIRE(c.availability_mean > 0.0,
                item.label + ": availability collapsed to zero");
  }
  std::printf("%s\n", table.str().c_str());
  SSS_REQUIRE(protocols_seen.size() ==
                  ProtocolRegistry::instance().protocol_names().size(),
              "churn_slo manifest must cover every registry protocol");
  print_note("claim check: every registry protocol stabilized, was "
             "disrupted, and recovered in every cell.");

  // Best of alternating repeats: one pass takes a few tens of
  // milliseconds, so single passes swing with the host.
  const int repeats = 5;
  auto timed_pass = [&](bool opaque, std::vector<ChurnStats>& stats) {
    std::vector<BatchItem> items = plan.items;
    if (opaque) {
      // A caller predicate keeps run_batch from binding the local form.
      for (BatchItem& item : items) {
        SSS_REQUIRE(item.problem != nullptr,
                    item.label + ": expected a problem-bound item");
        item.run.legitimacy = item.problem->predicate();
      }
    }
    BatchOptions options;
    options.threads = 1;
    stats.clear();
    options.on_trial = [&stats](const BatchTrialRow& row) {
      stats.push_back(row.churn_stats);
    };
    const auto begin = std::chrono::steady_clock::now();
    run_batch(items, options);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin)
        .count();
  };
  double opaque_s = 1e300;
  double local_s = 1e300;
  std::vector<ChurnStats> opaque_stats;
  std::vector<ChurnStats> local_stats;
  for (int r = 0; r < repeats; ++r) {
    opaque_s = std::min(opaque_s, timed_pass(true, opaque_stats));
    local_s = std::min(local_s, timed_pass(false, local_stats));
    SSS_REQUIRE(opaque_stats == local_stats,
                "local legitimacy tracking changed the churn statistics");
  }
  const double speedup = opaque_s / local_s;
  char note[160];
  std::snprintf(note, sizeof(note),
                "churn legitimacy: opaque predicate %.2f ms, local form "
                "%.2f ms per plan pass, speedup %.2fx (identical ChurnStats)",
                opaque_s * 1e3, local_s * 1e3, speedup);
  print_note(note);
  // The sink has written its records already; rewrite the file with them
  // plus this one.
  BenchJsonWriter records = json.writer();
  records.record()
      .field("graph", "ALL")
      .field("daemon", "ALL")
      .field("regime", "churn-legitimacy")
      .field("trials", static_cast<std::int64_t>(local_stats.size()))
      .field("opaque_ms", opaque_s * 1e3)
      .field("local_ms", local_s * 1e3)
      .field("speedup", speedup);
  records.write();
  std::fflush(stdout);
  return 0;
}
