/// lab_convergence: the paper's convergence and communication grid at
/// research scale — 4 families at n = 256 x 9 protocols (the generic-
/// efficiency composition included) x 4 daemons x 3 seeds, every sweep
/// bound to its problem, run as closed batches (1 batch worker, 1 engine
/// thread) streaming rows to a JSONL sink. A unit of work is one seed
/// replica's closed batch: replica r holds trial r of every (item,
/// daemon), so the three replicas are alike in work, and each starts with
/// BFS-TREE on the grid under central-rr.
///
/// Time goes to per-step legitimacy tracking and the scalar dirty-queue
/// engine path under central daemons; the bulk and parallel paths stay
/// idle. After each unit's batch its trials are replayed directly on an
/// Engine with no predicate bound: that gives silence_s and the
/// stabilized-window step latency, and cross-checks the batch's rows.
/// The traced run also steps each trial's stabilized window at 1 and 2
/// engine workers and under force_scalar (the parallel and bulk
/// ablations).

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/plan.hpp"
#include "analysis/sink.hpp"
#include "common.hpp"
#include "support/require.hpp"

namespace labbench {

namespace {

/// Set-ups timed per run, each on its own draw of the random graphs: the
/// random-regular generator's retries make one draw's set-up time vary
/// several-fold.
constexpr int kSetupRepeats = 15;
constexpr int kSeedsPerDaemon = 3;
constexpr int kReplayWindow = 64;
/// Graph::name() of the lab's grid family.
const std::string kGridName = "grid(16x16)";
/// Trials between moves of the measuring thread to the next CPU.
constexpr long kRotateEvery = 8;

/// The lab's graphs for draw `draw` of the workload seed: draw 0 is the
/// workload's own, the others only time the set-up over more draws of
/// the random families. A random family's seed is the first derived
/// candidate whose graph builds: random-regular(256,4) gives up after 200
/// pairing attempts on about one seed in a hundred.
std::vector<GraphSpec> lab_graphs(std::uint64_t seed, int draw) {
  const std::uint64_t stream =
      draw == 0 ? seed : derive(seed, 1000 + static_cast<std::uint64_t>(draw));
  auto random_family = [stream](int k, const std::string& family,
                                sss::ParamMap params) {
    for (std::uint64_t candidate = 0;; ++candidate) {
      params["seed"] = static_cast<int>(
          derive(stream, 10 + static_cast<std::uint64_t>(k) + 100 * candidate) %
              1'000'000 +
          1);
      GraphSpec spec{family, params};
      try {
        spec.build();
        return spec;
      } catch (const sss::PreconditionError&) {
        if (candidate >= 16) throw;
      }
    }
  };
  return {
      {"grid", {{"rows", 16}, {"cols", 16}}},
      random_family(1, "random-regular", {{"n", 256}, {"d", 4}}),
      random_family(2, "preferential-attachment", {{"n", 256}, {"m", 3}}),
      random_family(3, "random-geometric", {{"n", 256}, {"radius", 0.12}}),
  };
}

std::string lab_manifest(std::uint64_t seed,
                         const std::vector<GraphSpec>& graphs) {
  std::string graph_list = "[";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    graph_list += (i ? ", " : "") + graphs[i].json();
  }
  graph_list += "]";
  const std::string all = R"(["central-rr", "central-random", "distributed", "synchronous"])";
  auto sweep = [&](const std::string& protocols, const std::string& problem,
                   const std::string& daemons) {
    return "{\"graphs\": " + graph_list + ", \"protocols\": " + protocols +
           ", \"problem\": \"" + problem + "\", \"daemons\": " + daemons +
           "}";
  };
  std::ostringstream m;
  m << "{\"name\": \"lab_convergence\", \"defaults\": {\"seeds_per_daemon\": "
    << kSeedsPerDaemon
    << ", \"base_seed\": " << derive(seed, 1) % 1'000'000
    << ", \"max_steps\": 400000}, \"sweeps\": [\n"
    << sweep(R"([{"name": "bfs-tree"}, {"name": "full-read-bfs-tree"}])",
             "bfs-spanning-tree", all)
    << ",\n"
    << sweep(R"([{"name": "coloring"}])", "vertex-coloring", all) << ",\n"
    // Registered claim: no co-firing synchronous daemon.
    << sweep(R"([{"name": "full-read-coloring"}])", "vertex-coloring",
             R"(["central-rr", "central-random", "distributed"])")
    << ",\n"
    << sweep(R"([{"name": "mis"}, {"name": "full-read-mis"}, )"
             R"({"transform": "generic-efficiency", "inner": {"name": "mis"}}])",
             "maximal-independent-set", all)
    << ",\n"
    << sweep(R"([{"name": "matching"}])", "maximal-matching", all) << ",\n"
    << sweep(R"([{"name": "leader-election"}])", "leader-election", all)
    << "]}\n";
  return m.str();
}

/// Unit key of trial `trial` of item `item`.
std::uint64_t key_of(int item, int trial) {
  return (static_cast<std::uint64_t>(item) << 32) |
         static_cast<std::uint32_t>(trial);
}

/// What the units of one run measured.
struct LabSamples {
  UnitMeans trial_s;      ///< per trial: previous row (or unit start) to its row
  UnitMeans run_s;        ///< per replica: its batch, start to end
  UnitMeans first_row_s;  ///< per replica: start to its first row
  UnitMeans silence_s;    ///< per trial: bare-engine randomize + run
  UnitMeans step_s;       ///< per grid trial: median stabilized-window step
  std::vector<double> sink_s;  ///< JsonlSink::on_trial calls
  double batch_s = 0.0;        ///< every batch, start to end
  long rows = 0;
};

/// The first-seen row and RunStats of every (item, trial); every later
/// row of a trial must equal its first.
struct LabRows {
  std::map<std::pair<int, int>, std::string> json;
  std::map<std::pair<int, int>, sss::RunStats> stats;

  void check(const sss::BatchTrialRow& row, const char* what,
             std::vector<std::string>& errors) {
    const std::pair<int, int> key{row.item, row.trial};
    std::string text = sss::format_trial_row_jsonl(row);
    const auto [it, fresh] = json.try_emplace(key, text);
    if (fresh) {
      stats[key] = row.stats;
    } else if (it->second != text && errors.size() < 8) {
      errors.push_back(std::string(what) + " row " + std::to_string(row.item) +
                       ":" + std::to_string(row.trial) +
                       " differs from its first run");
    }
  }
  std::vector<std::string> sorted() const {
    std::vector<std::string> out;
    for (const auto& [key, text] : json) out.push_back(text);
    return out;  // map order = (item, trial) order
  }
};

/// Seed replica `replica` as one closed batch (1 worker, 1 engine
/// thread) streaming to `sink`; moves the thread to the next CPU every
/// kRotateEvery rows when given a rotation. Returns the batch's rows.
std::vector<sss::BatchTrialRow> run_replica(
    const std::vector<sss::BatchItem>& items, int replica,
    sss::JsonlSink& sink, LabSamples& samples, CpuRotation* rotation,
    Tracer& tracer, int parent) {
  const auto unit = static_cast<std::uint64_t>(replica);
  ScopedSpan span(tracer, "analysis.batch.run", parent,
                  "replica " + std::to_string(replica));
  std::vector<sss::BatchTrialRow> rows;
  sss::BatchOptions options;
  options.threads = 1;
  options.skip_trial = [replica](int, int trial) {
    return trial % kSeedsPerDaemon != replica;
  };
  const double start = now_s();
  double last = start;
  options.on_trial = [&](const sss::BatchTrialRow& row) {
    const double arrived = now_s();
    if (rows.empty()) samples.first_row_s.add(unit, arrived - start);
    samples.trial_s.add(key_of(row.item, row.trial), arrived - last);
    const std::string id =
        std::to_string(row.item) + ":" + std::to_string(row.trial);
    tracer.record("analysis.batch.trial", last, arrived, span.index(), id);
    sink.on_trial(row);
    const double written = now_s();
    samples.sink_s.push_back(written - arrived);
    tracer.record("analysis.sink.row", arrived, written, span.index(), id);
    rows.push_back(row);
    if (rotation != nullptr && rows.size() % kRotateEvery == 0) {
      rotation->next();
    }
    last = now_s();
  };
  sss::run_batch(items, options);
  const double took = now_s() - start;
  samples.run_s.add(unit, took);
  samples.batch_s += took;
  samples.rows += static_cast<long>(rows.size());
  return rows;
}

/// Replays trial `trial` of `item` directly on an Engine (see
/// run_engine_trial) and checks it against the batch's RunStats.
EngineTrial replay_trial(const sss::BatchItem& item, int item_index,
                         int trial, bool keep_silent, const LabRows& rows,
                         LabSamples* samples, EngineTotals& totals,
                         Tracer& tracer, int parent,
                         std::vector<std::string>& errors) {
  // Stabilized windows only on the grid, the one graph the seed does
  // not redraw: on the random families the costliest windows follow
  // each seed's degree structure, and step_p95 with them.
  const bool on_grid = item.graph->name() == kGridName;
  const double silence_before = totals.silence_s;
  EngineTrial replay = run_engine_trial(item, trial, on_grid ? kReplayWindow : 0,
                                        keep_silent, totals, tracer, parent);
  const std::pair<int, int> key{item_index, trial};
  if (samples != nullptr) {
    samples->silence_s.add(key_of(item_index, trial),
                           totals.silence_s - silence_before);
    if (on_grid) {
      samples->step_s.add(key_of(item_index, trial),
                          totals.window_step_s.back());
    }
  }
  const auto it = rows.stats.find(key);
  const std::string diff =
      it == rows.stats.end() ? "row missing"
                             : stats_mismatch(it->second, replay.stats);
  if ((!replay.quiescent || !diff.empty()) && errors.size() < 8) {
    errors.push_back("engine replay of " + item.label + "#" +
                     std::to_string(trial) +
                     (replay.quiescent ? ": " + diff : ": not quiescent"));
  }
  return replay;
}

}  // namespace

Outcome run_lab_convergence(const Options& options) {
  Outcome outcome;
  Tracer tracer(options.trace);
  Tracer untraced(false);
  const std::vector<GraphSpec> graphs = lab_graphs(options.seed, 0);
  const std::string sink_path = options.out_dir + "/lab_convergence.jsonl";
  Report& m = outcome.metrics;

  // Set-up: plan expansion (graph + protocol construction), once per
  // draw; draw 0's plan is the workload's.
  std::vector<std::string> manifests{lab_manifest(options.seed, graphs)};
  for (int draw = 1; draw < kSetupRepeats; ++draw) {
    manifests.push_back(lab_manifest(options.seed, lab_graphs(options.seed, draw)));
  }
  std::vector<double> setup_s;
  sss::ExperimentPlan plan;
  const int setup_root = tracer.open("setup");
  for (const std::string& manifest : manifests) {
    outcome.probe.sample();
    const double t0 = now_s();
    sss::ExperimentPlan expanded = sss::plan_from_manifest_text(manifest);
    const double t1 = now_s();
    setup_s.push_back(t1 - t0);
    tracer.record("analysis.plan.expand", t0, t1, setup_root);
    if (plan.items.empty()) plan = std::move(expanded);
  }
  tracer.close(setup_root);
  const int items = static_cast<int>(plan.items.size());

  // Measured phase (untraced): the replicas round and round until time
  // is up and each has run at least once. After its batch, each
  // replica's trials are replayed on a bare Engine with no predicate
  // bound (silence_s and the stabilized-window step), with the speed
  // probe sampled between replays, so every metric samples the whole
  // measured time.
  LabRows rows;
  LabSamples samples;
  EngineTotals replays;
  {
    std::ofstream out(sink_path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + sink_path);
    sss::JsonlSink sink(out);
    CpuRotation rotation;
    const double measure_start = now_s();
    for (int done = 0;
         done < kSeedsPerDaemon || now_s() - measure_start < options.seconds;
         ++done) {
      const int replica = done % kSeedsPerDaemon;
      for (const sss::BatchTrialRow& row :
           run_replica(plan.items, replica, sink, samples, &rotation,
                       untraced, -1)) {
        rows.check(row, "untraced", outcome.errors);
        ++outcome.attempted;
        if (!row.stats.silent || !row.stats.reached_legitimate) {
          ++outcome.failed;
        }
      }
      long replayed = 0;
      for (int i = 0; i < items; ++i) {
        const sss::BatchItem& item = plan.items[static_cast<std::size_t>(i)];
        const int trials =
            static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
        for (int t = replica; t < trials; t += kSeedsPerDaemon) {
          if (++replayed % kRotateEvery == 0) {
            rotation.next();
            outcome.probe.sample();
          }
          replay_trial(item, i, t, false, rows, &samples, replays, untraced,
                       -1, outcome.errors);
        }
      }
    }
    sink.finish();
    if (!out.flush()) throw std::runtime_error("short write to " + sink_path);
  }
  const std::vector<std::string> canonical = rows.sorted();
  outcome.digest = hex64(fnv1a(canonical));
  {
    // The durable sink holds every streamed row, each equal to its
    // trial's canonical row.
    const std::vector<std::string> file = read_lines(sink_path);
    bool same = static_cast<long>(file.size()) == samples.rows;
    for (std::size_t i = 0; same && i < file.size(); ++i) {
      const auto it = rows.json.find(row_key(file[i]));
      same = it != rows.json.end() && it->second == file[i];
    }
    if (!same) outcome.errors.push_back("JSONL sink file != streamed rows");
  }

  // 1 batch worker = 2 batch workers, on the first seed of every
  // (item, daemon).
  {
    std::vector<std::string> two_worker;
    sss::BatchOptions check;
    check.threads = 2;
    check.skip_trial = [](int, int trial) {
      return trial % kSeedsPerDaemon != 0;
    };
    check.on_trial = [&](const sss::BatchTrialRow& row) {
      two_worker.push_back(sss::format_trial_row_jsonl(row));
    };
    sss::run_batch(plan.items, check);
    if (two_worker.size() != canonical.size() / kSeedsPerDaemon) {
      outcome.errors.push_back("2-worker check streamed " +
                               std::to_string(two_worker.size()) + " rows");
    }
    const std::set<std::string> known(canonical.begin(), canonical.end());
    for (const std::string& row : two_worker) {
      if (known.count(row) == 0) {
        outcome.errors.push_back("2-worker row differs: " + row.substr(0, 60));
        break;
      }
    }
  }

  std::vector<sss::RunStats> stats;
  for (const auto& [key, s] : rows.stats) stats.push_back(s);

  if (!options.trace) {
    m.set_quantile("setup_s", "s", setup_s, 0.5);
    m.set_count("wall_s", "s", samples.run_s.sum_of_means(),
                static_cast<int>(samples.run_s.samples()));
    m.set("peak_rss_mb", "MB", peak_rss_mb());
    m.set_count("completed_frac", "fraction",
                1.0 - static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted),
                static_cast<int>(outcome.attempted));
    const double per_s = static_cast<double>(samples.rows) / samples.batch_s;
    m.set_count("trials_per_s", "1/s", per_s, static_cast<int>(samples.rows));
    m.set_quantile("trial_p50_ms", "ms", samples.trial_s, 0.5, 1e3);
    m.set_quantile("trial_p95_ms", "ms", samples.trial_s, 0.95, 1e3);
    m.set_count("silence_s", "s", samples.silence_s.sum_of_means(),
                static_cast<int>(samples.silence_s.samples()));
    m.set_quantile("step_p50_ms", "ms", samples.step_s, 0.5, 1e3);
    m.set_quantile("step_p95_ms", "ms", samples.step_s, 0.95, 1e3);
    m.set_quantile("run_p50_ms", "ms", samples.run_s, 0.5, 1e3);
    m.set_quantile("run_p90_ms", "ms", samples.run_s, 0.9, 1e3);
    m.set_quantile("first_row_p50_ms", "ms", samples.first_row_s, 0.5, 1e3);
    m.set_quantile("first_row_p90_ms", "ms", samples.first_row_s, 0.9, 1e3);
    m.set_count("rows_per_s", "1/s", per_s, static_cast<int>(samples.rows));
    report_counts(nullptr, outcome.counts, stats);
    return outcome;
  }

  // Traced run: every replica once more with a timed predicate, with
  // batch, trial and sink spans, against the untraced ones for the
  // overhead;
  // then every trial replayed on a bare Engine with engine spans, keeping
  // the silent configurations for the window ablations.
  LegitTally tally;
  LabSamples traced;
  std::uint64_t sink_bytes = 0;
  {
    std::vector<sss::BatchItem> timed = plan.items;
    for (sss::BatchItem& item : timed) {
      item.run.legitimacy = timed_predicate(item.problem->predicate(), &tally);
    }
    const std::string traced_path =
        options.out_dir + "/lab_convergence-traced.jsonl";
    std::ofstream out(traced_path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + traced_path);
    sss::JsonlSink sink(out);
    LabRows traced_rows = rows;
    const int root = tracer.open("lab.traced_pass");
    for (int replica = 0; replica < kSeedsPerDaemon; ++replica) {
      for (const sss::BatchTrialRow& row : run_replica(
               timed, replica, sink, traced, nullptr, tracer, root)) {
        traced_rows.check(row, "traced", outcome.errors);
      }
    }
    tracer.close(root);
    sink.finish();
    out.flush();
    sink_bytes = static_cast<std::uint64_t>(out.tellp());
    if (traced_rows.json.size() != rows.json.size()) {
      outcome.errors.push_back("traced rows != untraced rows");
    }
  }
  EngineTotals engine;
  std::map<std::pair<int, int>, std::unique_ptr<sss::Configuration>> silent;
  {
    const int root = tracer.open("lab.engine_replay");
    for (int i = 0; i < items; ++i) {
      const sss::BatchItem& item = plan.items[static_cast<std::size_t>(i)];
      const int trials =
          static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
      for (int t = 0; t < trials; ++t) {
        silent[{i, t}] = replay_trial(item, i, t, true, rows, nullptr, engine,
                                      tracer, root, outcome.errors)
                             .silent_config;
      }
    }
    tracer.close(root);
  }

  // Per-layer metrics of the traced run.
  double build_s = 0.0;
  std::uint64_t csr = 0;
  for (const GraphSpec& spec : graphs) {
    const double t0 = now_s();
    const sss::Graph g = spec.build();
    const double t1 = now_s();
    tracer.record("graph.build", t0, t1, -1, g.name());
    build_s += t1 - t0;
    csr += csr_bytes(g);
  }
  m.set_count("graph.build_ms", "ms", build_s * 1e3,
              static_cast<int>(graphs.size()));
  m.set_count("graph.csr_mb", "MB", static_cast<double>(csr) / (1 << 20),
              static_cast<int>(graphs.size()));
  std::vector<double> expand_ms;
  for (double s : setup_s) expand_ms.push_back(s * 1e3);
  m.set_quantile("analysis.plan.expand_ms", "ms", expand_ms, 0.5);
  std::vector<double> sink_us;
  for (double s : traced.sink_s) sink_us.push_back(s * 1e6);
  m.set_quantile("analysis.batch.trial_ms_p50", "ms", traced.trial_s, 0.5, 1e3);
  m.set_quantile("analysis.batch.trial_ms_p95", "ms", traced.trial_s, 0.95,
                 1e3);
  m.set_quantile("analysis.sink.row_us_p50", "us", sink_us, 0.5);
  m.set_quantile("analysis.sink.row_us_p95", "us", sink_us, 0.95);
  m.set_count("analysis.sink.bytes", "bytes", static_cast<double>(sink_bytes),
              static_cast<int>(traced.rows));
  report_engine_layer(m, engine);
  report_counts(&m, outcome.counts, stats);

  // Parallel-step and bulk ablations: every trial's synchronous window
  // again from its silent configuration at 1 and 2 engine workers and
  // under force_scalar, final configurations asserted equal.
  double one_worker = 0.0, two_workers = 0.0, scalar = 0.0;
  {
    const int root = tracer.open("lab.window_ablation");
    for (const auto& [key, config] : silent) {
      const sss::BatchItem& item = plan.items[static_cast<std::size_t>(key.first)];
      const auto a = stabilized_window(item, key.second, *config,
                                       kReplayWindow, 1, sss::SweepMode::kAuto);
      const auto b = stabilized_window(item, key.second, *config,
                                       kReplayWindow, 2, sss::SweepMode::kAuto);
      const auto c = stabilized_window(item, key.second, *config, kReplayWindow,
                                       1, sss::SweepMode::kForceScalar);
      if (a.second != b.second || a.second != c.second) {
        outcome.errors.push_back("window differs across workers/modes: " +
                                 item.label);
      }
      one_worker += a.first;
      two_workers += b.first;
      scalar += c.first;
    }
    tracer.close(root);
  }
  m.set_count("runtime.parallel.speedup_2w", "x", one_worker / two_workers,
              static_cast<int>(silent.size()));
  m.set_count("runtime.bulk.speedup", "x", scalar / one_worker,
              static_cast<int>(silent.size()));
  const std::uint64_t calls = tally.calls.load();
  m.set_count("verify.legit_calls", "count", static_cast<double>(calls),
              static_cast<int>(traced.rows));
  m.set_count("verify.legit_us_per_call", "us",
              calls > 0 ? tally.seconds() * 1e6 / static_cast<double>(calls)
                        : 0.0,
              static_cast<int>(std::min<std::uint64_t>(calls, 2'000'000'000)));
  m.set("verify.legit_share", "fraction", tally.seconds() / traced.batch_s);
  tracer.aggregate("verify.legit", "analysis.batch.trial", calls,
                   tally.seconds());
  m.set("trace.overhead_frac", "fraction",
        traced.batch_s / samples.run_s.sum_of_means() - 1.0);
  outcome.trace_path =
      options.out_dir + "/lab_convergence-seed" +
      std::to_string(options.seed) + ".trace.json";
  tracer.write_chrome(outcome.trace_path);
  std::ostringstream table;
  tracer.print_self_times(table);
  outcome.trace_table = table.str();
  return outcome;
}

}  // namespace labbench
