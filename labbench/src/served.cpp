/// served_churn: an in-process LabService driven as a closed loop by 2
/// clients. Each client submits a churn manifest to its own sink path,
/// waits with a bounded wait(timeout_ms) until the run is done, then
/// submits the next one. A run is 32 trials on an 8x8 grid: 8 registry
/// protocols x {central-rr, distributed} x {Bernoulli corruption and
/// resets, periodic events with topology churn}, 1 batch worker.
///
/// Rows are flushed durably per row, checkpointed, and delivered to the
/// subscriber under the service's shared mutex while two runs are live;
/// the churn layer repairs, rebuilds and re-checks legitimacy. The traced
/// run replays every churn trial directly through ChurnRunner with a
/// timed predicate and requires its rows to equal the service's.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/plan.hpp"
#include "analysis/sink.hpp"
#include "common.hpp"
#include "runtime/churn.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace labbench {

namespace {

constexpr int kManifests = 32;
constexpr int kClients = 2;
/// Closed-loop passes of kManifests runs each; 4 passes = 128 runs.
constexpr int kMinPasses = 4;
constexpr int kTracedPasses = 3;
constexpr int kWaitTimeoutMs = 60'000;
constexpr int kSetupRepeats = 25;
constexpr int kReplayWindow = 64;
constexpr int kProbeGapMs = 50;

const GraphSpec kGrid{"grid", {{"rows", 8}, {"cols", 8}}};

std::string served_manifest(std::uint64_t seed, int r) {
  const std::string graphs = "[" + kGrid.json() + "]";
  const std::string protocols =
      R"([{"name": "bfs-tree", "root": 0}, {"name": "coloring"}, )"
      R"({"name": "full-read-bfs-tree", "root": 0}, {"name": "full-read-mis"}, )"
      R"({"name": "leader-election"}, {"name": "matching"}, {"name": "mis"}, )"
      R"({"name": "spanning-forest", "roots": "0,63"}])";
  const auto k = static_cast<std::uint64_t>(r);
  std::ostringstream m;
  m << "{\"name\": \"served_churn_" << r
    << "\", \"defaults\": {\"seeds_per_daemon\": 1, \"base_seed\": "
    << derive(seed, 100 + k) % 1'000'000
    // Distributed first: a run's first row is then a co-firing trial of
    // ~10 ms rather than a ~3 ms central one, less at the mercy of
    // millisecond scheduling and file-system hiccups.
    << ", \"max_steps\": 400000, \"daemons\": [\"distributed\", "
       "\"central-rr\"]}, \"sweeps\": [\n"
    // The periodic sweep first: its event count per window is fixed, so
    // a run's first row varies less with the seed than under the
    // Bernoulli schedule.
    << "{\"graphs\": " << graphs << ", \"protocols\": " << protocols
    << ", \"churn\": {\"period\": 250, \"window_steps\": 2000, \"seed\": "
    << derive(seed, 300 + k) % 1'000'000
    << ", \"max_victims\": 2, \"corruption_weight\": 2, "
       "\"node_reset_weight\": 1, \"topology_weight\": 1}},\n"
    << "{\"graphs\": " << graphs << ", \"protocols\": " << protocols
    << ", \"churn\": {\"event_probability\": 0.004, \"window_steps\": 2000, "
       "\"seed\": "
    << derive(seed, 200 + k) % 1'000'000
    << ", \"max_victims\": 2, \"corruption_weight\": 2, "
       "\"node_reset_weight\": 1}}]}\n";
  return m.str();
}

/// One served run as its client saw it. Subscriber callbacks run on the
/// service's worker thread, so event fields are guarded by `mutex`.
struct ServedRun {
  int manifest = 0;
  int client = 0;
  std::string run_id;
  int planned = 0;
  double submit_begin = 0.0;
  double submit_end = 0.0;
  double wait_end = 0.0;
  std::string state;
  bool timed_out = false;

  std::mutex mutex;
  std::vector<double> row_times;
  std::vector<std::string> rows;
};

struct ServedPass {
  double wall_s = 0.0;
  std::vector<std::unique_ptr<ServedRun>> runs;
  std::vector<std::string> errors;
};

/// The JSONL row carried by a row event line, or "" for other events.
std::string row_of_event(const std::string& line) {
  static const std::string kRowKey = "\"row\": ";
  if (line.rfind("{\"event\": \"row\"", 0) != 0) return {};
  const std::size_t at = line.find(kRowKey);
  if (at == std::string::npos) return {};
  return line.substr(at + kRowKey.size(),
                     line.size() - at - kRowKey.size() - 1);
}

void serve_one(sss::LabService& service, const std::string& manifest,
               const std::string& sink_path, ServedRun& run, Tracer& tracer) {
  sss::LabService::SubmitOptions submit;
  submit.threads = 1;
  submit.subscriber = [&run](const std::string& line) {
    const double t = now_s();
    std::string row = row_of_event(line);
    if (row.empty()) return;
    const std::lock_guard<std::mutex> lock(run.mutex);
    run.row_times.push_back(t);
    run.rows.push_back(std::move(row));
  };
  run.submit_begin = now_s();
  const sss::LabService::Submitted sub =
      service.submit(manifest, sink_path, submit);
  run.submit_end = now_s();
  run.run_id = sub.run_id;
  run.planned = sub.planned;
  sss::LabService::RunStatus status = service.wait(sub.run_id, kWaitTimeoutMs);
  run.wait_end = now_s();
  if (status.state == "running") {
    run.timed_out = true;
    service.cancel(sub.run_id);
    status = service.wait(sub.run_id, kWaitTimeoutMs);
  }
  run.state = status.state;

  const int tid = run.client + 1;
  const int root = tracer.record("service.run", run.submit_begin,
                                 run.wait_end, -1, run.run_id, tid);
  tracer.record("service.submit", run.submit_begin, run.submit_end, root,
                run.run_id, tid);
  const std::lock_guard<std::mutex> lock(run.mutex);
  if (!run.row_times.empty()) {
    tracer.record("service.first_row", run.submit_end, run.row_times.front(),
                  root, run.run_id, tid);
    tracer.record("service.stream", run.row_times.front(),
                  run.row_times.back(), root, run.run_id, tid);
    tracer.record("service.done_lag", run.row_times.back(), run.wait_end,
                  root, run.run_id, tid);
  }
}

/// One closed-loop pass: every manifest once, kClients clients. While the
/// clients run, the calling thread samples `probe` every kProbeGapMs, so
/// the probe sees the host as the pass does, scheduling included.
ServedPass run_pass(sss::LabService& service,
                    const std::vector<std::string>& manifests,
                    const std::vector<std::string>& sinks, SpeedProbe& probe,
                    Tracer& tracer) {
  ServedPass pass;
  for (int r = 0; r < kManifests; ++r) {
    pass.runs.push_back(std::make_unique<ServedRun>());
    pass.runs.back()->manifest = r;
    pass.runs.back()->client = r % kClients;
  }
  std::mutex mutex;  // guards errors, finished and end
  std::condition_variable done;
  int finished = 0;
  double end = 0.0;
  const double start = now_s();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = c; r < kManifests; r += kClients) {
        try {
          serve_one(service, manifests[static_cast<std::size_t>(r)],
                    sinks[static_cast<std::size_t>(c)],
                    *pass.runs[static_cast<std::size_t>(r)], tracer);
        } catch (const std::exception& error) {
          const std::lock_guard<std::mutex> lock(mutex);
          pass.errors.push_back("client " + std::to_string(c) + ": " +
                                error.what());
        }
      }
      const double at = now_s();
      const std::lock_guard<std::mutex> lock(mutex);
      end = std::max(end, at);
      ++finished;
      done.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    while (finished < kClients) {
      lock.unlock();
      probe.sample();
      lock.lock();
      done.wait_for(lock, std::chrono::milliseconds(kProbeGapMs),
                    [&] { return finished == kClients; });
    }
  }
  for (std::thread& client : clients) client.join();
  pass.wall_s = end - start;
  return pass;
}

std::vector<std::string> keyed_sorted(const std::vector<std::string>& rows) {
  std::vector<KeyedRow> keyed;
  for (const std::string& row : rows) {
    const auto [item, trial] = row_key(row);
    keyed.push_back({0, item, trial, row});
  }
  return sorted_rows(std::move(keyed));
}

/// One churn trial replayed exactly as the batch runner runs it (seed
/// derivation included), with a timed predicate.
struct ChurnReplay {
  sss::BatchTrialRow row;
  double seconds = 0.0;
};

ChurnReplay replay_churn_trial(const sss::BatchItem& item, int item_index,
                               int trial, LegitTally& tally, Tracer& tracer,
                               int parent) {
  const std::string& daemon =
      item.daemons[static_cast<std::size_t>(trial / item.seeds_per_daemon)];
  const std::uint64_t engine_seed =
      item.base_seed + 1 + static_cast<std::uint64_t>(trial);
  sss::ChurnOptions churn = item.churn;
  std::uint64_t seed_state =
      churn.seed ^ (0x9e3779b97f4a7c15ULL * (engine_seed + 1));
  churn.seed = sss::splitmix64(seed_state);
  churn.exclude_frozen = item.exclude_frozen;
  churn.sweep_mode = item.sweep_mode;
  const sss::LegitimacyPredicate legitimacy =
      timed_predicate(item.problem->predicate(), &tally);

  ChurnReplay out;
  out.row.item = item_index;
  out.row.trial = trial;
  out.row.label = item.label;
  out.row.graph = item.graph->name();
  out.row.protocol = item.protocol->name();
  out.row.daemon = daemon;
  out.row.engine_seed = engine_seed;
  out.row.churn = true;
  const std::string id = item.label + "#" + std::to_string(trial);
  ScopedSpan span(tracer, "runtime.churn.trial", parent, id);
  const double t0 = now_s();
  auto drive = [&](auto& runner) {
    const std::uint64_t calls0 = tally.calls.load();
    const double legit0 = tally.seconds();
    out.row.stats = runner.stabilize();
    const double t1 = now_s();
    const std::uint64_t calls1 = tally.calls.load();
    const double legit1 = tally.seconds();
    runner.run_window();
    const double t2 = now_s();
    tracer.aggregate("verify.legit", "runtime.churn.stabilize",
                     calls1 - calls0, legit1 - legit0);
    tracer.aggregate("verify.legit", "runtime.churn.window",
                     tally.calls.load() - calls1, tally.seconds() - legit1);
    out.row.churn_stats = runner.stats();
    tracer.record("runtime.churn.stabilize", t0, t1, span.index(), id);
    tracer.record("runtime.churn.window", t1, t2, span.index(), id);
  };
  if (item.protocol_factory) {
    sss::ChurnRunner<sss::Engine> runner(*item.graph, item.protocol_factory,
                                         daemon, engine_seed, churn,
                                         legitimacy);
    drive(runner);
  } else {
    sss::ChurnRunner<sss::Engine> runner(*item.graph, *item.protocol, daemon,
                                         engine_seed, churn, legitimacy);
    drive(runner);
  }
  out.seconds = now_s() - t0;
  return out;
}

}  // namespace

Outcome run_served_churn(const Options& options) {
  Outcome outcome;
  Tracer tracer(options.trace);
  Tracer untraced(false);
  Report& m = outcome.metrics;
  std::vector<std::string> manifests;
  for (int r = 0; r < kManifests; ++r) {
    manifests.push_back(served_manifest(options.seed, r));
  }
  std::vector<std::string> sinks;
  for (int c = 0; c < kClients; ++c) {
    sinks.push_back(options.out_dir + "/served_churn-client" +
                    std::to_string(c) + ".jsonl");
  }

  // Declared before the service: subscribers point into these records,
  // so they must outlive it.
  std::vector<ServedPass> passes;
  std::vector<ServedPass> traced_passes;
  ServedRun two_worker_run;
  std::unique_ptr<sss::LabService> service;

  // Set-up: service start plus expansion of every manifest.
  std::vector<double> setup_s;
  std::deque<sss::ExperimentPlan> plans;  // deque: plans do not relocate
  const int setup_root = tracer.open("setup");
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    plans.clear();
    outcome.probe.sample();
    const double t0 = now_s();
    service = std::make_unique<sss::LabService>();
    for (const std::string& text : manifests) {
      const double e0 = now_s();
      plans.push_back(sss::plan_from_manifest_text(text));
      tracer.record("analysis.plan.expand", e0, now_s(), setup_root);
    }
    setup_s.push_back(now_s() - t0);
  }
  tracer.close(setup_root);

  // Closed-loop passes until time is up. After each pass, every trial's
  // stabilization is replayed directly on an Engine (no churn, no
  // predicate) with a synchronous window from its silent configuration:
  // the silence time and stabilized-window step latency, per trial, once
  // per pass across the run.
  UnitMeans silence_s;  // per (manifest, item, trial)
  UnitMeans step_s;     // per (manifest, item, trial): median window step
  auto replay = [&](Tracer& t) {
    EngineTotals totals;
    const int root = t.open("served.engine_replay");
    CpuRotation rotation;
    std::uint64_t replayed = 0;
    for (std::size_t r = 0; r < plans.size(); ++r) {
      for (std::size_t i = 0; i < plans[r].items.size(); ++i) {
        const sss::BatchItem& item = plans[r].items[i];
        const int trials =
            static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
        for (int trial = 0; trial < trials; ++trial) {
          if (replayed++ % 16 == 0) {
            rotation.next();
            outcome.probe.sample();
          }
          const std::uint64_t key = (r << 40) | (i << 20) |
                                    static_cast<std::uint64_t>(trial);
          const double before = totals.silence_s;
          const EngineTrial run = run_engine_trial(
              item, trial, kReplayWindow, false, totals, t, root);
          silence_s.add(key, totals.silence_s - before);
          step_s.add(key, totals.window_step_s.back());
          if (!run.stats.silent || !run.quiescent) {
            outcome.errors.push_back("replay not silent: " + item.label);
          }
        }
      }
    }
    t.close(root);
    return totals;
  };
  // Correctness: every run done with all its rows; every repeat of a
  // manifest streams the same rows; the durable sinks hold them.
  std::vector<std::vector<std::string>> canonical(kManifests);
  auto check_pass = [&](const ServedPass& pass, const char* what) {
    for (const std::string& e : pass.errors) outcome.errors.push_back(e);
    for (const auto& run : pass.runs) {
      const std::vector<std::string> rows = keyed_sorted(run->rows);
      auto& ref = canonical[static_cast<std::size_t>(run->manifest)];
      if (ref.empty()) ref = rows;
      if (rows != ref) {
        outcome.errors.push_back(std::string(what) + " run " + run->run_id +
                                 " rows differ from the first run of manifest " +
                                 std::to_string(run->manifest));
      }
    }
  };
  double rss_mb = 0.0;
  const double measure_start = now_s();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         now_s() - measure_start < options.seconds) {
    passes.push_back(run_pass(*service, manifests, sinks, outcome.probe,
                              untraced));
    check_pass(passes.back(), "untraced");
    for (const auto& run : passes.back().runs) {
      ++outcome.attempted;
      if (run->state != "done" || run->timed_out ||
          static_cast<int>(run->rows.size()) != run->planned) {
        ++outcome.failed;
      }
      // Checked: keep the timings only, so memory stays flat across passes.
      std::vector<std::string>().swap(run->rows);
    }
    replay(untraced);
    // After a fixed amount of work: the service keeps every finished
    // run's record, so the peak would otherwise grow with the host's speed.
    if (static_cast<int>(passes.size()) == kMinPasses) rss_mb = peak_rss_mb();
  }

  for (int c = 0; c < kClients; ++c) {
    const int last = kManifests - kClients + c;
    if (keyed_sorted(read_lines(sinks[static_cast<std::size_t>(c)])) !=
        canonical[static_cast<std::size_t>(last)]) {
      outcome.errors.push_back("durable sink of client " + std::to_string(c) +
                               " != its last run's rows");
    }
  }
  std::vector<KeyedRow> all_rows;
  for (int r = 0; r < kManifests; ++r) {
    for (const std::string& row : canonical[static_cast<std::size_t>(r)]) {
      const auto [item, trial] = row_key(row);
      all_rows.push_back({r, item, trial, row});
    }
  }
  outcome.digest = hex64(fnv1a(sorted_rows(all_rows)));

  // 1 batch worker = 2 batch workers, on manifest 0.
  {
    ServedRun& run = two_worker_run;
    sss::LabService::SubmitOptions submit;
    submit.threads = 2;
    submit.subscriber = [&run](const std::string& line) {
      std::string row = row_of_event(line);
      if (row.empty()) return;
      const std::lock_guard<std::mutex> lock(run.mutex);
      run.rows.push_back(std::move(row));
    };
    const auto sub = service->submit(
        manifests[0], options.out_dir + "/served_churn-2workers.jsonl", submit);
    const auto status = service->wait(sub.run_id, kWaitTimeoutMs);
    const std::lock_guard<std::mutex> lock(run.mutex);
    if (status.state != "done" || keyed_sorted(run.rows) != canonical[0]) {
      outcome.errors.push_back("2-worker run differs from 1-worker rows");
    }
  }

  if (!options.trace) {
    // Per manifest, means over the passes (see UnitMeans).
    UnitMeans run_s, first_s, trial_s;
    double total_wall = 0.0;
    std::size_t total_rows = 0;
    for (const ServedPass& pass : passes) {
      total_wall += pass.wall_s;
      for (const auto& run : pass.runs) {
        const auto unit = static_cast<std::uint64_t>(run->manifest);
        const double took = run->wait_end - run->submit_begin;
        run_s.add(unit, took);
        total_rows += run->row_times.size();
        if (!run->row_times.empty()) {
          first_s.add(unit, run->row_times[0] - run->submit_begin);
        }
        // Per run, the mean time per trial: a run's 32 trials split
        // evenly between a cheap central daemon and a costly co-firing
        // one, so single-row gaps are bimodal and their median sits in
        // the gap between the modes.
        if (run->planned > 0) trial_s.add(unit, took / run->planned);
      }
    }
    m.set_quantile("setup_s", "s", setup_s, 0.5);
    m.set_count("wall_s", "s", total_wall / static_cast<double>(passes.size()),
                static_cast<int>(passes.size()));
    m.set("peak_rss_mb", "MB", rss_mb);
    m.set_count("completed_frac", "fraction",
                1.0 - static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted),
                static_cast<int>(outcome.attempted));
    m.set_count("trials_per_s", "1/s",
                static_cast<double>(total_rows) / total_wall,
                static_cast<int>(total_rows));
    m.set_quantile("trial_p50_ms", "ms", trial_s, 0.5, 1e3);
    m.set_quantile("trial_p95_ms", "ms", trial_s, 0.95, 1e3);
    m.set_count("silence_s", "s", silence_s.sum_of_means(),
                static_cast<int>(silence_s.samples()));
    m.set_quantile("step_p50_ms", "ms", step_s, 0.5, 1e3);
    m.set_quantile("step_p95_ms", "ms", step_s, 0.95, 1e3);
    m.set_quantile("run_p50_ms", "ms", run_s, 0.5, 1e3);
    m.set_quantile("run_p90_ms", "ms", run_s, 0.9, 1e3);
    m.set_quantile("first_row_p50_ms", "ms", first_s, 0.5, 1e3);
    m.set_quantile("first_row_p90_ms", "ms", first_s, 0.9, 1e3);
    m.set_count("rows_per_s", "1/s",
                static_cast<double>(total_rows) / total_wall,
                static_cast<int>(total_rows));
    return outcome;
  }

  // Traced passes with service spans; overhead against untraced passes.
  for (int p = 0; p < kTracedPasses; ++p) {
    traced_passes.push_back(
        run_pass(*service, manifests, sinks, outcome.probe, tracer));
    check_pass(traced_passes.back(), "traced");
  }
  std::vector<double> untraced_walls, traced_walls;
  for (const ServedPass& pass : passes) untraced_walls.push_back(pass.wall_s);
  for (const ServedPass& pass : traced_passes) {
    traced_walls.push_back(pass.wall_s);
  }

  // Churn replay: every trial through ChurnRunner with a timed predicate;
  // rows must equal the service's, and go through a timed JsonlSink.
  LegitTally tally;
  std::vector<double> trial_ms, churn_ms, sink_us;
  std::vector<sss::ChurnStats> churn_stats;
  std::vector<sss::RunStats> stats;
  double churn_total = 0.0;
  std::uint64_t sink_bytes = 0;
  {
    const std::string replay_path = options.out_dir + "/served_churn-replay.jsonl";
    std::ofstream out(replay_path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + replay_path);
    sss::JsonlSink sink(out);
    const int root = tracer.open("served.churn_replay");
    for (int r = 0; r < kManifests; ++r) {
      const sss::ExperimentPlan& plan = plans[static_cast<std::size_t>(r)];
      std::vector<std::string> rows;
      for (std::size_t i = 0; i < plan.items.size(); ++i) {
        const sss::BatchItem& item = plan.items[i];
        const int trials =
            static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
        for (int t = 0; t < trials; ++t) {
          const double t0 = now_s();
          const ChurnReplay replay = replay_churn_trial(
              item, static_cast<int>(i), t, tally, tracer, root);
          rows.push_back(sss::format_trial_row_jsonl(replay.row));
          const double s0 = now_s();
          sink.on_trial(replay.row);
          const double s1 = now_s();
          tracer.record("analysis.sink.row", s0, s1, root);
          sink_us.push_back((s1 - s0) * 1e6);
          trial_ms.push_back((s1 - t0) * 1e3);
          churn_ms.push_back(replay.seconds * 1e3);
          churn_total += replay.seconds;
          churn_stats.push_back(replay.row.churn_stats);
          stats.push_back(replay.row.stats);
        }
      }
      if (keyed_sorted(rows) != canonical[static_cast<std::size_t>(r)]) {
        outcome.errors.push_back("churn replay rows != served rows, manifest " +
                                 std::to_string(r));
      }
    }
    tracer.close(root);
    sink.finish();
    out.flush();
    sink_bytes = static_cast<std::uint64_t>(out.tellp());
  }

  std::vector<double> submit_ms, first_ms, gap_us, lag_ms;
  for (const ServedPass& pass : traced_passes) {
    for (const auto& run : pass.runs) {
      submit_ms.push_back((run->submit_end - run->submit_begin) * 1e3);
      if (run->row_times.empty()) continue;
      first_ms.push_back((run->row_times.front() - run->submit_end) * 1e3);
      lag_ms.push_back((run->wait_end - run->row_times.back()) * 1e3);
      for (std::size_t i = 1; i < run->row_times.size(); ++i) {
        gap_us.push_back((run->row_times[i] - run->row_times[i - 1]) * 1e6);
      }
    }
  }

  const double build0 = now_s();
  const sss::Graph grid = kGrid.build();
  const double build1 = now_s();
  tracer.record("graph.build", build0, build1, -1, grid.name());
  m.set("graph.build_ms", "ms", (build1 - build0) * 1e3);
  m.set("graph.csr_mb", "MB", static_cast<double>(csr_bytes(grid)) / (1 << 20));
  m.set_quantile("analysis.plan.expand_ms", "ms",
                 [&] {
                   std::vector<double> xs;
                   for (double s : tracer.durations("analysis.plan.expand")) {
                     xs.push_back(s * 1e3);
                   }
                   return xs;
                 }(),
                 0.5);
  m.set_quantile("analysis.batch.trial_ms_p50", "ms", trial_ms, 0.5);
  m.set_quantile("analysis.batch.trial_ms_p95", "ms", trial_ms, 0.95);
  m.set_quantile("analysis.sink.row_us_p50", "us", sink_us, 0.5);
  m.set_quantile("analysis.sink.row_us_p95", "us", sink_us, 0.95);
  m.set_count("analysis.sink.bytes", "bytes", static_cast<double>(sink_bytes),
              static_cast<int>(sink_us.size()));
  report_engine_layer(m, replay(tracer));
  report_counts(&m, outcome.counts, stats);
  const std::uint64_t calls = tally.calls.load();
  const int n_trials = static_cast<int>(churn_stats.size());
  m.set_count("verify.legit_calls", "count", static_cast<double>(calls),
              n_trials);
  m.set_count("verify.legit_us_per_call", "us",
              calls > 0 ? tally.seconds() * 1e6 / static_cast<double>(calls)
                        : 0.0,
              static_cast<int>(calls));
  m.set("verify.legit_share", "fraction", tally.seconds() / churn_total);
  const sss::ChurnSweepSummary summary =
      sss::summarize_churn(churn_stats.data(), n_trials);
  m.set_quantile("runtime.churn.trial_ms_p50", "ms", churn_ms, 0.5);
  m.set("runtime.churn.legit_share", "fraction", tally.seconds() / churn_total);
  m.set_count("runtime.churn.disruptions", "count",
              static_cast<double>(summary.disruptions), n_trials);
  m.set_count("runtime.churn.topology_events", "count",
              static_cast<double>(summary.topology_events), n_trials);
  m.set_count("runtime.churn.recovery_rounds_p50", "rounds",
              summary.recovery_rounds_p50, static_cast<int>(summary.recoveries));
  m.set_count("runtime.churn.availability", "fraction",
              summary.availability_mean, n_trials);
  m.set_quantile("service.submit_ms", "ms", submit_ms, 0.5);
  m.set_quantile("service.first_row_ms", "ms", first_ms, 0.5);
  m.set_quantile("service.row_gap_us_p50", "us", gap_us, 0.5);
  m.set_quantile("service.row_gap_us_p95", "us", gap_us, 0.95);
  m.set_quantile("service.done_lag_ms", "ms", lag_ms, 0.5);
  m.set("trace.overhead_frac", "fraction",
        quantile(traced_walls, 0.5) / quantile(untraced_walls, 0.5) - 1.0);
  outcome.counts.push_back("runtime.churn.disruptions = " +
                           std::to_string(summary.disruptions));
  outcome.counts.push_back("runtime.churn.topology_events = " +
                           std::to_string(summary.topology_events));
  outcome.trace_path = options.out_dir + "/served_churn-seed" +
                       std::to_string(options.seed) + ".trace.json";
  tracer.write_chrome(outcome.trace_path);
  std::ostringstream table;
  tracer.print_self_times(table);
  outcome.trace_table = table.str();
  return outcome;
}

}  // namespace labbench
