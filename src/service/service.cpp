#include "service/service.hpp"

#include <chrono>
#include <fstream>
#include <map>

#include "analysis/sink.hpp"
#include "service/protocol.hpp"
#include "support/require.hpp"

namespace sss {

namespace {

/// Per-item trial counts, for validating recovered stream keys.
std::vector<int> trials_per_item(const ExperimentPlan& plan) {
  std::vector<int> counts;
  counts.reserve(plan.items.size());
  for (const BatchItem& item : plan.items) {
    counts.push_back(static_cast<int>(item.daemons.size()) *
                     item.seeds_per_daemon);
  }
  return counts;
}

std::string done_event(const std::string& run_id, const std::string& state,
                       int rows, int planned, int skipped,
                       const std::string& error) {
  JsonLineBuilder line = event_line("done", run_id);
  line.field("state", state)
      .field("rows", rows)
      .field("trials", planned)
      .field("skipped", skipped);
  if (!error.empty()) line.field("error", error);
  return line.str();
}

std::string row_event(const std::string& run_id, int seq,
                      const std::string& row_json) {
  return event_line("row", run_id)
      .field("seq", seq)
      .raw("row", row_json)
      .str();
}

}  // namespace

LabService::~LabService() { shutdown(); }

LabService::Submitted LabService::submit(const std::string& manifest_text,
                                         const std::string& sink_path,
                                         SubmitOptions options) {
  SSS_REQUIRE(!sink_path.empty(), "submit needs a sink path");
  JsonValue manifest;
  try {
    manifest = JsonValue::parse(manifest_text);
  } catch (const std::exception& error) {
    throw PreconditionError(std::string("manifest: ") + error.what());
  }

  auto run = std::make_unique<Run>();
  run->plan = plan_from_manifest(manifest);
  apply_engine_overrides(run->plan, options.parallel_threads,
                         options.sweep_mode);
  run->planned = run->plan.total_trials();
  run->sink_path = sink_path;
  run->pace_ms = options.pace_ms;

  // Claim the sink before touching any file: truncating (or rewriting
  // the checkpoint of) a stream another live run is appending to would
  // silently corrupt it.
  claim_sink(sink_path);
  try {
    // Durability order: checkpoint first, then the (empty) stream — a
    // run that dies after its first row must already have the checkpoint
    // its resume needs.
    Checkpoint checkpoint;
    checkpoint.plan_name = run->plan.name;
    checkpoint.manifest_json = json_serialize(manifest);
    checkpoint.sink_path = sink_path;
    checkpoint.planned_trials = run->planned;
    checkpoint.threads = options.threads;
    checkpoint.parallel_threads = options.parallel_threads;
    checkpoint.sweep_mode = options.sweep_mode;
    write_checkpoint(checkpoint);

    run->sink.open(sink_path, std::ios::binary | std::ios::trunc);
    SSS_REQUIRE(run->sink.good(), "cannot open sink \"" + sink_path + "\"");
    return launch(std::move(run), options);
  } catch (...) {
    release_sink(sink_path);
    throw;
  }
}

LabService::Submitted LabService::resume(const std::string& checkpoint_path,
                                         SubmitOptions options) {
  const Checkpoint checkpoint = load_checkpoint(checkpoint_path);
  // Zero/empty submit options defer to what the checkpoint recorded.
  if (options.threads == 0) options.threads = checkpoint.threads;
  if (options.parallel_threads == 0) {
    options.parallel_threads = checkpoint.parallel_threads;
  }
  if (options.sweep_mode.empty()) options.sweep_mode = checkpoint.sweep_mode;

  auto run = std::make_unique<Run>();
  run->plan = plan_from_manifest_text(checkpoint.manifest_json);
  apply_engine_overrides(run->plan, options.parallel_threads,
                         options.sweep_mode);
  run->planned = run->plan.total_trials();
  SSS_REQUIRE(run->planned == checkpoint.planned_trials,
              "checkpoint \"" + checkpoint_path + "\" plans " +
                  std::to_string(checkpoint.planned_trials) +
                  " trials but its manifest expands to " +
                  std::to_string(run->planned) +
                  " — the registries changed under it");
  run->sink_path = checkpoint.sink_path;
  run->pace_ms = options.pace_ms;

  // Claim the sink before scanning: scanning (and then truncating the
  // tail of) a stream a live run is still appending to would destroy its
  // rows.
  claim_sink(checkpoint.sink_path);
  try {
    // Recover the durable rows; a torn tail (hard kill mid-write) is
    // dropped so the stream returns to whole-rows-only before we append.
    const StreamScan scan = scan_result_stream(checkpoint.sink_path);
    truncate_stream_tail(checkpoint.sink_path, scan);
    const std::vector<int> per_item = trials_per_item(run->plan);
    for (std::size_t i = 0; i < scan.keys.size(); ++i) {
      const auto [item, trial] = scan.keys[i];
      SSS_REQUIRE(item >= 0 && item < static_cast<int>(per_item.size()) &&
                      trial >= 0 &&
                      trial < per_item[static_cast<std::size_t>(item)],
                  "stream \"" + checkpoint.sink_path + "\" row " +
                      std::to_string(i + 1) + " has key (" +
                      std::to_string(item) + ", " + std::to_string(trial) +
                      ") outside the checkpoint's plan");
      SSS_REQUIRE(run->skip_keys.insert(scan.keys[i]).second,
                  "stream \"" + checkpoint.sink_path +
                      "\" holds duplicate key (" + std::to_string(item) +
                      ", " + std::to_string(trial) + ")");
    }
    run->skipped = static_cast<int>(scan.keys.size());
    run->rows = scan.rows;
    run->keys = scan.keys;

    run->sink.open(checkpoint.sink_path, std::ios::binary | std::ios::app);
    SSS_REQUIRE(run->sink.good(),
                "cannot reopen sink \"" + checkpoint.sink_path + "\"");
    return launch(std::move(run), options);
  } catch (...) {
    release_sink(checkpoint.sink_path);
    throw;
  }
}

LabService::Submitted LabService::launch(std::unique_ptr<Run> run,
                                         const SubmitOptions& options) {
  Run* raw = run.get();
  Submitted submitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SSS_REQUIRE(!shut_down_, "service is shutting down");
    raw->id = "r" + std::to_string(next_id_++);
    raw->subscriber = options.subscriber;
    order_.push_back(raw->id);
    runs_.emplace(raw->id, std::move(run));
    submitted.run_id = raw->id;
    submitted.planned = raw->planned;
    submitted.skipped = raw->skipped;
    submitted.sink_path = raw->sink_path;
    submitted.checkpoint_path = checkpoint_path_for(raw->sink_path);
  }
  raw->worker = std::thread(
      [this, raw, threads = options.threads] { worker_main(*raw, threads); });
  return submitted;
}

void LabService::worker_main(Run& run, int threads) {
  BatchOptions options;
  options.threads = threads;
  options.skip_trial = [&run](int item, int trial) {
    return run.skip_keys.count({item, trial}) > 0;
  };
  options.cancelled = [&run] {
    return run.cancel.load(std::memory_order_relaxed);
  };
  options.on_trial = [this, &run](const BatchTrialRow& row) {
    const std::string line = format_trial_row_jsonl(row);
    EventFn subscriber;
    int seq = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Durability before visibility: the row reaches the disk (whole
      // and flushed) before any subscriber or status call can see it.
      run.sink << line << '\n' << std::flush;
      SSS_REQUIRE(run.sink.good(),
                  "write error on sink \"" + run.sink_path + "\"");
      seq = static_cast<int>(run.rows.size());
      run.rows.push_back(line);
      run.keys.emplace_back(row.item, row.trial);
      // The delivery decision commits with the push: a subscribe() that
      // lands after this lock releases finds the row already in run.rows
      // and replays it itself, so a row is never both replayed and
      // delivered live to the same subscriber.
      if (run.subscriber) {
        subscriber = run.subscriber;
        ++run.events_in_flight;
      }
    }
    if (subscriber) {
      deliver_event(run, subscriber, row_event(run.id, seq, line));
    }
    if (run.pace_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(run.pace_ms));
    }
  };

  std::string state;
  std::string error;
  try {
    const BatchResult result = run_batch(run.plan.items, options);
    state = result.cancelled ? "cancelled" : "done";
  } catch (const std::exception& exception) {
    state = "failed";
    error = exception.what();
  }
  int rows = 0;
  EventFn subscriber;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run.state = state;
    run.error = error;
    rows = static_cast<int>(run.rows.size());
    // All on_trial calls have returned; the stream is complete. Close it
    // and release the sink claim so the path can be resubmitted/resumed.
    run.sink.close();
    active_sinks_.erase(run.sink_path);
    // Snapshot the subscriber in the critical section that flips the
    // state: a subscribe() after this lock sees a terminal run and
    // synthesizes its own done event instead of installing itself, so
    // every subscription gets exactly one done event.
    if (run.subscriber) {
      subscriber = run.subscriber;
      ++run.events_in_flight;
    }
  }
  cv_.notify_all();
  if (subscriber) {
    try {
      deliver_event(run, subscriber,
                    done_event(run.id, state, rows, run.planned, run.skipped,
                               error));
    } catch (...) {
      // A subscriber throwing out of its done event must not escape the
      // worker thread (std::terminate) — drop it; done_emitted below
      // still unblocks wait().
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run.done_emitted = true;
  }
  cv_.notify_all();
}

void LabService::deliver_event(Run& run, const EventFn& subscriber,
                               const std::string& line) {
  // Outside the lock: the callback may write to a slow client or call
  // back into the service (cancel-after-k-rows). The in-flight count
  // lets detach_subscribers wait the call out.
  try {
    subscriber(line);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    --run.events_in_flight;
    cv_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  --run.events_in_flight;
  cv_.notify_all();
}

void LabService::claim_sink(const std::string& sink_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  SSS_REQUIRE(active_sinks_.insert(sink_path).second,
              "a live run is still writing to sink \"" + sink_path + "\"");
}

void LabService::release_sink(const std::string& sink_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_sinks_.erase(sink_path);
}

LabService::Run& LabService::find_locked(const std::string& run_id) const {
  const auto it = runs_.find(run_id);
  SSS_REQUIRE(it != runs_.end(), "unknown run \"" + run_id + "\"");
  return *it->second;
}

LabService::RunStatus LabService::status_locked(const Run& run) const {
  RunStatus status;
  status.exists = true;
  status.state = run.state;
  status.rows = static_cast<int>(run.rows.size());
  status.planned = run.planned;
  status.skipped = run.skipped;
  status.error = run.error;
  status.sink_path = run.sink_path;
  return status;
}

LabService::RunStatus LabService::status(const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(run_id);
  if (it == runs_.end()) return RunStatus{};
  return status_locked(*it->second);
}

std::vector<std::string> LabService::run_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

bool LabService::cancel(const std::string& run_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(run_id);
  if (it == runs_.end()) return false;
  it->second->cancel.store(true, std::memory_order_relaxed);
  return true;
}

LabService::RunStatus LabService::wait(const std::string& run_id,
                                       int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  Run& run = find_locked(run_id);
  // Wait for the done event too (not just the terminal state): a client
  // that streams and then waits must have its done event by the time the
  // wait reply arrives, and a session that exits right after wait() must
  // not race the event out of existence.
  const auto settled = [&run] {
    return run.state != "running" && run.done_emitted;
  };
  bool done = true;
  if (timeout_ms < 0) {
    cv_.wait(lock, settled);
  } else {
    done = cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), settled);
  }
  RunStatus status = status_locked(run);
  // A timed-out wait reports "running" even in the sliver where the
  // state is terminal but the done event is still in flight, keeping the
  // invariant that a wait reply carrying a terminal state means the
  // subscriber already has its done event.
  if (!done) status.state = "running";
  return status;
}

int LabService::subscribe(const std::string& run_id, int from, EventFn fn) {
  SSS_REQUIRE(fn != nullptr, "subscribe needs a callback");
  SSS_REQUIRE(from >= 0, "subscribe \"from\" cannot be negative");
  std::unique_lock<std::mutex> lock(mutex_);
  Run& run = find_locked(run_id);
  // Replay outside the lock, in chunks: a slow client must not stall
  // every run's on_trial behind the service mutex. Each unlocked write
  // window may let new rows land; the loop re-checks until it observes
  // itself caught up *while holding the lock*, and installs the
  // subscriber in that same critical section — since live delivery
  // decisions also commit under the lock (on_trial), no row is missed or
  // delivered twice to this subscription.
  int cursor = from;
  int replayed = 0;
  for (;;) {
    if (cursor < static_cast<int>(run.rows.size())) {
      const std::vector<std::string> chunk(
          run.rows.begin() + cursor, run.rows.end());
      const int base = cursor;
      cursor += static_cast<int>(chunk.size());
      lock.unlock();
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        fn(row_event(run.id, base + static_cast<int>(i), chunk[i]));
        ++replayed;
      }
      lock.lock();
      continue;
    }
    if (run.state == "running") {
      run.subscriber = std::move(fn);
      return replayed;
    }
    // The worker has already emitted (or skipped) its done event;
    // synthesize one so every subscription ends with exactly one.
    const std::string done =
        done_event(run.id, run.state, static_cast<int>(run.rows.size()),
                   run.planned, run.skipped, run.error);
    lock.unlock();
    fn(done);
    return replayed;
  }
}

void LabService::detach_subscribers() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& [id, run] : runs_) run->subscriber = nullptr;
  cv_.wait(lock, [this] {
    for (const auto& [id, run] : runs_) {
      if (run->events_in_flight > 0) return false;
    }
    return true;
  });
}

LabService::DiffReport LabService::diff(
    const std::string& run_id, const std::string& baseline_path) const {
  // Snapshot the run under the lock; file I/O happens outside it.
  std::vector<std::string> rows;
  std::vector<std::pair<int, int>> keys;
  std::string state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Run& run = find_locked(run_id);
    rows = run.rows;
    keys = run.keys;
    state = run.state;
  }
  std::ifstream probe(baseline_path, std::ios::binary);
  SSS_REQUIRE(probe.good(),
              "cannot open baseline \"" + baseline_path + "\"");
  probe.close();
  const StreamScan baseline = scan_result_stream(baseline_path);
  SSS_REQUIRE(baseline.tail_bytes == 0,
              "baseline \"" + baseline_path + "\" has a torn final line");

  std::map<std::pair<int, int>, const std::string*> expected;
  for (std::size_t i = 0; i < baseline.keys.size(); ++i) {
    expected[baseline.keys[i]] = &baseline.rows[i];
  }

  DiffReport report;
  report.state = state;
  constexpr std::size_t kMaxDeltas = 20;
  const auto key_label = [](const std::pair<int, int>& key) {
    return "(item " + std::to_string(key.first) + ", trial " +
           std::to_string(key.second) + ")";
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ++report.compared;
    const auto it = expected.find(keys[i]);
    if (it == expected.end()) {
      ++report.extra;
      if (report.deltas.size() < kMaxDeltas) {
        report.deltas.push_back(key_label(keys[i]) + " not in baseline");
      }
      continue;
    }
    if (*it->second != rows[i]) {
      ++report.changed;
      if (report.deltas.size() < kMaxDeltas) {
        report.deltas.push_back(key_label(keys[i]) + " differs");
      }
    } else {
      ++report.matched;
    }
    expected.erase(it);
  }
  report.pending = static_cast<int>(expected.size());
  report.clean = report.changed == 0 && report.extra == 0 &&
                 (state == "running" || report.pending == 0);
  return report;
}

void LabService::shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shut_down_ = true;
    for (auto& [id, run] : runs_) {
      run->cancel.store(true, std::memory_order_relaxed);
      if (run->worker.joinable()) workers.push_back(std::move(run->worker));
    }
  }
  for (std::thread& worker : workers) worker.join();
}

}  // namespace sss
