#pragma once
/// \file service.hpp
/// The long-lived lab service behind `sss_lab serve`: a registry of
/// asynchronous batch runs with durable live streams and checkpoint
/// resume.
///
/// `LabService` is the session-independent half of the serve layer (the
/// command protocol lives in session.hpp): submit a manifest and it runs
/// on a background worker through the ordinary batch runner, with three
/// properties the one-shot CLI cannot offer:
///
///  * **Durable streaming.** Every completed (item, trial) row is
///    written to the run's JSONL sink and flushed before anything else
///    observes it (analysis/sink.hpp's per-row durability contract), and
///    simultaneously retained in memory for replay — a subscriber that
///    attaches mid-run first receives every earlier row, then live ones,
///    with no gap and no duplicate. Row bytes are exactly JsonlSink's.
///
///  * **Resume.** Submitting writes a checkpoint manifest next to the
///    sink (service/checkpoint.hpp); `resume` re-expands it, scans the
///    durable stream for completed keys (truncating a torn tail left by
///    a hard kill), and re-runs the batch with those trials skipped,
///    appending only the missing rows. Because trial seeds derive from
///    plan coordinates alone, the appended rows are byte-identical to
///    the rows an uninterrupted run would have produced — the
///    concatenated stream equals the golden stream.
///
///  * **Cancellation as checkpointing.** `cancel` stops the batch at the
///    next trial boundary; everything already finished is durable, so a
///    cancelled run is simply a resumable one.
///
/// Thread model: one mutex guards the run registry and every run's
/// mutable state; workers take it per row. The delivery decision for an
/// event (which subscriber, if any, receives it) is made in the same
/// critical section that commits the row, so a subscriber attaching
/// mid-run never sees a row both replayed and delivered live. The
/// callbacks themselves run *outside* the lock (an event handler may
/// write to a slow client or call back into the service, e.g.
/// cancel-after-k-rows), serialized per run by the batch runner's own
/// streaming mutex; `detach_subscribers` blocks until in-flight
/// callbacks drain, so a disconnecting session can safely die.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/plan.hpp"
#include "service/checkpoint.hpp"

namespace sss {

class LabService {
 public:
  /// Receives one protocol line (no trailing newline): row events while a
  /// run produces, then exactly one done event. Must not block
  /// indefinitely; may call back into the service.
  using EventFn = std::function<void(const std::string& line)>;

  /// Options shared by submit and resume. For resume, zero/empty members
  /// defer to the values recorded in the checkpoint.
  struct SubmitOptions {
    int threads = 0;            ///< batch worker threads (0 = hardware;
                                ///< on resume, 0 = checkpoint's value)
    int parallel_threads = 0;   ///< engine threads override (0 = manifest)
    std::string sweep_mode;     ///< sweep-mode override ("" = manifest)
    /// Artificial delay after each row (milliseconds) — a pacing knob so
    /// tests and demos can observe live streaming deterministically; 0
    /// in production use.
    int pace_ms = 0;
    /// Live subscriber installed at submit time (same as calling
    /// `subscribe(run, 0, fn)` immediately; may be null).
    EventFn subscriber;
  };

  struct Submitted {
    std::string run_id;
    int planned = 0;  ///< plan trial count
    int skipped = 0;  ///< rows recovered from the durable stream (resume)
    std::string sink_path;
    std::string checkpoint_path;
  };

  struct RunStatus {
    bool exists = false;
    std::string state;  ///< "running" | "done" | "cancelled" | "failed"
    int rows = 0;       ///< durable rows, recovered + produced
    int planned = 0;
    int skipped = 0;
    std::string error;  ///< set when state == "failed"
    std::string sink_path;
  };

  /// Live diff of a run's durable rows against a baseline JSONL stream,
  /// keyed by (item, trial), byte-exact per row — usable while the run
  /// is still writing: baseline rows the run has not reached yet count
  /// as `pending`, not as differences.
  struct DiffReport {
    std::string state;  ///< run state at snapshot time
    int compared = 0;   ///< rows the run has produced so far
    int matched = 0;
    int changed = 0;  ///< same key, different bytes
    int extra = 0;    ///< keys the baseline lacks
    int pending = 0;  ///< baseline keys the run has not produced yet
    /// Clean = no changed, no extra, and (once the run is terminal)
    /// nothing pending.
    bool clean = false;
    std::vector<std::string> deltas;  ///< first few differences, rendered
  };

  LabService() = default;
  /// Cancels every running batch and joins all workers.
  ~LabService();

  LabService(const LabService&) = delete;
  LabService& operator=(const LabService&) = delete;

  /// Validates and expands `manifest_text`, truncates `sink_path`, writes
  /// the checkpoint manifest, and starts the batch on a background
  /// worker. Throws PreconditionError on manifest/plan/IO errors (before
  /// any worker starts), and rejects `sink_path` while another live run
  /// is still writing to it — two writers would silently corrupt the
  /// durable stream.
  Submitted submit(const std::string& manifest_text,
                   const std::string& sink_path, SubmitOptions options);

  /// Resumes from a checkpoint: scans the durable stream, truncates a
  /// torn tail, and runs the remaining trials, appending to the stream.
  /// A stream that already holds every row yields a run that completes
  /// immediately with nothing to do. Rejects a sink another live run is
  /// still writing to, like submit.
  Submitted resume(const std::string& checkpoint_path, SubmitOptions options);

  /// Snapshot of one run (`exists == false` for unknown ids).
  RunStatus status(const std::string& run_id) const;

  /// Registered run ids, in submission order.
  std::vector<std::string> run_ids() const;

  /// Requests cancellation at the next trial boundary. Returns false for
  /// unknown ids; idempotent otherwise.
  bool cancel(const std::string& run_id);

  /// Blocks until the run reaches a terminal state; returns its status.
  /// A non-negative `timeout_ms` bounds the wait: on timeout the status
  /// reports state "running" (even in the sliver where the state already
  /// flipped but the done event is still in flight), so a wait reply
  /// carrying a terminal state always means a live subscriber already
  /// has its done event.
  RunStatus wait(const std::string& run_id, int timeout_ms = -1);

  /// Replays rows [from, rows) to `fn` as row events, synthesizes the
  /// done event if the run already ended, and otherwise installs `fn` as
  /// the run's live subscriber (replacing any previous one). Returns the
  /// number of rows replayed. Throws for unknown ids. The replay writes
  /// happen outside the service lock (a slow client does not stall other
  /// runs' workers); `fn` is installed in the same critical section that
  /// observes the replay caught up, so no row is missed or duplicated.
  int subscribe(const std::string& run_id, int from, EventFn fn);

  /// Removes every live subscriber and waits for in-flight callbacks to
  /// return — after this, no callback will touch a disconnecting
  /// session's streams.
  void detach_subscribers();

  /// See DiffReport. Throws for unknown ids or an unreadable baseline.
  DiffReport diff(const std::string& run_id,
                  const std::string& baseline_path) const;

  /// Cancels all runs and joins all workers (idempotent; the destructor
  /// calls it).
  void shutdown();

 private:
  struct Run {
    std::string id;
    ExperimentPlan plan;
    int planned = 0;
    int skipped = 0;
    std::set<std::pair<int, int>> skip_keys;
    std::vector<std::string> rows;          ///< serialized, sans newline
    std::vector<std::pair<int, int>> keys;  ///< parallel to rows
    std::string state = "running";
    /// True once the worker's done event has been emitted; wait() blocks
    /// on this (not just the state) so "wait returned" implies a live
    /// subscriber has already received its done event.
    bool done_emitted = false;
    std::string error;
    std::atomic<bool> cancel{false};
    std::ofstream sink;
    std::string sink_path;
    int pace_ms = 0;
    EventFn subscriber;
    int events_in_flight = 0;
    std::thread worker;
  };

  Submitted launch(std::unique_ptr<Run> run, const SubmitOptions& options);
  void worker_main(Run& run, int threads);
  /// Calls `subscriber(line)` and settles the in-flight gate. Pre: the
  /// caller snapshotted `subscriber` and incremented `events_in_flight`
  /// under the lock (in the same critical section as the state change the
  /// event announces) and holds no lock now. Rethrows what the callback
  /// throws, after the decrement.
  void deliver_event(Run& run, const EventFn& subscriber,
                     const std::string& line);
  /// Registers `sink_path` as owned by a live run; throws if a live run
  /// already owns it. Every claim is released exactly once: by the
  /// worker on reaching a terminal state, or by the claimant if launch
  /// never happens.
  void claim_sink(const std::string& sink_path);
  void release_sink(const std::string& sink_path);
  RunStatus status_locked(const Run& run) const;
  Run& find_locked(const std::string& run_id) const;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::vector<std::string> order_;
  std::map<std::string, std::unique_ptr<Run>> runs_;
  /// Sink paths with a non-terminal run writing to them (claimed from
  /// submit/resume entry until the worker goes terminal).
  std::set<std::string> active_sinks_;
  int next_id_ = 1;
  bool shut_down_ = false;
};

}  // namespace sss
