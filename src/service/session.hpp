#pragma once
/// \file session.hpp
/// One serve connection: the command loop that binds a line stream (stdio
/// or a socket connection) to a LabService.
///
/// A session reads one command object per input line (protocol.hpp),
/// dispatches it against the service, and writes replies and events back
/// on one output stream. Events from background workers arrive on worker
/// threads, so every outgoing line goes through a session-level mutex and
/// is flushed whole — the client never sees interleaved partial lines.
///
/// Commands (all keys are strict — an unknown key is an error, matching
/// the manifest reader's posture):
///
///   {"cmd": "ping"}                 liveness check
///   {"cmd": "submit", "sink": S, "manifest": {...} | "manifest_path": P,
///    "threads"?, "parallel_threads"?, "sweep_mode"?, "pace_ms"?,
///    "stream"?}                     start a run; reply carries its id
///   {"cmd": "resume", "checkpoint": P, "threads"?,
///    "parallel_threads"?, "sweep_mode"?, "pace_ms"?, "stream"?}
///                                   resume from a checkpoint manifest
///   {"cmd": "status", "run": R}     snapshot one run
///   {"cmd": "runs"}                 list run ids, submission order
///   {"cmd": "stream", "run": R, "from"?}
///                                   replay rows [from, now) as events,
///                                   then follow live; the reply (sent
///                                   after the replayed rows) carries the
///                                   replay count
///   {"cmd": "cancel", "run": R}     stop at the next trial boundary
///   {"cmd": "wait", "run": R, "timeout_ms"?}
///                                   block until terminal (or at most
///                                   timeout_ms, replying state
///                                   "running"); reply = status
///   {"cmd": "diff", "run": R, "baseline": P}
///                                   live byte-diff against a baseline
///   {"cmd": "shutdown"}             reply, then end the session loop
///
/// "stream": true on submit/resume subscribes the session from row 0 in
/// the same step, with no window in which a row could be missed.
///
/// Runs belong to the service, not the session: a socket client can
/// disconnect and a later connection can status/stream/resume the same
/// runs. On exit the session detaches its subscribers and waits out
/// in-flight callbacks, so its streams are never touched after run()
/// returns.

#include <iosfwd>
#include <mutex>
#include <string>

#include "service/service.hpp"

namespace sss {

class ServeSession {
 public:
  /// Why the command loop ended: input exhausted, or an explicit
  /// shutdown command (the serve main loop stops accepting connections
  /// only for the latter).
  enum class Exit { kEof, kShutdown };

  ServeSession(LabService& service, std::istream& in, std::ostream& out);

  /// Runs the command loop until EOF or shutdown. Never throws for
  /// command-level errors (they become error replies); propagates only
  /// stream-fatal conditions.
  Exit run();

 private:
  /// Writes one protocol line atomically (line + '\n', flushed).
  void emit(const std::string& line);

  LabService& service_;
  std::istream& in_;
  std::ostream& out_;
  std::mutex out_mutex_;
};

}  // namespace sss
