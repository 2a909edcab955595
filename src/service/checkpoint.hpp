#pragma once
/// \file checkpoint.hpp
/// Durable-run bookkeeping for the serve layer: the checkpoint manifest
/// written next to every durable stream, and the scanner that recovers a
/// stream's completed (item, trial) set after an interruption.
///
/// Durability model: a serve run writes two files.
///
///  * `<sink>` — the per-row-flushed JSONL result stream (analysis/
///    sink.hpp's durability contract: every row on disk is whole and
///    newline-terminated). This is the sole source of truth for which
///    trials completed; there is no separate progress file to fall out of
///    sync.
///  * `<sink>.ckpt.json` — the checkpoint manifest, written once at
///    submit time before the first trial runs: the experiment manifest
///    embedded verbatim plus the run shape (planned trial count, batch
///    options). Resume re-expands the embedded manifest, so it does not
///    depend on the original manifest file still existing or being
///    unchanged.
///
/// Resume = load checkpoint + scan stream + truncate any partial tail +
/// skip the recovered keys. A process killed mid-write can leave at most
/// one torn final line (rows are flushed whole); the scanner reports it
/// and `truncate_stream_tail` drops it, restoring the
/// only-whole-rows invariant before the resumed batch appends.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace sss {

/// The checkpoint manifest: everything needed to re-create a run.
struct Checkpoint {
  std::string plan_name;      ///< expanded plan's name (sanity echo)
  std::string manifest_json;  ///< the experiment manifest, serialized
  std::string sink_path;      ///< the durable JSONL stream
  int planned_trials = 0;     ///< plan size at submit time
  int threads = 1;            ///< batch worker threads used at submit
  int parallel_threads = 0;   ///< engine-thread override (0 = manifest's)
  std::string sweep_mode;     ///< sweep-mode override ("" = manifest's)
};

/// The checkpoint's conventional location next to its stream.
std::string checkpoint_path_for(const std::string& sink_path);

/// Serializes `checkpoint` to its JSON document.
std::string checkpoint_to_json(const Checkpoint& checkpoint);

/// Writes `checkpoint` to `checkpoint_path_for(checkpoint.sink_path)`,
/// throwing PreconditionError on I/O failure (an unwritable checkpoint
/// would silently forfeit resumability).
void write_checkpoint(const Checkpoint& checkpoint);

/// Loads and validates a checkpoint document. Keys it does not read —
/// the batch "shards" count older checkpoints carry among them — are
/// ignored, so those checkpoints still resume.
Checkpoint load_checkpoint(const std::string& path);

/// What a durable stream holds: the completed keys (document order), each
/// row's exact bytes (for replay and diff), and the byte length of the
/// whole-rows prefix. `tail_bytes` > 0 reports a torn final line (no
/// trailing newline) beyond that prefix.
struct StreamScan {
  std::vector<std::pair<int, int>> keys;  ///< (item, trial) per whole row
  std::vector<std::string> rows;          ///< row bytes, sans newline
  std::size_t complete_bytes = 0;         ///< length of the whole-row prefix
  std::size_t tail_bytes = 0;             ///< torn trailing bytes, if any
};

/// Scans a durable JSONL stream. A missing file is an empty scan (a run
/// that never produced a row). Every newline-terminated line must be a
/// valid row object carrying integer "item" and "trial" (anything else
/// throws — per-row flushing guarantees whole lines, so a malformed
/// *terminated* line means the file is not a result stream); a final
/// unterminated fragment is reported as the tail, not an error.
StreamScan scan_result_stream(const std::string& path);

/// Truncates `path` to `scan.complete_bytes`, dropping a torn tail. No-op
/// when the scan saw none.
void truncate_stream_tail(const std::string& path, const StreamScan& scan);

}  // namespace sss
