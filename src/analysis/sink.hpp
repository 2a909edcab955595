#pragma once
/// \file sink.hpp
/// Streaming result sinks for the batch runner.
///
/// Results leave the process as they are produced instead of only after
/// the whole plan completes: `run_batch_to_sinks` wires sinks into
/// `BatchOptions::on_trial`, so per-trial rows stream out as trials
/// finish (serialized by the runner, completion order) — a caller
/// post-processing a huge plan never buffers rows itself — and per-item
/// summary rows follow after the bit-identical in-order reduction. (The
/// runner still holds one RunStats per trial internally for that
/// reduction; see BatchOptions::on_trial.) Because every trial row
/// carries its (item, trial) coordinates, a streamed file is
/// sortable-deterministic: sorting rows by those indices yields the same
/// bytes at any thread count.
///
/// Implementations:
///  * `JsonlSink` — one flat JSON object per line, integers/bools/strings
///    only, so output is byte-reproducible across platforms;
///  * `CsvSink`  — the same rows as RFC-4180 CSV with a header;
///  * `BenchJsonSink` — per-item summary records through BenchJsonWriter,
///    producing the BENCH_<name>.json artifacts the bench-gate CI diffs.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "support/bench_json.hpp"
#include "support/csv.hpp"

namespace sss {

/// Observer of batch results. `on_trial` calls are serialized by the
/// runner but arrive in completion order; `on_item` calls arrive after all
/// trials, in item order. `finish` is the flush point for sinks that
/// buffer or write files.
///
/// Durability contract: the row sinks (JSONL, CSV) write and flush every
/// row as it arrives — each `on_trial` leaves one whole newline-terminated
/// row on the stream. A run killed between rows therefore loses nothing
/// it completed, which is what lets the serve layer resume an interrupted
/// batch from its own output stream and diff a stream while the producing
/// run is still writing. `finish` remains the end-of-run hook (final
/// flush; header backstop for empty CSV streams), not the durability
/// point.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void on_trial(const BatchTrialRow& row) = 0;
  /// `churn` is the item's churn reduction — all-zero (runs included) for
  /// items that did not run churn windows (check item.churn_enabled).
  virtual void on_item(int item_index, const BatchItem& item,
                       const SweepSummary& summary,
                       const ChurnSweepSummary& churn);
  virtual void finish();
};

/// Renders one trial row exactly as JsonlSink writes it, without the
/// trailing newline. Shared by JsonlSink and the serve layer, so a row
/// streamed over the service protocol is byte-identical to the row in the
/// durable JSONL file (and to the golden fixtures).
std::string format_trial_row_jsonl(const BatchTrialRow& row);

/// One JSON object per trial per line. Field order is fixed; values are
/// limited to strings, integers, and booleans (see file comment).
class JsonlSink final : public ResultSink {
 public:
  /// The stream must outlive the sink.
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void on_trial(const BatchTrialRow& row) override;
  void finish() override;

 private:
  std::ostream& out_;
};

/// The same per-trial rows as CSV; the header row is written on first use,
/// or by `finish` when a plan yields zero trials — the column contract
/// holds even for empty result files.
class CsvSink final : public ResultSink {
 public:
  /// The stream must outlive the sink.
  explicit CsvSink(std::ostream& out) : out_(out), writer_(out) {}

  void on_trial(const BatchTrialRow& row) override;
  void finish() override;

 private:
  void write_header();

  std::ostream& out_;
  CsvWriter writer_;
  bool wrote_header_ = false;
};

/// Per-item summary records through the BENCH_<name>.json writer; trial
/// rows are ignored. `finish` writes the artifact into `directory`; with
/// `strict`, a failed artifact write throws from `finish` instead of
/// warning to stderr — callers whose exit code must reflect the loss
/// (sss_lab run --bench) opt in.
class BenchJsonSink final : public ResultSink {
 public:
  explicit BenchJsonSink(std::string bench_name, std::string directory = ".",
                         bool strict = false);

  void on_trial(const BatchTrialRow& row) override {}
  void on_item(int item_index, const BatchItem& item,
               const SweepSummary& summary,
               const ChurnSweepSummary& churn) override;
  void finish() override;

  const BenchJsonWriter& writer() const { return writer_; }

 private:
  BenchJsonWriter writer_;
  std::string directory_;
  bool strict_ = false;
};

/// Runs the plan with every sink attached: trial rows stream through
/// `BatchOptions::on_trial` (any `on_trial` the caller already installed
/// is called first), summaries fan out after reduction, and every sink is
/// `finish`ed before returning. Null sink pointers are rejected.
BatchResult run_batch_to_sinks(const std::vector<BatchItem>& items,
                               BatchOptions options,
                               const std::vector<ResultSink*>& sinks);

}  // namespace sss
