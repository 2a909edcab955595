#pragma once
/// \file metrics.hpp
/// Communication accounting (Section 3).
///
/// `StepReadCounter` measures per-step quantities: the number of distinct
/// neighbors each selected process read (k-efficiency, Definition 4) and
/// the bits it read (communication complexity, Definition 5).
///
/// `StabilityTracker` accumulates R_p(C') — the set of distinct neighbors
/// process p reads over a computation suffix C' — which is what the
/// stability notions of Definitions 7-9 quantify. Reset it at the moment
/// the suffix starts (e.g. when the configuration becomes silent) and read
/// off ♦-(x,k)-stability: x = count_at_most(k).

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/context.hpp"
#include "runtime/spec.hpp"
#include "support/require.hpp"

namespace sss {

/// Fans a read event out to several loggers.
class ReadLoggerMux final : public ReadLogger {
 public:
  void add(ReadLogger* logger);
  /// Removes every occurrence of `logger`; returns whether there was one.
  bool remove(ReadLogger* logger);
  bool contains(const ReadLogger* logger) const;
  void on_read(ProcessId reader, ProcessId subject, int comm_var) override;

 private:
  std::vector<ReadLogger*> loggers_;
};

/// Per-step read statistics with per-(reader,subject,var) deduplication,
/// at O(1) per read.
///
/// Contiguity contract: within one step, all of a reader's reads arrive
/// as one uninterrupted run. The engine's per-process slice, the
/// bulk-execute kernels (runtime/bulk.hpp) and `evaluate_process` (the
/// ReferenceEngine's phase 1) all run a selected process's guard and then
/// its action, logging both halves' reads as they happen, before moving
/// to the next process, so a step is a sequence of runs, one per reader.
/// A reader that starts a second run in the same step breaks the contract
/// and trips an SSS_ASSERT.
///
/// The deduplication rests on that contract and on stamps, so no per-step
/// state is ever cleared:
///  * a reader change starts a new run with a fresh 64-bit run generation;
///  * each subject carries the generation of the last run that read it and
///    a mask of the comm variables that run read (so `num_comm() <= 64`).
///    A stale stamp means a newly read neighbor (k-efficiency,
///    Definition 4); an unset mask bit means newly read bits (Definition
///    5); anything else is a free re-read within the atomic step;
///  * each reader carries the step generation of its last run and that
///    run's neighbor count, which is `step_reads_of`. `begin_step` only
///    bumps the step generation.
/// 64-bit generations cannot wrap within an engine's lifetime.
class StepReadCounter final : public ReadLogger {
 public:
  StepReadCounter(const Graph& g, const ProtocolSpec& spec);

  /// Opens a new step: O(1), every reader's stamp goes stale.
  void begin_step() {
    ++step_;
    reader_ = kNoReader;
  }
  /// The per-read charge, inline: a caller holding the concrete counter
  /// (the engine's serial slice, through ReadSink) pays no virtual call.
  void on_read(ProcessId reader, ProcessId subject, int comm_var) override {
    if (reader != reader_) start_run(reader);
    SubjectStamp& seen = subjects_[static_cast<std::size_t>(subject)];
    const std::uint64_t var = std::uint64_t{1} << comm_var;
    if (seen.run != run_) {
      seen.run = run_;
      seen.vars = var;
      ++total_reads_;
      max_reads_ = std::max(
          max_reads_, ++readers_[static_cast<std::size_t>(reader)].reads);
    } else if ((seen.vars & var) != 0) {
      return;  // the same variable re-read within one atomic step is free
    } else {
      seen.vars |= var;
    }
    const int bits = bits_of(subject, comm_var);
    run_bits_ += bits;
    total_bits_ += static_cast<std::uint64_t>(bits);
    max_bits_ = std::max(max_bits_, run_bits_);
  }

  /// Distinct neighbors read by `reader` in the current step (0 for a
  /// reader with no reads this step).
  int step_reads_of(ProcessId reader) const {
    const ReaderStamp& stamp = readers_[static_cast<std::size_t>(reader)];
    return stamp.step == step_ ? stamp.reads : 0;
  }
  /// Max over all processes and all steps so far (the protocol's measured
  /// k-efficiency).
  int max_reads_per_process_step() const { return max_reads_; }
  /// Max bits any process read in one step (measured communication
  /// complexity).
  int max_bits_per_process_step() const { return max_bits_; }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_bits() const { return total_bits_; }

  /// Bit width of `comm_var` of `subject` — the per-read cost the counter
  /// charges. Exposed so a WorkerReadTally can charge identically.
  int bits_of(ProcessId subject, int comm_var) const {
    return bits_[static_cast<std::size_t>(subject) * num_comm_ +
                 static_cast<std::size_t>(comm_var)];
  }

  /// Merges a worker tally's step contribution (parallel execution path):
  /// totals sum, per-process-step maxima max. Exact because the maxima are
  /// per (reader, step) and each selected reader's reads all land in one
  /// worker's tally. The engine's idle charge (engine invariant 4) adds a
  /// repeated step's totals the same way. Note step_reads_of is not
  /// maintained by this path.
  void absorb(std::uint64_t reads, std::uint64_t bits, int max_reads,
              int max_bits);

 private:
  static constexpr ProcessId kNoReader = -1;

  struct SubjectStamp {
    std::uint64_t run = 0;   ///< generation of the last run that read it
    std::uint64_t vars = 0;  ///< comm variables that run read, one bit each
  };
  struct ReaderStamp {
    std::uint64_t step = 0;  ///< generation of the step of its last run
    int reads = 0;           ///< distinct neighbors read in that run
  };

  /// Opens `reader`'s run for the current step.
  void start_run(ProcessId reader);

  std::size_t num_comm_;
  std::vector<int> bits_;  ///< [subject * num_comm + var] bit widths
  std::vector<SubjectStamp> subjects_;
  std::vector<ReaderStamp> readers_;
  std::uint64_t step_ = 1;  ///< stamps start at 0: stale before any step
  std::uint64_t run_ = 0;
  ProcessId reader_ = kNoReader;  ///< reader of the open run
  int run_bits_ = 0;              ///< bits read in the open run
  int max_reads_ = 0;
  int max_bits_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// Per-worker read accounting for the engine's parallel execution path.
///
/// Per-worker copies of StepReadCounter's n-sized stamp arrays would cost
/// 16 B x n per worker — prohibitive at n = 10^6 x 8 workers. The tally
/// relies on the same contiguity contract instead, with degree-bounded
/// scratch: each worker processes its slice of the selection one reader
/// at a time in ascending order, so one scratch list of (subject, var
/// mask) pairs, recycled per reader, reproduces StepReadCounter's
/// deduplication exactly, and only the four aggregates survive: totals
/// (summed into the main counter) and per-process-step maxima (maxed in).
/// `StepReadCounter::absorb` is the merge.
class WorkerReadTally final : public ReadLogger {
 public:
  explicit WorkerReadTally(const StepReadCounter& source) : source_(source) {}

  /// Clears the step accumulators; call once per step before the slice.
  void begin_step();

  /// The per-read charge, inline like StepReadCounter's: a pool worker
  /// charges its own tally through ReadSink with no virtual call.
  void on_read(ProcessId reader, ProcessId subject, int comm_var) override {
    if (reader != current_reader_) {
      // A worker's slice of the selection is strictly ascending and a
      // reader's reads are contiguous, so a reader change means the
      // previous one is finished for this step and its scratch can be
      // recycled.
      SSS_ASSERT(reader > current_reader_,
                 "a worker's readers must arrive in ascending order");
      current_reader_ = reader;
      subjects_.clear();
      bits_ = 0;
    }
    const std::uint64_t var = std::uint64_t{1} << comm_var;
    const auto seen = std::find_if(
        subjects_.begin(), subjects_.end(),
        [subject](const auto& entry) { return entry.first == subject; });
    if (seen == subjects_.end()) {
      subjects_.emplace_back(subject, var);
      ++total_reads_;
      max_reads_ = std::max(max_reads_, static_cast<int>(subjects_.size()));
    } else if ((seen->second & var) != 0) {
      return;  // the same variable re-read within one atomic step is free
    } else {
      seen->second |= var;
    }
    const int bits = source_.bits_of(subject, comm_var);
    bits_ += bits;
    total_bits_ += static_cast<std::uint64_t>(bits);
    max_bits_ = std::max(max_bits_, bits_);
  }

  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_bits() const { return total_bits_; }
  int max_reads() const { return max_reads_; }
  int max_bits() const { return max_bits_; }

 private:
  const StepReadCounter& source_;  ///< for bits_of only
  /// Scratch state of the reader currently being processed: each subject
  /// it read with the mask of the comm variables read from it.
  ProcessId current_reader_ = -1;
  std::vector<std::pair<ProcessId, std::uint64_t>> subjects_;
  int bits_ = 0;
  /// Step aggregates absorbed into the main counter after the barrier.
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_bits_ = 0;
  int max_reads_ = 0;
  int max_bits_ = 0;
};

/// Where the execute hook (runtime/bulk.hpp) charges its reads: the
/// engine's step counter on the serial slice (its charge inlined at each
/// read site behind one tagged branch) or a pool worker's tally (a direct
/// out-of-line call, keeping read sites small). Any other ReadLogger is
/// called virtually: the engine passes its mux while an external logger
/// is attached, and suites and benches pass their own.
class ReadSink {
 public:
  ReadSink(StepReadCounter& counter)
      : kind_(Kind::kCounter), target_(&counter) {}
  ReadSink(WorkerReadTally& tally) : kind_(Kind::kTally), target_(&tally) {}
  ReadSink(ReadLogger& logger) : kind_(Kind::kLogger), target_(&logger) {}

  void charge(ProcessId reader, ProcessId subject, int comm_var) const {
    if (kind_ == Kind::kCounter) {
      static_cast<StepReadCounter*>(target_)->on_read(reader, subject,
                                                      comm_var);
    } else {
      charge_out_of_line(reader, subject, comm_var);
    }
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kTally, kLogger };

  [[gnu::noinline]] void charge_out_of_line(ProcessId reader,
                                            ProcessId subject,
                                            int comm_var) const;

  Kind kind_;
  ReadLogger* target_;
};

/// Accumulates distinct-neighbor read sets per process since last reset.
class StabilityTracker final : public ReadLogger {
 public:
  explicit StabilityTracker(const Graph& g);

  void on_read(ProcessId reader, ProcessId subject, int comm_var) override;
  void reset();

  /// |R_p| for the tracked suffix.
  int distinct_reads(ProcessId p) const;
  /// Number of processes with |R_p| <= k (the x of ♦-(x,k)-stability).
  int count_at_most(int k) const;
  std::vector<int> read_set_sizes() const;

 private:
  std::vector<std::vector<ProcessId>> read_sets_;
};

}  // namespace sss
