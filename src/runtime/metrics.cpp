#include "runtime/metrics.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

void ReadLoggerMux::add(ReadLogger* logger) {
  SSS_REQUIRE(logger != nullptr, "null logger");
  loggers_.push_back(logger);
}

bool ReadLoggerMux::remove(ReadLogger* logger) {
  const auto kept = std::remove(loggers_.begin(), loggers_.end(), logger);
  const bool removed = kept != loggers_.end();
  loggers_.erase(kept, loggers_.end());
  return removed;
}

bool ReadLoggerMux::contains(const ReadLogger* logger) const {
  return std::find(loggers_.begin(), loggers_.end(), logger) !=
         loggers_.end();
}

void ReadLoggerMux::on_read(ProcessId reader, ProcessId subject,
                            int comm_var) {
  for (ReadLogger* logger : loggers_) {
    logger->on_read(reader, subject, comm_var);
  }
}

StepReadCounter::StepReadCounter(const Graph& g, const ProtocolSpec& spec)
    : num_comm_(static_cast<std::size_t>(spec.num_comm())),
      subjects_(static_cast<std::size_t>(g.num_vertices())),
      readers_(static_cast<std::size_t>(g.num_vertices())) {
  SSS_REQUIRE(spec.num_comm() <= 64,
              "read accounting supports at most 64 communication variables");
  bits_.reserve(static_cast<std::size_t>(g.num_vertices()) * num_comm_);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    for (const VarSpec& var : spec.comm) {
      bits_.push_back(var.domain(g, p).bits());
    }
  }
}

void StepReadCounter::start_run(ProcessId reader) {
  ReaderStamp& stamp = readers_[static_cast<std::size_t>(reader)];
  SSS_ASSERT(stamp.step != step_,
             "a reader's reads must be contiguous within one step");
  stamp.step = step_;
  stamp.reads = 0;
  reader_ = reader;
  ++run_;
  run_bits_ = 0;
}

void StepReadCounter::absorb(std::uint64_t reads, std::uint64_t bits,
                             int max_reads, int max_bits) {
  total_reads_ += reads;
  total_bits_ += bits;
  max_reads_ = std::max(max_reads_, max_reads);
  max_bits_ = std::max(max_bits_, max_bits);
}

void WorkerReadTally::begin_step() {
  current_reader_ = -1;
  subjects_.clear();
  bits_ = 0;
  total_reads_ = 0;
  total_bits_ = 0;
  max_reads_ = 0;
  max_bits_ = 0;
}

void ReadSink::charge_out_of_line(ProcessId reader, ProcessId subject,
                                  int comm_var) const {
  if (kind_ == Kind::kTally) {
    static_cast<WorkerReadTally*>(target_)->on_read(reader, subject,
                                                    comm_var);
  } else {
    target_->on_read(reader, subject, comm_var);
  }
}

StabilityTracker::StabilityTracker(const Graph& g)
    : read_sets_(static_cast<std::size_t>(g.num_vertices())) {}

void StabilityTracker::on_read(ProcessId reader, ProcessId subject, int) {
  auto& set = read_sets_[static_cast<std::size_t>(reader)];
  if (std::find(set.begin(), set.end(), subject) == set.end()) {
    set.push_back(subject);
  }
}

void StabilityTracker::reset() {
  for (auto& set : read_sets_) set.clear();
}

int StabilityTracker::distinct_reads(ProcessId p) const {
  return static_cast<int>(read_sets_[static_cast<std::size_t>(p)].size());
}

int StabilityTracker::count_at_most(int k) const {
  int count = 0;
  for (const auto& set : read_sets_) {
    if (static_cast<int>(set.size()) <= k) ++count;
  }
  return count;
}

std::vector<int> StabilityTracker::read_set_sizes() const {
  std::vector<int> sizes;
  sizes.reserve(read_sets_.size());
  for (const auto& set : read_sets_) {
    sizes.push_back(static_cast<int>(set.size()));
  }
  return sizes;
}

}  // namespace sss
