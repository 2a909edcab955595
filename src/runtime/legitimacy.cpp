#include "runtime/legitimacy.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

bool CoverLegitimacy::ok_at(const Graph& g, const Configuration& config,
                            ProcessId p) const {
  if (covered_at(g, config, p)) return true;
  for (const ProcessId q : g.neighbors(p)) {
    if (!covered_at(g, config, q)) return false;
  }
  return true;
}

LegitimacyTracker::LegitimacyTracker(const Graph& g,
                                     const LocalLegitimacy& form,
                                     const Configuration& config)
    : graph_(g),
      form_(form),
      cover_(dynamic_cast<const CoverLegitimacy*>(&form)),
      constants_ok_(form.constants_ok(g, config)) {
  SSS_REQUIRE(form.radius() >= (cover_ != nullptr ? 1 : 0),
              "a local legitimacy form needs a non-negative read radius "
              "(at least 1 for a cover form)");
  if (!constants_ok_) return;
  const int n = g.num_vertices();
  width_ = form.reads_internal() ? config.stride() : config.num_comm();
  const auto width = static_cast<std::size_t>(width_);
  mirror_.resize(static_cast<std::size_t>(n) * width);
  for (ProcessId p = 0; p < n; ++p) {
    std::copy_n(config.row(p), width,
                mirror_.data() + static_cast<std::size_t>(p) * width);
  }
  flag_.assign(static_cast<std::size_t>(n), 0);
  stamp_.assign(static_cast<std::size_t>(n), 0);
  for (ProcessId p = 0; p < n; ++p) {
    flag_[static_cast<std::size_t>(p)] =
        cover_ != nullptr ? cover_->covered_at(g, config, p)
                          : !form.ok_at(g, config, p);
  }
  for (ProcessId p = 0; p < n; ++p) {
    if (cover_ == nullptr) {
      violations_ += flag_[static_cast<std::size_t>(p)];
    } else if (!flag_[static_cast<std::size_t>(p)]) {
      // Each uncovered edge once, from its lower endpoint.
      for (const ProcessId q : g.neighbors(p)) {
        if (q > p && !flag_[static_cast<std::size_t>(q)]) ++violations_;
      }
    }
  }
}

void LegitimacyTracker::collect_changed(const Configuration& config,
                                        std::span<const ProcessId> touched) {
  seeds_.clear();
  const auto width = static_cast<std::size_t>(width_);
  for (const ProcessId p : touched) {
    const Value* row = config.row(p);
    Value* seen = mirror_.data() + static_cast<std::size_t>(p) * width;
    if (std::equal(row, row + width, seen)) continue;
    std::copy(row, row + width, seen);
    seeds_.push_back(p);
  }
}

void LegitimacyTracker::collect_ball(int radius) {
  if (++generation_ == 0) {
    // Wrapped: no stale stamp may equal a reissued generation.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 1;
  }
  ball_.clear();
  for (const ProcessId p : seeds_) {
    if (stamp_[static_cast<std::size_t>(p)] != generation_) {
      stamp_[static_cast<std::size_t>(p)] = generation_;
      ball_.push_back(p);
    }
  }
  std::size_t level_begin = 0;
  for (int hop = 0; hop < radius; ++hop) {
    const std::size_t level_end = ball_.size();
    for (std::size_t i = level_begin; i < level_end; ++i) {
      for (const ProcessId q : graph_.neighbors(ball_[i])) {
        if (stamp_[static_cast<std::size_t>(q)] != generation_) {
          stamp_[static_cast<std::size_t>(q)] = generation_;
          ball_.push_back(q);
        }
      }
    }
    level_begin = level_end;
  }
}

std::int64_t LegitimacyTracker::uncovered_neighbours(ProcessId p) const {
  std::int64_t count = 0;
  for (const ProcessId q : graph_.neighbors(p)) {
    count += flag_[static_cast<std::size_t>(q)] ? 0 : 1;
  }
  return count;
}

void LegitimacyTracker::recheck(const Configuration& config,
                                std::span<const ProcessId> touched) {
  if (!constants_ok_) return;
  collect_changed(config, touched);
  if (seeds_.empty()) return;
  if (cover_ == nullptr) {
    // ok_at(p) reads within radius() hops, so only the ball around the
    // processes whose read-visible rows changed can have changed its
    // answer.
    collect_ball(form_.radius());
    for (const ProcessId p : ball_) {
      const std::uint8_t bad = !form_.ok_at(graph_, config, p);
      violations_ += static_cast<int>(bad) -
                     static_cast<int>(flag_[static_cast<std::size_t>(p)]);
      flag_[static_cast<std::size_t>(p)] = bad;
    }
    return;
  }
  // Cover form: covered_at reads within radius() - 1 hops. Flipping one
  // flag changes the status of exactly the edges to uncovered neighbours;
  // applying flips one at a time keeps the edge count exact.
  collect_ball(form_.radius() - 1);
  for (const ProcessId p : ball_) {
    const std::uint8_t covered = cover_->covered_at(graph_, config, p);
    std::uint8_t& cached = flag_[static_cast<std::size_t>(p)];
    if (covered == cached) continue;
    const std::int64_t edges = uncovered_neighbours(p);
    violations_ += covered ? -edges : edges;
    cached = covered;
  }
}

}  // namespace sss
