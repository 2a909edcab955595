#pragma once
/// \file enabled_set.hpp
/// Word-packed set of enabled process ids, maintained incrementally.
///
/// The daemons of the paper's model all ask questions about the set of
/// enabled processes: "everyone enabled" (synchronous), "the next enabled
/// id after mine" (central round-robin), "the k-th smallest enabled id"
/// (central random). The original implementations answered them by
/// rescanning an n-byte bitmap every step — an O(n) floor under every
/// step even when the engine's own hot path is O(activity).
///
/// `EnabledSet` retires those rescans. The engine maintains it with O(1)
/// `assign` calls from its enabledness dirty queue, and daemons consume it
/// through queries whose cost tracks the answer, not n:
///
///  * `count()` — O(1);
///  * `kth(k)`  — k-th smallest member, one popcount pass over n/64 words;
///  * `next_cyclic(p)` — first member after p (wrapping), word-scan;
///  * `for_each(f)` — members in ascending order, O(count + n/64).
///
/// Membership order is always ascending process id, so selections drawn
/// through `kth`/`for_each` are bit-identical to the historical
/// sorted-scratch-vector behaviour.

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"

namespace sss {

class EnabledSet {
 public:
  EnabledSet() = default;
  explicit EnabledSet(int universe) { reset(universe); }

  /// Clears the set and resizes it to ids [0, universe).
  void reset(int universe) {
    SSS_REQUIRE(universe >= 0, "universe cannot be negative");
    universe_ = universe;
    words_.assign(static_cast<std::size_t>((universe + 63) / 64), 0);
    count_ = 0;
  }

  int universe() const { return universe_; }
  int count() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool test(ProcessId p) const {
    return (words_[word_of(p)] >> bit_of(p)) & 1u;
  }

  /// Sets p's membership; O(1) and keeps count() exact either way.
  void assign(ProcessId p, bool member) {
    std::uint64_t& word = words_[word_of(p)];
    const std::uint64_t bit = 1ULL << bit_of(p);
    if (member) {
      count_ += static_cast<int>(~word >> bit_of(p) & 1u);
      word |= bit;
    } else {
      count_ -= static_cast<int>(word >> bit_of(p) & 1u);
      word &= ~bit;
    }
  }

  /// Deferred-count variant of `assign` for partitioned writers: updates
  /// the membership bit but NOT count(), returning the count delta
  /// (+1/-1/0) for the caller to accumulate and apply later through
  /// `add_count`. The engine's parallel refresh hands each worker a
  /// 64-aligned process range — disjoint words, so concurrent
  /// assign_deferred calls from different ranges never touch the same
  /// memory — and folds the deltas in on the serial side of the barrier.
  int assign_deferred(ProcessId p, bool member) {
    std::uint64_t& word = words_[word_of(p)];
    const std::uint64_t bit = 1ULL << bit_of(p);
    int delta;
    if (member) {
      delta = static_cast<int>(~word >> bit_of(p) & 1u);
      word |= bit;
    } else {
      delta = -static_cast<int>(word >> bit_of(p) & 1u);
      word &= ~bit;
    }
    return delta;
  }

  /// Applies accumulated assign_deferred deltas; count() is exact again
  /// once every outstanding delta has been added.
  void add_count(int delta) { count_ += delta; }

  /// Makes this set the complement of `other` over the same universe in
  /// O(universe/64); the last word stays masked to the universe, and the
  /// count is recounted from the words, so it is exact whatever other's
  /// pending deltas. The engine restarts round covering this way.
  void assign_complement(const EnabledSet& other) {
    SSS_REQUIRE(other.universe_ == universe_,
                "complement needs sets over the same universe");
    count_ = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const int tail = universe_ - static_cast<int>(w) * 64;
      words_[w] = ~other.words_[w] & (tail >= 64 ? ~0ULL : (1ULL << tail) - 1);
      count_ += std::popcount(words_[w]);
    }
  }

  /// The k-th smallest member (0-based). Requires 0 <= k < count().
  ProcessId kth(int k) const {
    SSS_ASSERT(k >= 0 && k < count_, "rank out of range");
    for (std::size_t w = 0;; ++w) {
      std::uint64_t word = words_[w];
      const int pc = std::popcount(word);
      if (k < pc) {
        while (k-- > 0) word &= word - 1;  // clear k lowest members
        return static_cast<ProcessId>(w * 64 +
                                      std::countr_zero(word));
      }
      k -= pc;
    }
  }

  /// First member with id >= from, or -1 when none.
  ProcessId next_at_least(ProcessId from) const {
    if (from < 0) from = 0;
    if (from >= universe_) return -1;
    std::size_t w = word_of(from);
    std::uint64_t word = words_[w] & (~0ULL << bit_of(from));
    for (;;) {
      if (word != 0) {
        return static_cast<ProcessId>(w * 64 + std::countr_zero(word));
      }
      if (++w == words_.size()) return -1;
      word = words_[w];
    }
  }

  /// First member strictly after `after`, wrapping around the universe;
  /// -1 when the set is empty. `after` may be -1 ("before everything").
  ProcessId next_cyclic(ProcessId after) const {
    if (count_ == 0) return -1;
    const ProcessId ahead = next_at_least(after + 1);
    return ahead >= 0 ? ahead : next_at_least(0);
  }

  /// Appends each member independently with probability q, in ascending
  /// order — the distributed daemon's coin pass. For q == 0.5 the coins
  /// are drawn 64 at a time (one rng word masks a whole set word): the
  /// per-member distribution is identical, only the rng stream layout
  /// differs from per-member chance() draws. Zero words draw nothing.
  void sample(Rng& rng, double q, std::vector<ProcessId>& out) const {
    if (q == 0.5) {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        std::uint64_t word = words_[w];
        if (word == 0) continue;
        word &= rng();
        while (word != 0) {
          out.push_back(static_cast<ProcessId>(w * 64 +
                                               std::countr_zero(word)));
          word &= word - 1;
        }
      }
      return;
    }
    for_each([&](ProcessId p) {
      if (rng.chance(q)) out.push_back(p);
    });
  }

  /// Calls f(p) for every member in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        f(static_cast<ProcessId>(w * 64 + std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

 private:
  static std::size_t word_of(ProcessId p) {
    return static_cast<std::size_t>(p) >> 6;
  }
  static int bit_of(ProcessId p) { return static_cast<int>(p & 63); }

  std::vector<std::uint64_t> words_;
  int universe_ = 0;
  int count_ = 0;
};

}  // namespace sss
