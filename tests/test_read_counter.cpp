/// An independent oracle for the read accounting of Definitions 4 and 5.
///
/// Engine and ReferenceEngine both charge reads through StepReadCounter,
/// so the lockstep suites cannot see a counter bug: both sides would make
/// it identically. Here the counter answers to NaiveReadCounter instead,
/// the definitions written the obvious way with std::set per step, on
/// hand-written read streams and on every registry protocol (and its
/// generic-efficiency composition) driven by the engine. The engine's
/// O(1) charge for repeated whole-network idle steps answers to it too,
/// against a twin engine whose attached naive logger pins the replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "runtime/daemon.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "support/require.hpp"

namespace sss {
namespace {

/// Per step: the (reader, subject, var) triples read, each charged its
/// bits once, and the distinct subjects per reader, each charged one read.
class NaiveReadCounter final : public ReadLogger {
 public:
  NaiveReadCounter(const Graph& g, const ProtocolSpec& spec)
      : graph_(g), spec_(spec) {}

  void begin_step() {
    vars_.clear();
    subjects_.clear();
    step_bits_.clear();
  }

  void on_read(ProcessId reader, ProcessId subject, int comm_var) override {
    if (!vars_.insert({reader, subject, comm_var}).second) return;
    std::set<ProcessId>& subjects = subjects_[reader];
    if (subjects.insert(subject).second) {
      ++total_reads_;
      max_reads_ = std::max(max_reads_, static_cast<int>(subjects.size()));
    }
    const int bits = spec_.comm[static_cast<std::size_t>(comm_var)]
                         .domain(graph_, subject)
                         .bits();
    total_bits_ += static_cast<std::uint64_t>(bits);
    step_bits_[reader] += bits;
    max_bits_ = std::max(max_bits_, step_bits_[reader]);
  }

  int step_reads_of(ProcessId reader) const {
    const auto it = subjects_.find(reader);
    return it == subjects_.end() ? 0 : static_cast<int>(it->second.size());
  }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_bits() const { return total_bits_; }
  int max_reads() const { return max_reads_; }
  int max_bits() const { return max_bits_; }

 private:
  const Graph& graph_;
  const ProtocolSpec& spec_;
  std::set<std::tuple<ProcessId, ProcessId, int>> vars_;
  std::map<ProcessId, std::set<ProcessId>> subjects_;
  std::map<ProcessId, int> step_bits_;
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_bits_ = 0;
  int max_reads_ = 0;
  int max_bits_ = 0;
};

/// Feeds one read to both counters.
struct Both {
  StepReadCounter& counter;
  NaiveReadCounter& naive;

  void begin_step() {
    counter.begin_step();
    naive.begin_step();
  }
  void read(ProcessId reader, ProcessId subject, int comm_var) {
    counter.on_read(reader, subject, comm_var);
    naive.on_read(reader, subject, comm_var);
  }
};

void expect_agree(const StepReadCounter& counter,
                  const NaiveReadCounter& naive, int n,
                  const std::string& where) {
  EXPECT_EQ(counter.total_reads(), naive.total_reads()) << where;
  EXPECT_EQ(counter.total_bits(), naive.total_bits()) << where;
  EXPECT_EQ(counter.max_reads_per_process_step(), naive.max_reads()) << where;
  EXPECT_EQ(counter.max_bits_per_process_step(), naive.max_bits()) << where;
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(counter.step_reads_of(p), naive.step_reads_of(p))
        << where << " p=" << p;
  }
}

/// Three comm variables of distinct widths (1, 3 and 5 bits), so every
/// bit total tells which variables were charged.
ProtocolSpec three_var_spec() {
  ProtocolSpec spec;
  spec.comm.emplace_back("a", VarDomain{0, 1});
  spec.comm.emplace_back("b", VarDomain{0, 7});
  spec.comm.emplace_back("c", VarDomain{0, 31});
  return spec;
}

TEST(ReadCounter, SyntheticStreamsMatchTheNaiveCounter) {
  const Graph g = complete(5);
  const ProtocolSpec spec = three_var_spec();
  StepReadCounter counter(g, spec);
  NaiveReadCounter naive(g, spec);
  Both both{counter, naive};

  // Step 1: re-reads of one variable, several variables of one subject,
  // two readers sharing a subject, and readers 2 and 4 with no reads.
  both.begin_step();
  both.read(0, 1, 0);
  both.read(0, 1, 0);
  both.read(0, 1, 2);
  both.read(0, 2, 1);
  both.read(0, 1, 1);
  both.read(0, 1, 2);
  both.read(3, 1, 0);
  both.read(3, 2, 1);
  both.read(3, 2, 1);
  both.read(1, 0, 2);
  expect_agree(counter, naive, g.num_vertices(), "step 1");
  EXPECT_EQ(counter.step_reads_of(0), 2);
  EXPECT_EQ(counter.step_reads_of(3), 2);
  EXPECT_EQ(counter.step_reads_of(1), 1);
  EXPECT_EQ(counter.step_reads_of(2), 0);
  EXPECT_EQ(counter.total_reads(), 5u);
  // Reader 0: 1 + 5 + 3 + 3; reader 3: 1 + 3; reader 1: 5.
  EXPECT_EQ(counter.total_bits(), 21u);
  EXPECT_EQ(counter.max_bits_per_process_step(), 12);

  // Step 2: the same reader and subject as the last run of step 1 are new
  // again after the boundary; readers of step 1 not heard now report 0.
  both.begin_step();
  both.read(1, 0, 2);
  both.read(1, 0, 2);
  both.read(1, 4, 0);
  expect_agree(counter, naive, g.num_vertices(), "step 2");
  EXPECT_EQ(counter.step_reads_of(1), 2);
  EXPECT_EQ(counter.step_reads_of(0), 0);
  EXPECT_EQ(counter.step_reads_of(3), 0);

  // Step 3: readers in descending order, each reading every subject and
  // variable, so the per-step maxima move.
  both.begin_step();
  for (ProcessId reader = 4; reader >= 0; --reader) {
    for (ProcessId subject = 0; subject < g.num_vertices(); ++subject) {
      if (subject == reader) continue;
      for (int var = 2; var >= 0; --var) both.read(reader, subject, var);
    }
  }
  expect_agree(counter, naive, g.num_vertices(), "step 3");
  EXPECT_EQ(counter.max_reads_per_process_step(), 4);
  EXPECT_EQ(counter.max_bits_per_process_step(), 4 * 9);

  // An empty step changes nothing but step_reads_of.
  both.begin_step();
  expect_agree(counter, naive, g.num_vertices(), "empty step");
}

TEST(ReadCounter, AReaderReenteringOneStepThrows) {
  const Graph g = complete(4);
  const ProtocolSpec spec = three_var_spec();
  StepReadCounter counter(g, spec);
  counter.begin_step();
  counter.on_read(0, 1, 0);
  counter.on_read(2, 1, 0);
  EXPECT_THROW(counter.on_read(0, 3, 0), InvariantError);
  // After a step boundary the same reader may start a run again.
  counter.begin_step();
  EXPECT_NO_THROW(counter.on_read(0, 3, 0));
  EXPECT_NO_THROW(counter.on_read(2, 1, 0));
}

TEST(ReadCounter, AReaderNotTouchedThisStepReportsZero) {
  const Graph g = complete(4);
  const ProtocolSpec spec = three_var_spec();
  StepReadCounter counter(g, spec);
  EXPECT_EQ(counter.step_reads_of(3), 0);
  counter.begin_step();
  counter.on_read(3, 0, 0);
  counter.on_read(3, 1, 0);
  EXPECT_EQ(counter.step_reads_of(3), 2);
  counter.begin_step();
  EXPECT_EQ(counter.step_reads_of(3), 0);
  counter.on_read(1, 3, 0);
  EXPECT_EQ(counter.step_reads_of(3), 0);
  EXPECT_EQ(counter.step_reads_of(1), 1);
}

TEST(ReadCounter, WiderThanSixtyFourVariablesIsRejected) {
  const Graph g = path(2);
  ProtocolSpec spec;
  for (int v = 0; v < 65; ++v) {
    spec.comm.emplace_back("v" + std::to_string(v), VarDomain{0, 1});
  }
  EXPECT_THROW(StepReadCounter(g, spec), PreconditionError);
  spec.comm.pop_back();
  EXPECT_NO_THROW(StepReadCounter(g, spec));
}

/// Runs `selection` on `g` under `daemon` with both counters attached to
/// the engine and compares them after every step, and the engine's own
/// counter (fed through the same mux) on the totals and maxima.
void expect_engine_agrees(const ProtocolSelection& selection, const Graph& g,
                          const std::string& daemon, std::uint64_t seed) {
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make(selection, g);
  Engine engine(g, *protocol, make_daemon(daemon), seed);
  engine.randomize_state();
  StepReadCounter counter(g, protocol->spec());
  NaiveReadCounter naive(g, protocol->spec());
  engine.attach_read_logger(&counter);
  engine.attach_read_logger(&naive);
  const std::string where = protocol->name() + "/" + g.name() + "/" + daemon;
  for (int step = 0; step < 300; ++step) {
    if (engine.num_enabled() == 0) break;
    counter.begin_step();
    naive.begin_step();
    engine.step();
    expect_agree(counter, naive, g.num_vertices(),
                 where + " step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
  const StepReadCounter& own = engine.read_counter();
  EXPECT_EQ(own.total_reads(), naive.total_reads()) << where;
  EXPECT_EQ(own.total_bits(), naive.total_bits()) << where;
  EXPECT_EQ(own.max_reads_per_process_step(), naive.max_reads()) << where;
  EXPECT_EQ(own.max_bits_per_process_step(), naive.max_bits()) << where;
  EXPECT_GT(naive.total_reads(), 0u) << where;
}

TEST(ReadCounter, EveryRegistryProtocolMatchesTheNaiveCounter) {
  // Two of the property harness's menagerie graphs: a 3-regular one and
  // dense cliques behind thin bridges.
  std::vector<Graph> graphs;
  graphs.push_back(petersen());
  graphs.push_back(grid_of_clusters(2, 2, 4));
  std::uint64_t seed = 900;
  for (const std::string& base :
       ProtocolRegistry::instance().protocol_names()) {
    for (const ProtocolSelection& selection :
         {ProtocolSelection::base(base),
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base(base))}) {
      for (const Graph& g : graphs) {
        for (const char* daemon :
             {"central-rr", "distributed", "synchronous"}) {
          expect_engine_agrees(selection, g, daemon, seed++);
          if (HasFailure()) return;
        }
      }
    }
  }
}

/// Steps `engine` (its own counter only, so repeated idle steps take the
/// O(1) charge of engine invariant 4) and `twin` (pinned to the memo
/// replay by the attached `naive` logger) in lockstep, comparing the
/// engine's totals and maxima with the naive ones after every step.
void step_twins(Engine& engine, Engine& twin, NaiveReadCounter& naive,
                int steps, const std::string& where) {
  for (int s = 0; s < steps; ++s) {
    naive.begin_step();
    engine.step();
    twin.step();
    const std::string at = where + " step " + std::to_string(s);
    ASSERT_TRUE(engine.config() == twin.config()) << at;
    const StepReadCounter& own = engine.read_counter();
    ASSERT_EQ(own.total_reads(), naive.total_reads()) << at;
    ASSERT_EQ(own.total_bits(), naive.total_bits()) << at;
    ASSERT_EQ(own.max_reads_per_process_step(), naive.max_reads()) << at;
    ASSERT_EQ(own.max_bits_per_process_step(), naive.max_bits()) << at;
    ASSERT_EQ(twin.read_counter().total_reads(), naive.total_reads()) << at;
  }
}

/// Steps the twins until nothing is enabled, then 2n whole-network
/// all-disabled synchronous steps: the first replays the memos after the
/// settling refresh, every later one takes the O(1) charge, and the
/// pinned twin takes none.
void settle_then_idle(Engine& engine, Engine& twin, NaiveReadCounter& naive,
                      const std::string& where) {
  for (int s = 0; s < 10'000 && engine.num_enabled() > 0; ++s) {
    step_twins(engine, twin, naive, 1, where + " settling");
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_EQ(engine.num_enabled(), 0) << where;
  const int n = engine.graph().num_vertices();
  const std::uint64_t charges_before = engine.idle_charges();
  step_twins(engine, twin, naive, 2 * n, where + " idle");
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(engine.idle_charges() - charges_before,
            static_cast<std::uint64_t>(2 * n - 1))
      << where;
  ASSERT_EQ(twin.idle_charges(), 0u) << where;
  ASSERT_GT(naive.total_reads(), 0u) << where;
}

/// The synchronous idle sequence on a registry protocol that goes all
/// disabled at silence, with a corruption and a set_config mid-sequence.
void expect_idle_charge_matches(const std::string& name, int threads) {
  const Graph g = grid_of_clusters(2, 2, 4);
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make(ProtocolSelection::base(name), g);
  Engine engine(g, *protocol, make_daemon("synchronous"), 41);
  Engine twin(g, *protocol, make_daemon("synchronous"), 41);
  engine.set_parallel_threads(threads);
  twin.set_parallel_threads(threads);
  NaiveReadCounter naive(g, protocol->spec());
  twin.attach_read_logger(&naive);
  engine.randomize_state();
  twin.randomize_state();
  const std::string where = name + " threads " + std::to_string(threads);
  settle_then_idle(engine, twin, naive, where);
  if (::testing::Test::HasFatalFailure()) return;

  Rng engine_faults(42);
  Rng twin_faults(42);
  engine.apply_external_corruption({0, 7, 12}, engine_faults);
  twin.apply_external_corruption({0, 7, 12}, twin_faults);
  settle_then_idle(engine, twin, naive, where + " after corruption");
  if (::testing::Test::HasFatalFailure()) return;

  Engine other(g, *protocol, make_daemon("synchronous"), 43);
  other.randomize_state();
  other.run(RunOptions{});
  engine.set_config(other.config());
  twin.set_config(other.config());
  settle_then_idle(engine, twin, naive, where + " after set_config");
}

TEST(ReadCounter, RepeatedIdleStepsMatchTheNaiveCounter) {
  for (const char* name : {"full-read-mis", "full-read-bfs-tree"}) {
    for (const int threads : {1, 2, 8}) {
      expect_idle_charge_matches(name, threads);
      if (HasFatalFailure()) return;
    }
  }
}

/// Never enabled; its guard reads neighbours in channel order until one
/// holds 1, so what an idle step reads depends on the configuration.
class LazyIdleReader final : public Protocol {
 public:
  LazyIdleReader() { spec_.comm.emplace_back("B", VarDomain{0, 1}); }
  const std::string& name() const override {
    static const std::string kName = "LAZY-IDLE-READER";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext& ctx) const override {
    for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
      if (ctx.nbr_comm(ch, 0) == 1) break;
    }
    return kDisabled;
  }
  void execute(int, ActionContext&) const override {}

 private:
  ProtocolSpec spec_;
};

TEST(ReadCounter, ConfigurationChangesInvalidateTheIdleCharge) {
  // Every step of LAZY-IDLE-READER is idle, and its charge changes with
  // the configuration: all zeros reads every channel, all ones reads one
  // per process. A stale charge after set_config or a corruption would
  // show up as a total the naive counter does not reach.
  const Graph g = grid_of_clusters(2, 2, 4);
  const LazyIdleReader protocol;
  for (const int threads : {1, 2, 8}) {
    Engine engine(g, protocol, make_daemon("synchronous"), 51);
    Engine twin(g, protocol, make_daemon("synchronous"), 51);
    engine.set_parallel_threads(threads);
    twin.set_parallel_threads(threads);
    NaiveReadCounter naive(g, protocol.spec());
    twin.attach_read_logger(&naive);
    const std::string where = "threads " + std::to_string(threads);
    const auto per_step = [&](const std::string& phase) {
      const std::uint64_t before = naive.total_reads();
      const std::uint64_t charges_before = engine.idle_charges();
      step_twins(engine, twin, naive, 3, where + " " + phase);
      // The change invalidated the charge: one replay, then two charges.
      EXPECT_EQ(engine.idle_charges() - charges_before, 2u)
          << where << " " << phase;
      return (naive.total_reads() - before) / 3;
    };
    Configuration zeros = engine.config();
    Configuration ones = engine.config();
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      zeros.set_comm(p, 0, 0);
      ones.set_comm(p, 0, 1);
    }
    engine.set_config(zeros);
    twin.set_config(zeros);
    const std::uint64_t all_channels = per_step("zeros");
    engine.set_config(ones);
    twin.set_config(ones);
    const std::uint64_t one_each = per_step("ones");
    ASSERT_EQ(all_channels, static_cast<std::uint64_t>(2 * g.num_edges()))
        << where;
    ASSERT_EQ(one_each, static_cast<std::uint64_t>(g.num_vertices()))
        << where;
    Rng engine_faults(52);
    Rng twin_faults(52);
    const std::vector<ProcessId> victims = {0, 1, 2, 3, 4, 5, 6, 7};
    engine.apply_external_corruption(victims, engine_faults);
    twin.apply_external_corruption(victims, twin_faults);
    EXPECT_NE(per_step("corrupted"), one_each) << where;
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sss
