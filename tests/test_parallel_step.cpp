/// Intra-trial parallelism (engine invariant 7): an Engine with N worker
/// threads must be indistinguishable — bit for bit — from the same Engine
/// single-threaded. Parallelism partitions guard refreshes and action
/// executions over contiguous 64-aligned process ranges and merges every
/// order-sensitive effect serially in ascending order, so configurations,
/// StepInfo, round counts, and all four read metrics never depend on the
/// thread count. Layers of checks:
///
///  * StepPool unit tests: every worker runs, the pool is reusable, and a
///    worker's exception is rethrown from run() after the barrier;
///  * serial-vs-parallel engine lockstep over every registry protocol,
///    the menagerie plus >= 256-node instances of the new production
///    families, all daemons, and thread counts {2, 3, 8} — under the
///    scalar, bulk, and auto refresh strategies;
///  * run()-level RunStats equality including quiescence certification;
///  * parallel Engine vs the full-scan ReferenceEngine oracle;
///  * the determinism gates: probabilistic protocols and engines with an
///    external read logger attached fall back to the serial path and stay
///    identical.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/coloring_protocol.hpp"
#include "core/problems.hpp"
#include "core/protocol_registry.hpp"
#include "graph/coloring.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel.hpp"
#include "runtime/reference_engine.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

TEST(StepPool, EveryWorkerRunsAndThePoolIsReusable) {
  StepPool pool(4);
  ASSERT_EQ(pool.threads(), 4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(4);
    for (auto& h : hits) h = 0;
    pool.run([&](int worker) { ++hits[static_cast<std::size_t>(worker)]; });
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(hits[static_cast<std::size_t>(w)].load(), 1)
          << "round " << round << " worker " << w;
    }
  }
}

TEST(StepPool, SingleThreadRunsInline) {
  StepPool pool(1);
  int calls = 0;
  pool.run([&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(StepPool, WorkerExceptionIsRethrownAfterTheBarrier) {
  StepPool pool(3);
  EXPECT_THROW(pool.run([](int worker) {
                 if (worker == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool must survive the throw: the next run still reaches everyone.
  std::atomic<int> total{0};
  pool.run([&](int) { ++total; });
  EXPECT_EQ(total.load(), 3);
}

/// Two engines from the same seed, one serial and one with `threads`
/// workers, stepped in lockstep: everything observable must stay equal.
void expect_thread_lockstep(const Graph& g, const Protocol& protocol,
                            const std::string& daemon_name,
                            std::uint64_t seed, int steps, int threads,
                            SweepMode mode) {
  const std::string context = protocol.name() + "/" + g.name() + "/" +
                              daemon_name + "/threads=" +
                              std::to_string(threads);
  Engine serial(g, protocol, make_daemon(daemon_name), seed);
  Engine parallel(g, protocol, make_daemon(daemon_name), seed);
  serial.set_sweep_mode(mode);
  parallel.set_sweep_mode(mode);
  parallel.set_parallel_threads(threads);
  serial.randomize_state();
  parallel.randomize_state();
  ASSERT_TRUE(serial.config() == parallel.config()) << context;

  for (int s = 0; s < steps; ++s) {
    const Engine::StepInfo a = serial.step();
    const Engine::StepInfo b = parallel.step();
    ASSERT_EQ(a.selected, b.selected) << context << " step " << s;
    ASSERT_EQ(a.fired, b.fired) << context << " step " << s;
    ASSERT_EQ(a.comm_changed, b.comm_changed) << context << " step " << s;
    ASSERT_TRUE(serial.config() == parallel.config())
        << context << " diverged at step " << s;
    ASSERT_EQ(serial.rounds(), parallel.rounds()) << context << " step " << s;
    ASSERT_EQ(serial.num_enabled(), parallel.num_enabled())
        << context << " step " << s;
    ASSERT_EQ(serial.read_counter().total_reads(),
              parallel.read_counter().total_reads())
        << context << " step " << s;
    ASSERT_EQ(serial.read_counter().total_bits(),
              parallel.read_counter().total_bits())
        << context << " step " << s;
    ASSERT_EQ(serial.read_counter().max_reads_per_process_step(),
              parallel.read_counter().max_reads_per_process_step())
        << context << " step " << s;
    ASSERT_EQ(serial.read_counter().max_bits_per_process_step(),
              parallel.read_counter().max_bits_per_process_step())
        << context << " step " << s;
  }
}

/// The small menagerie plus >= 256-node instances of the production
/// families, where every thread count actually owns multiple 64-aligned
/// chunks.
std::vector<testing::NamedGraph> parallel_graphs() {
  Rng rng(0x90aULL);
  std::vector<testing::NamedGraph> graphs;
  graphs.push_back({"path8", path(8)});
  graphs.push_back({"grid3x4", grid(3, 4)});
  graphs.push_back({"petersen", petersen()});
  graphs.push_back({"pa300", preferential_attachment(300, 3, rng)});
  graphs.push_back({"geo280", random_geometric(280, 0.12, rng)});
  graphs.push_back({"clusters320", grid_of_clusters(4, 5, 16)});
  return graphs;
}

TEST(ParallelStep, LockstepAcrossRegistryDaemonsAndThreadCounts) {
  for (const auto& named : parallel_graphs()) {
    for (const std::string& name : ProtocolRegistry::instance().protocol_names()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(name, named.graph, {});
      for (const std::string& daemon_name : daemon_names()) {
        for (int threads : {2, 3, 8}) {
          expect_thread_lockstep(named.graph, *protocol, daemon_name, 7501,
                                 named.graph.num_vertices() >= 256 ? 24 : 96,
                                 threads, SweepMode::kAuto);
        }
      }
    }
  }
}

TEST(ParallelStep, LockstepUnderForcedScalarRefresh) {
  // kAuto above runs the range-partitioned bulk sweep; the
  // range-partitioned scalar drain must match its serial twin too.
  Rng rng(0x90bULL);
  const Graph g = preferential_attachment(300, 3, rng);
  for (const std::string& name : {"mis", "matching", "bfs-tree"}) {
    const std::unique_ptr<Protocol> protocol =
        ProtocolRegistry::instance().make(name, g, {});
    for (const std::string& daemon_name : {"synchronous", "distributed"}) {
      expect_thread_lockstep(g, *protocol, daemon_name, 881, 32, 4,
                             SweepMode::kForceScalar);
    }
  }
}

void expect_same_stats(const RunStats& a, const RunStats& b,
                       const std::string& context) {
  EXPECT_EQ(a.steps, b.steps) << context;
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.silent, b.silent) << context;
  EXPECT_EQ(a.steps_to_silence, b.steps_to_silence) << context;
  EXPECT_EQ(a.rounds_to_silence, b.rounds_to_silence) << context;
  EXPECT_EQ(a.reached_legitimate, b.reached_legitimate) << context;
  EXPECT_EQ(a.steps_to_legitimate, b.steps_to_legitimate) << context;
  EXPECT_EQ(a.rounds_to_legitimate, b.rounds_to_legitimate) << context;
  EXPECT_EQ(a.total_reads, b.total_reads) << context;
  EXPECT_EQ(a.total_read_bits, b.total_read_bits) << context;
  EXPECT_EQ(a.max_reads_per_process_step, b.max_reads_per_process_step)
      << context;
  EXPECT_EQ(a.max_bits_per_process_step, b.max_bits_per_process_step)
      << context;
}

TEST(ParallelStep, RunStatsIdenticalAtEveryThreadCount) {
  const MisProblem problem;
  for (const auto& named : parallel_graphs()) {
    const std::unique_ptr<Protocol> protocol =
        ProtocolRegistry::instance().make("mis", named.graph, {});
    for (const std::string& daemon_name : {"synchronous", "distributed"}) {
      const std::uint64_t seed = 40 + named.graph.num_vertices();
      Engine serial(named.graph, *protocol, make_daemon(daemon_name), seed);
      serial.randomize_state();
      RunOptions options;
      options.max_steps = 30'000;
      options.legitimacy = problem.predicate();
      const RunStats base = serial.run(options);
      for (int threads : {2, 8}) {
        Engine parallel(named.graph, *protocol, make_daemon(daemon_name),
                        seed);
        parallel.set_parallel_threads(threads);
        parallel.randomize_state();
        const RunStats stats = parallel.run(options);
        expect_same_stats(base, stats,
                          named.label + "/" + daemon_name + "/threads=" +
                              std::to_string(threads));
        EXPECT_TRUE(serial.config() == parallel.config());
      }
    }
  }
}

TEST(ParallelStep, ParallelEngineLockstepsTheReferenceOracle) {
  // Not just serial-Engine-equivalent: the parallel engine must match the
  // original full-scan semantics oracle directly.
  Rng rng(0x90cULL);
  const Graph g = random_geometric(280, 0.12, rng);
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make("matching", g, {});
  for (const std::string& daemon_name : daemon_names()) {
    Engine fast(g, *protocol, make_daemon(daemon_name), 662);
    ReferenceEngine oracle(g, *protocol, make_daemon(daemon_name), 662);
    fast.set_parallel_threads(3);
    fast.randomize_state();
    oracle.randomize_state();
    for (int s = 0; s < 48; ++s) {
      const Engine::StepInfo a = fast.step();
      const Engine::StepInfo b = oracle.step();
      ASSERT_EQ(a.selected, b.selected) << daemon_name << " step " << s;
      ASSERT_EQ(a.fired, b.fired) << daemon_name << " step " << s;
      ASSERT_TRUE(fast.config() == oracle.config())
          << daemon_name << " diverged at step " << s;
      ASSERT_EQ(fast.rounds(), oracle.rounds());
      ASSERT_EQ(fast.read_counter().total_reads(),
                oracle.read_counter().total_reads());
      ASSERT_EQ(fast.read_counter().max_reads_per_process_step(),
                oracle.read_counter().max_reads_per_process_step());
    }
  }
}

TEST(ParallelStep, ProbabilisticProtocolFallsBackAndStaysIdentical) {
  // Coloring draws randomness per activation; the engine must refuse to
  // parallelize its action phase (the shared rng stream is order-
  // sensitive) while still parallelizing guard refreshes — and the
  // trajectory must not notice.
  const Graph g = grid_of_clusters(4, 5, 16);
  const ColoringProtocol protocol(g);
  ASSERT_TRUE(protocol.is_probabilistic());
  for (const std::string& daemon_name : {"synchronous", "central-rr"}) {
    expect_thread_lockstep(g, protocol, daemon_name, 3301, 64, 4,
                           SweepMode::kAuto);
  }
}

/// Collects (reader, subject, var) triples — order matters.
class SequenceLogger final : public ReadLogger {
 public:
  std::vector<std::tuple<ProcessId, ProcessId, int>> reads;
  void on_read(ProcessId reader, ProcessId subject, int comm_var) override {
    reads.push_back({reader, subject, comm_var});
  }
};

TEST(ParallelStep, ExternalReadLoggerForcesTheSerialPathExactly) {
  // An attached logger observes the engine's global read order, which the
  // parallel path cannot reproduce — so it must not try: sequences from a
  // parallel-configured engine must equal the serial engine's, not just
  // up to permutation.
  Rng rng(0x90dULL);
  const Graph g = preferential_attachment(300, 3, rng);
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make("mis", g, {});
  SequenceLogger serial_log;
  SequenceLogger parallel_log;
  Engine serial(g, *protocol, make_synchronous_daemon(), 17);
  Engine parallel(g, *protocol, make_synchronous_daemon(), 17);
  parallel.set_parallel_threads(4);
  serial.attach_read_logger(&serial_log);
  parallel.attach_read_logger(&parallel_log);
  serial.randomize_state();
  parallel.randomize_state();
  for (int s = 0; s < 12; ++s) {
    serial.step();
    parallel.step();
    ASSERT_TRUE(serial.config() == parallel.config()) << "step " << s;
  }
  EXPECT_EQ(serial_log.reads, parallel_log.reads);
}

TEST(ParallelStep, ThreadCountCanChangeMidTrajectory) {
  // set_parallel_threads is a pure implementation switch: flipping it
  // between steps must leave the trajectory on the serial rail.
  const Graph g = grid_of_clusters(4, 5, 16);
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make("mis", g, {});
  Engine serial(g, *protocol, make_distributed_random_daemon(), 5150);
  Engine shifting(g, *protocol, make_distributed_random_daemon(), 5150);
  serial.randomize_state();
  shifting.randomize_state();
  const int schedule[] = {1, 4, 2, 8, 1, 3};
  for (int s = 0; s < 60; ++s) {
    shifting.set_parallel_threads(schedule[s % 6]);
    serial.step();
    shifting.step();
    ASSERT_TRUE(serial.config() == shifting.config()) << "step " << s;
    ASSERT_EQ(serial.read_counter().total_reads(),
              shifting.read_counter().total_reads())
        << "step " << s;
  }
}

}  // namespace
}  // namespace sss
