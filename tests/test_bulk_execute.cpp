/// The execute hook's contract (runtime/bulk.hpp): for every protocol,
/// kernel or scalar default, one `execute_selected` pass over a selection
/// must reproduce — write for write, logged read for logged read, random
/// draw for random draw — what the per-process scalar `execute` calls
/// produce, and a kAuto Engine (the kernel at every selection size) must
/// stay bit-identical to one forced onto the scalar default (that every
/// registry protocol has the kernel is checked by
/// BulkSweep.EveryRegistryProtocolOptsIn: has_bulk_sweep covers both
/// hooks). SweepMode governs both the guard-sweep half (invariant 5) and
/// this execute half (invariant 6), so the checks here deliberately stress the
/// execute-specific corners the sweep suite cannot: probabilistic
/// protocols replaying the engine RNG stream, composition with the
/// parallel step (invariant 7), and mid-trajectory mode flips. The
/// lockstep grids run over testing::kernel_selections(): the registry,
/// generic-efficiency over each entry, and a depth-2 composition.
///
/// The direct check holds the kernel's read stream to the scalar one:
/// phase 1 re-runs each selected guard and charges its reads where they
/// happen, so the stream a kernel logs for a selection must be, process
/// by process, exactly what scalar `evaluate_process` logs — guard reads,
/// then action reads, in order, as one contiguous run per process.
///
/// The registry-wide harness additionally runs the full property grid
/// under kAuto and under kForceScalar (tests/test_protocol_properties.cpp) and
/// proves falsifiability with deliberately wrong execute kernels
/// (tests/test_protocol_harness.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/protocol_registry.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

/// kAuto (bulk) vs kForceScalar engines from the same seed must produce
/// identical computations and metrics, and, with `certify`, identical
/// silence answers after every step. `bulk_threads` > 1 additionally
/// routes the bulk engine through the parallel step, exercising the
/// per-worker bulk kernel slices and the two-barrier commit.
void expect_mode_lockstep(const Graph& g, const Protocol& protocol,
                          const std::string& daemon_name, std::uint64_t seed,
                          int steps, int bulk_threads = 1,
                          bool certify = true) {
  Engine bulk(g, protocol, make_daemon(daemon_name), seed);
  Engine scalar(g, protocol, make_daemon(daemon_name), seed);
  bulk.set_parallel_threads(bulk_threads);
  scalar.set_sweep_mode(SweepMode::kForceScalar);
  bulk.randomize_state();
  scalar.randomize_state();
  ASSERT_EQ(bulk.config(), scalar.config());
  for (int s = 0; s < steps; ++s) {
    ASSERT_EQ(bulk.num_enabled(), scalar.num_enabled())
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " threads " << bulk_threads << " step " << s;
    const Engine::StepInfo a = bulk.step();
    const Engine::StepInfo b = scalar.step();
    ASSERT_EQ(a.selected, b.selected)
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " threads " << bulk_threads << " step " << s;
    ASSERT_EQ(a.fired, b.fired);
    ASSERT_EQ(a.comm_changed, b.comm_changed);
    ASSERT_EQ(bulk.config(), scalar.config())
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " threads " << bulk_threads << " step " << s;
    ASSERT_EQ(bulk.rounds(), scalar.rounds());
    ASSERT_EQ(bulk.read_counter().total_reads(),
              scalar.read_counter().total_reads());
    ASSERT_EQ(bulk.read_counter().total_bits(),
              scalar.read_counter().total_bits());
    ASSERT_EQ(bulk.read_counter().max_reads_per_process_step(),
              scalar.read_counter().max_reads_per_process_step());
    if (!certify) continue;
    // Silence certification: the kernel hook against the scalar default,
    // through the cache and through the full check.
    const bool certified = bulk.certified_silent();
    ASSERT_EQ(certified, scalar.certified_silent())
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " threads " << bulk_threads << " step " << s;
    ASSERT_EQ(bulk.quiescent(), certified)
        << protocol.name() << "/" << g.name() << "/" << daemon_name
        << " threads " << bulk_threads << " step " << s;
    ASSERT_EQ(scalar.quiescent(), certified);
  }
}

/// Records every read as (reader, subject, var), in arrival order.
class RecordingLogger final : public ReadLogger {
 public:
  std::vector<std::tuple<ProcessId, ProcessId, int>> reads;
  void on_read(ProcessId reader, ProcessId subject, int comm_var) override {
    reads.emplace_back(reader, subject, comm_var);
  }
};

/// Ascending selections the execute kernel is held to on `g`: one
/// process, a random quarter of the network, and all of it. Disabled
/// processes are selected too; their guards run and are charged all the
/// same.
std::vector<std::vector<ProcessId>> execute_selections(const Graph& g,
                                                       Rng& rng) {
  const int n = g.num_vertices();
  std::vector<ProcessId> all(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) all[static_cast<std::size_t>(p)] = p;
  std::vector<ProcessId> shuffled = all;
  shuffle(shuffled, rng);
  const std::size_t quarter = std::max<std::size_t>(1, shuffled.size() / 4);
  std::vector<ProcessId> some(shuffled.begin(), shuffled.begin() + quarter);
  std::sort(some.begin(), some.end());
  return {{shuffled.front()}, some, all};
}

/// Runs `execute_selected` over each selection of one randomized
/// configuration — whole, and split into three worker slices run in
/// order — and compares the logged read stream with the concatenation of
/// scalar `evaluate_process` streams, and each staged row with the scalar
/// writes applied to the snapshot row.
void expect_kernel_reads_match_scalar(const Graph& g, const Protocol& protocol,
                                      std::uint64_t seed) {
  const int n = g.num_vertices();
  Configuration config(g, protocol.spec());
  Rng rng(seed);
  randomize_configuration(g, protocol.spec(), config, rng);
  protocol.install_constants(g, config);
  EnabledBitmap refreshed;
  refreshed.reset(n);
  std::vector<ProcessId> all(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) all[static_cast<std::size_t>(p)] = p;
  BulkGuardContext guard_ctx(g, config);
  protocol.sweep_enabled_ids(guard_ctx, refreshed, all);

  const auto stride = static_cast<std::size_t>(config.stride());
  for (const std::vector<ProcessId>& selection : execute_selections(g, rng)) {
    // Probabilistic actions draw in ascending selection order on both
    // sides, from identically seeded streams.
    RecordingLogger scalar;
    std::vector<std::vector<Value>> scalar_rows;
    Rng scalar_rng(seed ^ 0x5eedULL);
    for (const ProcessId p : selection) {
      const ProcessStep step =
          evaluate_process(g, protocol, config, p, scalar_rng, &scalar);
      ASSERT_EQ(step.action, refreshed.action(p));
      Configuration post = config;
      commit_writes(post, p, step.writes);
      scalar_rows.emplace_back(post.row(p), post.row(p) + stride);
    }

    for (const std::size_t slices : {std::size_t{1}, std::size_t{3}}) {
      const std::string where =
          protocol.name() + " on " + g.name() + " seed " +
          std::to_string(seed) + ", " + std::to_string(selection.size()) +
          " selected, " + std::to_string(slices) + " slice(s)";
      RecordingLogger kernel;
      std::vector<Value> staged(selection.size() * stride);
      Rng kernel_rng(seed ^ 0x5eedULL);
      BulkExecContext ctx(g, config, ReadSink(kernel), staged.data(), stride,
                          protocol.is_probabilistic() ? &kernel_rng : nullptr);
      const std::size_t chunk = (selection.size() + slices - 1) / slices;
      for (std::size_t begin = 0; begin < selection.size(); begin += chunk) {
        protocol.execute_selected(
            ctx, refreshed, selection, begin,
            std::min(selection.size(), begin + chunk));
      }
      EXPECT_EQ(kernel.reads, scalar.reads) << where;
      for (std::size_t i = 0; i < selection.size(); ++i) {
        if (refreshed.action(selection[i]) == Protocol::kDisabled) continue;
        const std::vector<Value> row(staged.begin() + i * stride,
                                     staged.begin() + (i + 1) * stride);
        EXPECT_EQ(row, scalar_rows[i])
            << where << ": process " << selection[i];
      }
    }
  }
}

TEST(BulkExecute, KernelReadStreamMatchesScalarEvaluateProcess) {
  for (const ProtocolSelection& selection : testing::kernel_selections()) {
    for (const auto& named : testing::sweep_graphs()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(selection, named.graph);
      // The depth-2 composition has no kernel: this holds the scalar
      // default to evaluate_process.
      for (std::uint64_t seed : {201u, 202u, 203u}) {
        expect_kernel_reads_match_scalar(named.graph, *protocol, seed);
      }
    }
  }
}

TEST(BulkExecute, AutoEngineLockstepsForcedScalarEngine) {
  // Deliberately a different menagerie slice and seed than the bulk-sweep
  // lockstep, so together the two suites cover six graphs. Probabilistic
  // protocols ride the serial bulk path here, proving the engine-RNG
  // draw order is replayed bit-for-bit.
  const std::vector<testing::NamedGraph> graphs = testing::sweep_graphs();
  for (const ProtocolSelection& selection : testing::kernel_selections()) {
    for (const auto& named : {graphs[1], graphs[3], graphs[5]}) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(selection, named.graph);
      for (const std::string& daemon_name : daemon_names()) {
        expect_mode_lockstep(named.graph, *protocol, daemon_name, 1337, 64);
      }
    }
  }
}

TEST(BulkExecute, ParallelWorkersComposeWithBulkExecute) {
  // Invariants 6 and 7 together: each worker runs the bulk kernel over
  // its contiguous selection slice and the serial ascending merge commits
  // the staged rows — the result must sit on the single-threaded scalar
  // rail at every thread count. (Probabilistic protocols fall back to the
  // serial step under parallel_threads > 1; they still lockstep.)
  // Certification never fans out; AutoEngineLockstepsForcedScalarEngine
  // checks it after every step.
  Rng graph_rng(0xb01dULL);
  std::vector<testing::NamedGraph> graphs;
  graphs.push_back({"grid3x4", grid(3, 4)});
  graphs.push_back({"pa200", preferential_attachment(200, 3, graph_rng)});
  for (const ProtocolSelection& selection : testing::kernel_selections()) {
    for (const auto& named : graphs) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(selection, named.graph);
      for (int threads : {2, 3, 8}) {
        for (const std::string& daemon_name :
             {std::string("synchronous"), std::string("distributed")}) {
          expect_mode_lockstep(named.graph, *protocol, daemon_name, 2024, 48,
                               threads, /*certify=*/false);
        }
      }
    }
  }
}

TEST(BulkExecute, SweepModeCanChangeMidTrajectory) {
  // set_sweep_mode is a pure implementation switch: flipping it between
  // steps must leave the trajectory on the scalar rail. The coloring leg
  // flips a probabilistic protocol between the scalar ActionContext draws
  // and the bulk kernel's direct engine-RNG draws — same stream either
  // way, so the colors must not care.
  const Graph g = grid(3, 4);
  const SweepMode schedule[] = {SweepMode::kAuto,        SweepMode::kForceScalar,
                                SweepMode::kForceScalar, SweepMode::kAuto,
                                SweepMode::kAuto,        SweepMode::kForceScalar};
  for (const std::string& name : {std::string("mis"), std::string("coloring"),
                                  std::string("full-read-matching")}) {
    const std::unique_ptr<Protocol> protocol =
        ProtocolRegistry::instance().make(name, g, {});
    Engine scalar(g, *protocol, make_distributed_random_daemon(), 5150);
    Engine shifting(g, *protocol, make_distributed_random_daemon(), 5150);
    scalar.set_sweep_mode(SweepMode::kForceScalar);
    scalar.randomize_state();
    shifting.randomize_state();
    for (int s = 0; s < 60; ++s) {
      shifting.set_sweep_mode(schedule[s % 6]);
      scalar.step();
      shifting.step();
      ASSERT_EQ(scalar.config(), shifting.config())
          << name << " step " << s;
      ASSERT_EQ(scalar.read_counter().total_reads(),
                shifting.read_counter().total_reads())
          << name << " step " << s;
    }
  }
}

}  // namespace
}  // namespace sss
