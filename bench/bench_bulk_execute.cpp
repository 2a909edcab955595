/// E16 — bulk action execution vs scalar ActionContexts under the
/// synchronous daemon.
///
/// Not a paper claim: measures the engine's two execute strategies
/// (runtime/bulk.hpp, engine invariant 6) — per-process scalar
/// `execute` calls through ActionContext vs the one-pass
/// `execute_selected` CSR kernels staging whole configuration rows —
/// for every registry protocol on graphs at n ~= 2000 and n ~= 20000.
/// The synchronous daemon is the workload the bulk path exists for:
/// every step selects all enabled processes at once, so the execute
/// phase runs over nearly the whole network. Two sections:
///
///  * E16  — whole-engine steps/sec, deployed configuration
///    (SweepMode::kAuto, which bulk-executes every selection and
///    refreshes every dirty guard through the slab kernel) vs
///    kForceScalar.
///    Windows interleave `randomize_state()` with 32-step bursts so
///    converging protocols are measured on live convergence work. The
///    ratio is the *combined* win of invariants 5 and 6 — what a user
///    flipping force_scalar -> auto observes.
///  * E16b — phase-1 throughput: actions/sec of one pass over an
///    all-selected randomized configuration, `execute_selected` vs a
///    scalar GuardContext + ActionContext loop, both re-running each
///    guard and running its action, logging into the same logger. This
///    isolates phase 1 from the refresh and the commit.
///
/// Both strategies are bit-identical by construction (asserted here over
/// a lockstep prefix, proven at scale by tests/test_bulk_execute.cpp and
/// the default property grid), so every ratio is a pure
/// implementation win. The `speedup` fields are gated by the bench-diff
/// CI job. Pass --quick for a CI-sized run.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/protocol_registry.hpp"
#include "runtime/bulk.hpp"
#include "runtime/context.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "support/bench_json.hpp"

namespace {

using namespace sss;

std::vector<Graph> execute_bench_graphs() {
  Rng rng(0x2009ULL);
  std::vector<Graph> graphs;
  graphs.push_back(cycle(2000));
  graphs.push_back(random_regular(2000, 4, rng));
  graphs.push_back(random_regular(20000, 4, rng));
  return graphs;
}

/// Steps/second over repeated (randomize, burst-of-steps) rounds.
double measure_steps_per_sec(Engine& engine, double min_seconds) {
  using clock = std::chrono::steady_clock;
  constexpr int kBurst = 32;
  engine.randomize_state();
  for (int i = 0; i < kBurst; ++i) engine.step();  // warmup
  std::uint64_t steps = 0;
  const auto begin = clock::now();
  double elapsed = 0.0;
  do {
    engine.randomize_state();
    for (int i = 0; i < kBurst; ++i) engine.step();
    steps += kBurst;
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(steps) / elapsed;
}

/// Minimal read sink for E16b: every guard or action read costs one
/// (non-inlinable) call plus an add on *both* paths, so the read volume
/// is represented without the metrics accounting — identical on both
/// sides by construction — drowning the kernel difference. noinline
/// keeps the compiler from devirtualizing either side's calls into
/// nothing, which would bill one path for calls the other skipped.
class CountingSink final : public ReadLogger {
 public:
  std::uint64_t reads = 0;
  [[gnu::noinline]] void on_read(ProcessId, ProcessId, int) override {
    ++reads;
  }
};

/// Fixture for E16b: one randomized configuration, its guard refresh (the
/// actions the engine would hold), and the all-enabled selection.
struct ExecuteFixture {
  Configuration config;
  EnabledBitmap bitmap;
  std::vector<ProcessId> selection;

  ExecuteFixture(const Graph& g, const Protocol& protocol, std::uint64_t seed)
      : config(g, protocol.spec()) {
    const int n = g.num_vertices();
    Rng rng(seed);
    randomize_configuration(g, protocol.spec(), config, rng);
    protocol.install_constants(g, config);
    BulkGuardContext guard_ctx(g, config);
    bitmap.reset(n);
    std::vector<ProcessId> all(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) all[static_cast<std::size_t>(p)] = p;
    protocol.sweep_enabled_ids(guard_ctx, bitmap, all);
    for (ProcessId p = 0; p < n; ++p) {
      if (bitmap.enabled(p)) selection.push_back(p);
    }
  }
};

/// Actions/second of scalar execution over the fixture's selection: the
/// guard re-run on a GuardContext, then execute into a reused write arena
/// — the engine's per-process phase 1 without the commit.
double measure_scalar_actions_per_sec(const Graph& g, const Protocol& protocol,
                                      const ExecuteFixture& fix,
                                      double min_seconds) {
  using clock = std::chrono::steady_clock;
  CountingSink counter;
  ReadLogger& logger = counter;
  Rng rng(7);
  std::vector<PendingWrite> writes;
  auto pass = [&] {
    for (ProcessId p : fix.selection) {
      GuardContext guard(g, fix.config, p, &logger);
      const int action = protocol.first_enabled(guard);
      ActionContext ctx(g, fix.config, p, rng, &logger, &writes);
      protocol.execute(action, ctx);
    }
  };
  for (int i = 0; i < 4; ++i) pass();  // warmup
  std::uint64_t actions = 0;
  const auto begin = clock::now();
  double elapsed = 0.0;
  do {
    pass();
    actions += fix.selection.size();
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(actions) / elapsed;
}

/// Actions/second of the bulk execute kernel over the same selection
/// (guard re-runs included), staging into a reused row arena — the
/// engine's bulk phase 1 without the commit.
double measure_bulk_actions_per_sec(const Graph& g, const Protocol& protocol,
                                    const ExecuteFixture& fix,
                                    double min_seconds) {
  using clock = std::chrono::steady_clock;
  CountingSink counter;
  Rng rng(7);
  const std::size_t stride = fix.config.stride();
  std::vector<Value> staged(fix.selection.size() * stride);
  auto pass = [&] {
    BulkExecContext ctx(g, fix.config, ReadSink(counter), staged.data(),
                        stride, &rng);
    protocol.execute_selected(
        ctx, fix.bitmap,
        std::span<const ProcessId>(fix.selection.data(), fix.selection.size()),
        0, fix.selection.size());
  };
  for (int i = 0; i < 4; ++i) pass();  // warmup
  std::uint64_t actions = 0;
  const auto begin = clock::now();
  double elapsed = 0.0;
  do {
    pass();
    actions += fix.selection.size();
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(actions) / elapsed;
}

/// Both strategies must walk the same computation; a short lockstep
/// prefix catches a divergent kernel before it pollutes the timings.
void require_lockstep(const Graph& g, const Protocol& protocol) {
  Engine bulk(g, protocol, make_synchronous_daemon(), 0xB01D);
  Engine scalar(g, protocol, make_synchronous_daemon(), 0xB01D);
  scalar.set_sweep_mode(SweepMode::kForceScalar);
  bulk.randomize_state();
  scalar.randomize_state();
  for (int s = 0; s < 48; ++s) {
    bulk.step();
    scalar.step();
  }
  SSS_REQUIRE(bulk.config() == scalar.config() &&
                  bulk.read_counter().total_reads() ==
                      scalar.read_counter().total_reads(),
              "bulk execute diverged from scalar actions on " + g.name() +
                  " under " + protocol.name());
}

struct Geomean {
  double log_sum = 0.0;
  double worst = 1e300;
  double best = 0.0;
  int rows = 0;
  void add(double ratio) {
    log_sum += std::log(ratio);
    worst = std::min(worst, ratio);
    best = std::max(best, ratio);
    ++rows;
  }
  double value() const {
    return std::exp(log_sum / static_cast<double>(rows));
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sss::bench;

  double min_seconds = 0.08;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) min_seconds = 0.015;
  }

  const std::vector<Graph> graphs = execute_bench_graphs();
  BenchJsonWriter json("bulk_execute");

  print_banner(
      "E16: engine steps/sec, auto bulk execute+sweep vs all-scalar "
      "(synchronous daemon)");
  print_note("kAuto bulk-executes every selection and refreshes every");
  print_note("dirty guard through the slab kernel, so");
  print_note("the ratio is the deployed combined win of invariants 5 and 6.");
  TextTable steps_table({"graph", "n", "protocol", "scalar sps", "auto sps",
                         "speedup"});
  Geomean steps_geomean;
  for (const Graph& g : graphs) {
    for (const std::string& name : ProtocolRegistry::instance().protocol_names()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(name, g, {});
      if (!protocol->has_bulk_sweep()) continue;
      require_lockstep(g, *protocol);

      double scalar_sps = 0.0;
      double auto_sps = 0.0;
      {
        Engine engine(g, *protocol, make_synchronous_daemon(), 7);
        engine.set_sweep_mode(SweepMode::kForceScalar);
        scalar_sps = measure_steps_per_sec(engine, min_seconds);
      }
      {
        Engine engine(g, *protocol, make_synchronous_daemon(), 7);
        auto_sps = measure_steps_per_sec(engine, min_seconds);
      }
      const double speedup = auto_sps / scalar_sps;
      steps_table.row()
          .add(g.name())
          .add(g.num_vertices())
          .add(name)
          .add(scalar_sps, 0)
          .add(auto_sps, 0)
          .add(speedup, 2);
      json.record()
          .field("graph", g.name())
          .field("n", g.num_vertices())
          .field("protocol", name)
          .field("daemon", "synchronous")
          .field("regime", "steps")
          .field("scalar_steps_per_sec", scalar_sps)
          .field("bulk_steps_per_sec", auto_sps)
          .field("speedup", speedup);
      steps_geomean.add(speedup);
    }
  }
  std::printf("%s\n", steps_table.str().c_str());
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "steps/sec, auto vs scalar: geomean %.2fx, min %.2fx, max "
                "%.2fx over %d cells",
                steps_geomean.value(), steps_geomean.worst,
                steps_geomean.best, steps_geomean.rows);
  print_note(summary);
  std::fflush(stdout);

  print_banner(
      "E16b: all-selected execute phase, bulk kernels vs scalar "
      "ActionContexts (actions/sec)");
  print_note("one pass over every enabled process of a randomized");
  print_note("configuration: guard re-run + action execution, commit");
  print_note("excluded on both sides.");
  TextTable exec_table({"graph", "n", "protocol", "scalar acts/s",
                        "bulk acts/s", "speedup"});
  Geomean exec_geomean;
  for (const Graph& g : graphs) {
    for (const std::string& name : ProtocolRegistry::instance().protocol_names()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(name, g, {});
      if (!protocol->has_bulk_sweep()) continue;
      const ExecuteFixture fix(g, *protocol, 7);

      const double scalar_aps =
          measure_scalar_actions_per_sec(g, *protocol, fix, min_seconds);
      const double bulk_aps =
          measure_bulk_actions_per_sec(g, *protocol, fix, min_seconds);
      const double speedup = bulk_aps / scalar_aps;
      exec_table.row()
          .add(g.name())
          .add(g.num_vertices())
          .add(name)
          .add(scalar_aps, 0)
          .add(bulk_aps, 0)
          .add(speedup, 2);
      json.record()
          .field("graph", g.name())
          .field("n", g.num_vertices())
          .field("protocol", name)
          .field("daemon", "synchronous")
          .field("regime", "execute")
          .field("scalar_actions_per_sec", scalar_aps)
          .field("bulk_actions_per_sec", bulk_aps)
          .field("speedup", speedup);
      exec_geomean.add(speedup);
    }
  }
  std::printf("%s\n", exec_table.str().c_str());
  std::snprintf(summary, sizeof(summary),
                "all-selected execute, bulk vs scalar: geomean %.2fx, min "
                "%.2fx, max %.2fx over %d cells",
                exec_geomean.value(), exec_geomean.worst, exec_geomean.best,
                exec_geomean.rows);
  print_note(summary);
  std::fflush(stdout);

  json.record()
      .field("graph", "ALL")
      .field("n", 0)
      .field("protocol", "ALL")
      .field("daemon", "synchronous")
      .field("regime", "steps-geomean")
      .field("speedup", steps_geomean.value());
  json.record()
      .field("graph", "ALL")
      .field("n", 0)
      .field("protocol", "ALL")
      .field("daemon", "synchronous")
      .field("regime", "execute-geomean")
      .field("speedup", exec_geomean.value());
  json.write();
  return 0;
}
