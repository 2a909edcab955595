/// E15 — slab guard-refresh kernels vs scalar probes.
///
/// Not a paper claim: measures the engine's two guard-refresh strategies
/// (runtime/bulk.hpp) — per-process scalar `first_enabled` probes vs the
/// protocol's `sweep_enabled_ids` CSR kernel over the dirty ids — for
/// every registry protocol on graphs at n ~= 2000 and n ~= 20000 — and
/// the silence-certification solo kernel against its scalar default. Four
/// sections:
///
///  * E15  — whole-engine steps/sec under the synchronous daemon,
///    deployed configuration (SweepMode::kAuto) vs kForceScalar. Every
///    active step co-fires all enabled processes, so it dirties nearly
///    all n guards and the refresh dominates the step. Windows
///    interleave `randomize_state()` with 32-step bursts so converging
///    protocols are measured on live convergence work, not the
///    post-silence no-op regime.
///  * E15b — refresh-only throughput: guard evaluations/sec of one
///    all-dirty refresh (the post-perturbation worst case), kAuto vs
///    kForceScalar. This isolates the kernels from action execution.
///    Each measured iteration pays an identical set_config() to re-stale
///    the probes, so the printed ratios *understate* the kernels'
///    advantage.
///  * E15c — the central-daemon refresh: guard evaluations/sec of one
///    process plus its neighbours (the dirty set a central step leaves
///    behind), the kernel vs the scalar default of `sweep_enabled_ids`
///    (what kForceScalar runs). Informational: its `kernel_ratio` field
///    is not gated.
///  * E15d — silence certification: full `Engine::quiescent()` checks/sec
///    on a silent random-regular(256,4) configuration, the solo kernel
///    (kAuto) vs the solo hook's scalar default (kForceScalar), both
///    answers required equal. A silent configuration makes every process
///    run its whole degree + margin budget, the cost of the confirming
///    check and of a churn recovery checkpoint. Informational: its
///    `kernel_ratio` field is not gated.
///
/// Both strategies are bit-identical by construction (asserted here over
/// a lockstep prefix, proven at scale by tests/test_bulk_sweep.cpp and
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
#include "runtime/engine.hpp"
#include "support/bench_json.hpp"

namespace {

using namespace sss;

std::vector<Graph> sweep_bench_graphs() {
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

/// Guard evaluations/second of all-dirty refreshes: set_config stales
/// every probe, num_enabled drains the refresh in the engine's mode.
double measure_refreshes_per_sec(Engine& engine, const Configuration& config,
                                 double min_seconds) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < 16; ++i) {  // warmup
    engine.set_config(config);
    engine.num_enabled();
  }
  std::uint64_t evals = 0;
  const auto n = static_cast<std::uint64_t>(engine.graph().num_vertices());
  const auto begin = clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 8; ++i) {
      engine.set_config(config);
      engine.num_enabled();
    }
    evals += 8 * n;
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(evals) / elapsed;
}

/// Guard evaluations/second of `sweep_enabled_ids` over closed
/// neighbourhoods — a process and its neighbours, the dirty set a central
/// daemon's step leaves — cycling through `balls` so no single ball stays
/// cache-hot. `scalar` runs the Protocol default (one virtual
/// first_enabled probe per id) instead of the protocol's kernel.
double measure_ball_refreshes_per_sec(
    const Graph& g, const Protocol& protocol, const Configuration& config,
    const std::vector<std::vector<ProcessId>>& balls, bool scalar,
    double min_seconds) {
  using clock = std::chrono::steady_clock;
  EnabledBitmap actions;
  actions.reset(g.num_vertices());
  BulkGuardContext ctx(g, config);
  std::uint64_t evals = 0;
  const auto refresh_all = [&] {
    for (const std::vector<ProcessId>& ids : balls) {
      if (scalar) {
        protocol.Protocol::sweep_enabled_ids(ctx, actions, ids);
      } else {
        protocol.sweep_enabled_ids(ctx, actions, ids);
      }
      evals += ids.size();
    }
  };
  refresh_all();  // warmup
  evals = 0;
  const auto begin = clock::now();
  double elapsed = 0.0;
  do {
    refresh_all();
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(evals) / elapsed;
}

/// Closed neighbourhoods of `count` pseudo-random centres.
std::vector<std::vector<ProcessId>> central_dirty_sets(const Graph& g,
                                                       int count) {
  Rng rng(0xC3A7ULL);
  std::vector<std::vector<ProcessId>> balls;
  for (int i = 0; i < count; ++i) {
    const auto p = static_cast<ProcessId>(
        rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    std::vector<ProcessId> ball{p};
    for (NbrIndex ch = 1; ch <= g.degree(p); ++ch) {
      ball.push_back(g.neighbor(p, ch));
    }
    balls.push_back(std::move(ball));
  }
  return balls;
}

/// Full silence checks/second of `engine.quiescent()` in the engine's
/// current sweep mode; every answer must be `expected`.
double measure_quiescent_checks_per_sec(Engine& engine, bool expected,
                                        double min_seconds) {
  using clock = std::chrono::steady_clock;
  SSS_REQUIRE(engine.quiescent() == expected,  // warmup
              "silence check disagrees across sweep modes");
  std::uint64_t checks = 0;
  const auto begin = clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 8; ++i) {
      SSS_REQUIRE(engine.quiescent() == expected,
                  "silence check disagrees across sweep modes");
    }
    checks += 8;
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(checks) / elapsed;
}

/// Both strategies must walk the same computation; a short lockstep
/// prefix catches a divergent sweep before it pollutes the timings.
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
              "bulk sweep diverged from scalar probes on " + g.name() +
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

  const std::vector<Graph> graphs = sweep_bench_graphs();
  BenchJsonWriter json("bulk_sweep");

  print_banner(
      "E15: engine steps/sec, auto bulk sweep vs scalar probes "
      "(synchronous daemon)");
  print_note("kAuto refreshes every dirty guard through the kernel and");
  print_note("bulk-executes every selection, so");
  print_note("the ratios track the deployed engine.");
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

  print_banner("E15b: all-dirty refresh, bulk sweep vs scalar probes "
               "(guard evals/sec)");
  print_note("every iteration re-stales all n probes via set_config, then");
  print_note("drains the refresh; the shared set_config cost understates");
  print_note("the sweep kernels' advantage.");
  TextTable refresh_table({"graph", "n", "protocol", "scalar evals/s",
                           "bulk evals/s", "speedup"});
  Geomean refresh_geomean;
  for (const Graph& g : graphs) {
    for (const std::string& name : ProtocolRegistry::instance().protocol_names()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(name, g, {});
      if (!protocol->has_bulk_sweep()) continue;
      // A mid-convergence configuration, so guards see realistic state.
      Engine pilot(g, *protocol, make_synchronous_daemon(), 7);
      pilot.randomize_state();
      for (int i = 0; i < 40; ++i) pilot.step();
      const Configuration config = pilot.config();

      double scalar_eps = 0.0;
      double bulk_eps = 0.0;
      {
        Engine engine(g, *protocol, make_synchronous_daemon(), 7);
        engine.set_sweep_mode(SweepMode::kForceScalar);
        scalar_eps = measure_refreshes_per_sec(engine, config, min_seconds);
      }
      {
        Engine engine(g, *protocol, make_synchronous_daemon(), 7);
        engine.set_sweep_mode(SweepMode::kAuto);
        bulk_eps = measure_refreshes_per_sec(engine, config, min_seconds);
      }
      const double speedup = bulk_eps / scalar_eps;
      refresh_table.row()
          .add(g.name())
          .add(g.num_vertices())
          .add(name)
          .add(scalar_eps, 0)
          .add(bulk_eps, 0)
          .add(speedup, 2);
      json.record()
          .field("graph", g.name())
          .field("n", g.num_vertices())
          .field("protocol", name)
          .field("daemon", "synchronous")
          .field("regime", "refresh")
          .field("scalar_evals_per_sec", scalar_eps)
          .field("bulk_evals_per_sec", bulk_eps)
          .field("speedup", speedup);
      refresh_geomean.add(speedup);
    }
  }
  std::printf("%s\n", refresh_table.str().c_str());
  std::snprintf(summary, sizeof(summary),
                "all-dirty refresh, bulk vs scalar: geomean %.2fx, min "
                "%.2fx, max %.2fx over %d cells",
                refresh_geomean.value(), refresh_geomean.worst,
                refresh_geomean.best, refresh_geomean.rows);
  print_note(summary);
  std::fflush(stdout);

  print_banner("E15c: central-daemon refresh (one process + neighbours), "
               "kernel vs scalar probes (guard evals/sec)");
  print_note("informational, not gated: 256 closed neighbourhoods of a");
  print_note("mid-convergence configuration, refreshed in turn.");
  TextTable central_table({"graph", "n", "protocol", "scalar evals/s",
                           "kernel evals/s", "ratio"});
  Geomean central_geomean;
  for (const Graph& g : graphs) {
    const std::vector<std::vector<ProcessId>> balls =
        central_dirty_sets(g, 256);
    for (const std::string& name : ProtocolRegistry::instance().protocol_names()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(name, g, {});
      if (!protocol->has_bulk_sweep()) continue;
      Engine pilot(g, *protocol, make_synchronous_daemon(), 7);
      pilot.randomize_state();
      for (int i = 0; i < 40; ++i) pilot.step();
      const Configuration& config = pilot.config();
      const double scalar_eps = measure_ball_refreshes_per_sec(
          g, *protocol, config, balls, /*scalar=*/true, min_seconds);
      const double kernel_eps = measure_ball_refreshes_per_sec(
          g, *protocol, config, balls, /*scalar=*/false, min_seconds);
      const double ratio = kernel_eps / scalar_eps;
      central_table.row()
          .add(g.name())
          .add(g.num_vertices())
          .add(name)
          .add(scalar_eps, 0)
          .add(kernel_eps, 0)
          .add(ratio, 2);
      json.record()
          .field("graph", g.name())
          .field("n", g.num_vertices())
          .field("protocol", name)
          .field("daemon", "central")
          .field("regime", "central-refresh")
          .field("scalar_evals_per_sec", scalar_eps)
          .field("kernel_evals_per_sec", kernel_eps)
          .field("kernel_ratio", ratio);
      central_geomean.add(ratio);
    }
  }
  std::printf("%s\n", central_table.str().c_str());
  std::snprintf(summary, sizeof(summary),
                "central-daemon refresh, kernel vs scalar: geomean %.2fx, "
                "min %.2fx, max %.2fx over %d cells",
                central_geomean.value(), central_geomean.worst,
                central_geomean.best, central_geomean.rows);
  print_note(summary);
  std::fflush(stdout);

  print_banner("E15d: silence certification, solo kernel vs scalar default "
               "(full quiescent() checks/sec)");
  print_note("informational, not gated: one silent random-regular(256,4)");
  print_note("configuration per protocol, every process running its whole");
  print_note("degree + margin budget.");
  TextTable certify_table({"graph", "n", "protocol", "scalar checks/s",
                           "kernel checks/s", "ratio"});
  Geomean certify_geomean;
  {
    Rng rng(0x51E7ULL);
    const Graph g = random_regular(256, 4, rng);
    for (const std::string& name :
         ProtocolRegistry::instance().protocol_names()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(name, g, {});
      Engine engine(g, *protocol, make_distributed_random_daemon(), 7);
      engine.randomize_state();
      SSS_REQUIRE(engine.run({}).silent,
                  name + " did not reach silence on " + g.name());
      engine.set_sweep_mode(SweepMode::kForceScalar);
      const double scalar_cps =
          measure_quiescent_checks_per_sec(engine, true, min_seconds);
      engine.set_sweep_mode(SweepMode::kAuto);
      const double kernel_cps =
          measure_quiescent_checks_per_sec(engine, true, min_seconds);
      const double ratio = kernel_cps / scalar_cps;
      certify_table.row()
          .add(g.name())
          .add(g.num_vertices())
          .add(name)
          .add(scalar_cps, 0)
          .add(kernel_cps, 0)
          .add(ratio, 2);
      json.record()
          .field("graph", g.name())
          .field("n", g.num_vertices())
          .field("protocol", name)
          .field("daemon", "distributed")
          .field("regime", "certification")
          .field("scalar_checks_per_sec", scalar_cps)
          .field("kernel_checks_per_sec", kernel_cps)
          .field("kernel_ratio", ratio);
      certify_geomean.add(ratio);
    }
  }
  std::printf("%s\n", certify_table.str().c_str());
  std::snprintf(summary, sizeof(summary),
                "silence certification, kernel vs scalar: geomean %.2fx, "
                "min %.2fx, max %.2fx over %d cells",
                certify_geomean.value(), certify_geomean.worst,
                certify_geomean.best, certify_geomean.rows);
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
      .field("regime", "refresh-geomean")
      .field("speedup", refresh_geomean.value());
  json.write();
  return 0;
}
