/// E16 — the generic communication-efficiency transformer, measured.
///
/// The claim under gate: wrap a Delta-read baseline in GENERIC-EFFICIENCY
/// and the *stabilized* phase costs a constant — every activation reads
/// exactly one neighbor (the rotating audit), no matter how large Delta
/// grows — while the bare baseline's guard evaluation keeps paying Delta
/// reads per activation forever. Both costs are measured, not asserted
/// from theory:
///
///  * wrapped: run to certified silence, mix so every audit pointer has
///    lapped its channels, then attach a fresh per-step read counter and
///    take the worst per-process read count over a multi-round window;
///  * bare baseline: run to certified silence, then charge one guard
///    evaluation per process on the silent configuration through a
///    logging GuardContext — the model cost of *staying* silent, which
///    the fast engine's dirty-set caching hides but the paper's
///    communication-complexity accounting still pays.
///
/// Sweeps stars of growing Delta plus a clique, over both Delta-read
/// baselines (coloring and the multi-root spanning forest). Emits
/// BENCH_transformer_efficiency.json: wrapped reads stay at 1 while the
/// baseline column tracks Delta, so the bench gate catches any regression
/// that reintroduces degree-proportional stabilized reads.
///
/// A second section times the composed rule kernels (transformer/generic_efficiency.hpp):
/// generic-efficiency(X) for every base X, run to certified silence from
/// randomized states under a central daemon, in engine steps/sec with
/// SweepMode::kAuto (the composition's slab refresh and execute, the inner
/// rule inlined over the mirror bank) against kForceScalar (one virtual
/// probe and one ActionContext per process) in the same run. Both sides
/// must produce identical run statistics. Its `kernel_ratio` field is
/// informational, not gated.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "support/bench_json.hpp"
#include "support/require.hpp"
#include "support/text_table.hpp"

namespace {

using namespace sss;

/// Worst per-process neighbor reads in any single stabilized step,
/// measured over `rounds * n` engine steps after a mixing window.
int stabilized_reads_per_step(Engine& engine, const Graph& g,
                              const ProtocolSpec& spec) {
  // Mixing: let every audit pointer lap its channels (and any straggler
  // collect drain) before the measured window starts.
  for (int step = 0; step < 20 * g.num_vertices(); ++step) engine.step();
  StepReadCounter counter(g, spec);
  engine.attach_read_logger(&counter);
  int worst = 0;
  for (int step = 0; step < 30 * g.num_vertices(); ++step) {
    counter.begin_step();
    engine.step();
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      worst = std::max(worst, counter.step_reads_of(p));
    }
  }
  return worst;
}

/// Model cost of one guard evaluation per process on a silent
/// configuration: what each process must read to decide it has nothing
/// to do. For a full-read baseline this is degree(p) even though the
/// answer is "disabled".
int guard_evaluation_reads(const Graph& g, const Protocol& protocol,
                           const Configuration& config) {
  StepReadCounter counter(g, protocol.spec());
  int worst = 0;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    counter.begin_step();
    GuardContext ctx(g, config, p, &counter);
    protocol.first_enabled(ctx);
    worst = std::max(worst, counter.step_reads_of(p));
  }
  return worst;
}

/// One run to certified silence from a fresh randomized state, timed.
RunStats timed_run(Engine& engine, double& seconds) {
  using clock = std::chrono::steady_clock;
  engine.randomize_state();
  RunOptions options;
  options.max_steps = 2'000'000;
  const auto begin = clock::now();
  const RunStats stats = engine.run(options);
  seconds += std::chrono::duration<double>(clock::now() - begin).count();
  SSS_REQUIRE(stats.silent, engine.protocol().name() + " on " +
                                engine.graph().name() +
                                " failed to stabilize");
  return stats;
}

/// Steps/sec of `protocol` under kForceScalar and kAuto: two engines from
/// one seed, run to silence alternately (so host drift hits both sides)
/// until the scalar side has taken `min_seconds`. Every run's statistics
/// must agree between the sides.
struct KernelTiming {
  std::uint64_t steps = 0;
  double scalar_steps_per_sec = 0.0;
  double auto_steps_per_sec = 0.0;
};

KernelTiming time_kernels(const Graph& g, const Protocol& protocol,
                          double min_seconds) {
  Engine scalar(g, protocol, make_daemon("central-random"), 0x16d);
  Engine kernel(g, protocol, make_daemon("central-random"), 0x16d);
  scalar.set_sweep_mode(SweepMode::kForceScalar);
  KernelTiming timing;
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  for (int run = 0; run < 2 || scalar_seconds < min_seconds; ++run) {
    const RunStats a = timed_run(scalar, scalar_seconds);
    const RunStats b = timed_run(kernel, kernel_seconds);
    SSS_REQUIRE(a.steps == b.steps && a.rounds == b.rounds &&
                    a.steps_to_silence == b.steps_to_silence &&
                    a.total_reads == b.total_reads &&
                    a.total_read_bits == b.total_read_bits &&
                    a.max_reads_per_process_step ==
                        b.max_reads_per_process_step,
                protocol.name() + " on " + g.name() +
                    ": kernel and scalar runs disagree on run statistics");
    timing.steps += a.steps;
  }
  timing.scalar_steps_per_sec =
      static_cast<double>(timing.steps) / scalar_seconds;
  timing.auto_steps_per_sec =
      static_cast<double>(timing.steps) / kernel_seconds;
  return timing;
}

}  // namespace

int main() {
  print_banner("E16: generic-efficiency transformer — stabilized reads "
               "vs Delta");
  print_note("wrapped = GENERIC-EFFICIENCY(base): worst physical reads in "
             "any stabilized step;");
  print_note("bare = the Delta-read base alone: worst guard-evaluation "
             "reads on its silent configuration.");

  const std::vector<std::string> bases = {"full-read-coloring",
                                          "full-read-spanning-forest"};
  std::vector<Graph> graphs;
  for (int leaves : {4, 8, 16, 24}) graphs.push_back(star(leaves));
  graphs.push_back(complete(8));

  TextTable table({"base", "graph", "Delta", "wrapped reads", "bare reads",
                   "ratio", "steps to silence"});
  BenchJsonWriter json("transformer_efficiency");
  ProtocolRegistry& registry = ProtocolRegistry::instance();
  std::uint64_t seed = 0xeff1;
  for (const std::string& base : bases) {
    for (const Graph& g : graphs) {
      const int delta = g.max_degree();
      // Rooted bases get the *last* vertex as root: on a star that is a
      // leaf, so the hub stays a non-root whose guard evaluation pays the
      // full degree (a hub root would decide "disabled" without reading).
      ParamMap params;
      if (base == "full-read-spanning-forest") {
        params["roots"] = std::to_string(g.num_vertices() - 1);
      }
      const ProtocolSelection wrapped_selection = ProtocolSelection::wrap(
          "generic-efficiency", ProtocolSelection::base(base, params));
      const std::unique_ptr<Protocol> wrapped =
          registry.make(wrapped_selection, g);
      const std::unique_ptr<Protocol> bare =
          registry.make(ProtocolSelection::base(base, params), g);
      const std::unique_ptr<Problem> problem = ProblemRegistry::instance().make(
          registry.resolve(wrapped_selection).problem);

      Engine wrapped_engine(g, *wrapped, make_daemon("distributed"), ++seed);
      wrapped_engine.randomize_state();
      RunOptions options;
      options.max_steps = 2'000'000;
      const RunStats stats = wrapped_engine.run(options);
      SSS_REQUIRE(stats.silent, wrapped->name() + " on " + g.name() +
                                    " failed to stabilize");
      SSS_REQUIRE(problem->holds(g, wrapped_engine.config()),
                  wrapped->name() + " on " + g.name() +
                      " stabilized without reaching legitimacy");
      const int wrapped_reads =
          stabilized_reads_per_step(wrapped_engine, g, wrapped->spec());

      Engine bare_engine(g, *bare, make_daemon("distributed"), ++seed);
      bare_engine.randomize_state();
      SSS_REQUIRE(bare_engine.run(options).silent,
                  bare->name() + " on " + g.name() + " failed to stabilize");
      const int bare_reads =
          guard_evaluation_reads(g, *bare, bare_engine.config());

      // The gated claim, both halves: a constant for the wrapped
      // protocol, the full degree for the bare baseline.
      SSS_REQUIRE(wrapped_reads <= 1,
                  wrapped->name() + " on " + g.name() +
                      " read more than one neighbor in a stabilized step");
      SSS_REQUIRE(bare_reads == delta,
                  bare->name() + " on " + g.name() +
                      " no longer pays Delta reads per guard evaluation "
                      "(comparison baseline changed)");

      table.row()
          .add(base)
          .add(g.name())
          .add(delta)
          .add(wrapped_reads)
          .add(bare_reads)
          .add(static_cast<double>(bare_reads) /
                   std::max(wrapped_reads, 1),
               1)
          .add(static_cast<std::int64_t>(stats.steps));
      json.record()
          .field("base", base)
          .field("graph", g.name())
          .field("delta", delta)
          .field("wrapped_stabilized_reads_per_step", wrapped_reads)
          .field("bare_guard_evaluation_reads", bare_reads)
          .field("delta_to_constant_ratio",
                 static_cast<double>(bare_reads) /
                     std::max(wrapped_reads, 1))
          .field("wrapped_steps_to_silence",
                 static_cast<std::int64_t>(stats.steps));
    }
  }
  std::printf("%s\n", table.str().c_str());
  print_note("claim check: wrapped reads <= 1 on every graph (constant in "
             "Delta); bare reads == Delta everywhere.");
  std::fflush(stdout);

  print_banner("E16: generic-efficiency(X) engine steps/sec, composed "
               "kernels (auto) vs force_scalar");
  print_note("informational, not gated: randomized runs to certified");
  print_note("silence under central-random, identical run statistics "
             "required.");
  Rng graph_rng(0x2009ULL);
  const Graph lab_graph = random_regular(256, 4, graph_rng);
  TextTable kernel_table({"base", "graph", "steps", "scalar steps/s",
                          "auto steps/s", "ratio"});
  for (const std::string& base : registry.protocol_names()) {
    const std::unique_ptr<Protocol> composed = registry.make(
        ProtocolSelection::wrap("generic-efficiency",
                                ProtocolSelection::base(base)),
        lab_graph);
    const KernelTiming timing = time_kernels(lab_graph, *composed, 0.1);
    const double ratio =
        timing.auto_steps_per_sec / timing.scalar_steps_per_sec;
    kernel_table.row()
        .add(base)
        .add(lab_graph.name())
        .add(static_cast<std::int64_t>(timing.steps))
        .add(timing.scalar_steps_per_sec, 0)
        .add(timing.auto_steps_per_sec, 0)
        .add(ratio, 2);
    json.record()
        .field("base", base)
        .field("graph", lab_graph.name())
        .field("daemon", "central-random")
        .field("regime", "composed-kernel")
        .field("steps", static_cast<std::int64_t>(timing.steps))
        .field("scalar_steps_per_sec", timing.scalar_steps_per_sec)
        .field("auto_steps_per_sec", timing.auto_steps_per_sec)
        .field("kernel_ratio", ratio);
  }
  std::printf("%s\n", kernel_table.str().c_str());
  std::fflush(stdout);
  json.write();
  return 0;
}
