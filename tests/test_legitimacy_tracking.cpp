/// Incremental legitimacy tracking (engine invariant 8) against the full
/// predicates it replaces inside Engine::run:
///
///  * local form vs `holds` — for every registry selection (base entries
///    and their generic-efficiency compositions) on the harness
///    menagerie, constants_ok and every ok_at must agree with holds on
///    uniformly random configurations, along real trajectories, and on
///    one-process corruptions of silent configurations, and ok_at (and a
///    cover form's covered_at) must not read beyond its declared radius,
///    nor read internal variables unless the form declares reads_internal;
///  * Engine (tracking the local form) vs ReferenceEngine (calling the
///    opaque predicate after every step) — identical RunStats over
///    registry x daemons x seeds, serial, at 3 engine workers, and under
///    SweepMode::kForceScalar;
///  * planted faults — a form whose declared radius is too small is caught
///    by the radius audit and by the engine comparison, a form that reads
///    cur but declares comm-only by the read-set audit, and every
///    registered problem provides a local form;
///  * the tracker's mirror filter — a touched process whose read-visible
///    row did not change seeds no re-check.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "core/coloring_protocol.hpp"
#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "graph/properties.hpp"
#include "protocol_harness.hpp"
#include "runtime/engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/reference_engine.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

/// A selection of the registry together with the problem it stabilizes to.
struct Selection {
  ProtocolSelection selection;
  std::string label;
  std::string problem;
  std::vector<std::string> daemons;  ///< empty = every daemon
};

/// Every base entry and its generic-efficiency composition.
std::vector<Selection> registry_selections() {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  std::vector<Selection> out;
  for (const std::string& name : registry.protocol_names()) {
    for (const ProtocolSelection& selection :
         {ProtocolSelection::base(name),
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base(name))}) {
      const ProtocolRegistry::ComposedInfo info = registry.resolve(selection);
      out.push_back({selection, info.label, info.problem, info.daemons});
    }
  }
  return out;
}

bool local_holds(const LocalLegitimacy& form, const Graph& g,
                 const Configuration& config) {
  if (!form.constants_ok(g, config)) return false;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (!form.ok_at(g, config, p)) return false;
  }
  return true;
}

/// Radius audit: redraws the variables of every process farther than the
/// declared radius from p and reports the first p whose ok_at (or, for a
/// cover form, covered_at within radius - 1) changed. Empty = none.
std::string radius_violation(const LocalLegitimacy& form, const Graph& g,
                             const ProtocolSpec& spec,
                             const Configuration& config, Rng& rng) {
  const auto* cover = dynamic_cast<const CoverLegitimacy*>(&form);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const std::vector<int> dist = bfs_distances(g, p);
    std::vector<ProcessId> far_ok;
    std::vector<ProcessId> far_cover;
    for (ProcessId u = 0; u < g.num_vertices(); ++u) {
      const int d = dist[static_cast<std::size_t>(u)];
      if (d < 0 || d > form.radius()) far_ok.push_back(u);
      if (d < 0 || d > form.radius() - 1) far_cover.push_back(u);
    }
    for (int draw = 0; draw < 4; ++draw) {
      if (!far_ok.empty()) {
        Configuration redrawn = config;
        corrupt_processes(g, spec, redrawn, far_ok, rng);
        if (form.ok_at(g, config, p) != form.ok_at(g, redrawn, p)) {
          return "ok_at(" + std::to_string(p) + ") reads beyond radius " +
                 std::to_string(form.radius());
        }
      }
      if (cover != nullptr && !far_cover.empty()) {
        Configuration redrawn = config;
        corrupt_processes(g, spec, redrawn, far_cover, rng);
        if (cover->covered_at(g, config, p) !=
            cover->covered_at(g, redrawn, p)) {
          return "covered_at(" + std::to_string(p) + ") reads beyond radius " +
                 std::to_string(form.radius() - 1);
        }
      }
    }
  }
  return {};
}

/// Read-set audit: when the form declares itself comm-only, redraws every
/// internal variable of every process and reports the first p whose ok_at
/// (or, for a cover form, covered_at) changed. Empty = none.
std::string internal_read_violation(const LocalLegitimacy& form,
                                    const Graph& g, const ProtocolSpec& spec,
                                    const Configuration& config, Rng& rng) {
  if (form.reads_internal()) return {};
  const auto* cover = dynamic_cast<const CoverLegitimacy*>(&form);
  for (int draw = 0; draw < 4; ++draw) {
    Configuration redrawn = config;
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      for (int v = 0; v < spec.num_internal(); ++v) {
        const VarSpec& var = spec.internal[static_cast<std::size_t>(v)];
        if (var.is_constant()) continue;
        const VarDomain d = var.domain(g, p);
        redrawn.set_internal(
            p, v,
            d.lo + static_cast<Value>(
                       rng.below(static_cast<std::uint64_t>(d.size()))));
      }
    }
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      if (form.ok_at(g, config, p) != form.ok_at(g, redrawn, p) ||
          (cover != nullptr && cover->covered_at(g, config, p) !=
                                   cover->covered_at(g, redrawn, p))) {
        return "the local form at " + std::to_string(p) +
               " reads internal variables but declares comm-only";
      }
    }
  }
  return {};
}

/// Both read audits of the local form on one configuration.
std::string read_violation(const LocalLegitimacy& form, const Graph& g,
                           const ProtocolSpec& spec,
                           const Configuration& config, Rng& rng) {
  const std::string radius = radius_violation(form, g, spec, config, rng);
  return radius.empty() ? internal_read_violation(form, g, spec, config, rng)
                        : radius;
}

/// Checks the local form against holds on one configuration; returns a
/// description of the first disagreement, or empty.
std::string audit(const Problem& problem, const Graph& g,
                  const Configuration& config) {
  const bool full = problem.holds(g, config);
  if (local_holds(*problem.local_form(), g, config) != full) {
    return std::string("local form says ") + (full ? "illegitimate" :
                                                     "legitimate") +
           ", holds says the opposite";
  }
  return {};
}

TEST(LocalLegitimacy, EveryRegisteredProblemProvidesALocalForm) {
  // Exemptions must be named here with their reason; there are none.
  const std::map<std::string, std::string> exempt = {};
  for (const auto& [name, reason] : exempt) {
    EXPECT_TRUE(ProblemRegistry::instance().contains(name)) << name;
    EXPECT_FALSE(reason.empty()) << name;
  }
  for (const std::string& name : ProblemRegistry::instance().names()) {
    const std::unique_ptr<Problem> problem =
        ProblemRegistry::instance().make(name);
    if (exempt.count(name) != 0) continue;
    ASSERT_NE(problem->local_form(), nullptr) << name;
    EXPECT_GE(problem->local_form()->radius(), 1) << name;
  }
}

TEST(LocalLegitimacy, MatchesHoldsAcrossRegistryAndMenagerie) {
  int legitimate_seen = 0;
  int illegitimate_seen = 0;
  for (const Selection& sel : registry_selections()) {
    ASSERT_FALSE(sel.problem.empty()) << sel.label;
    const std::unique_ptr<Problem> problem =
        ProblemRegistry::instance().make(sel.problem);
    for (const Graph& g : testing::harness_menagerie()) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(sel.selection, g);
      const std::string where = sel.label + " on " + g.name();
      auto check = [&](const Configuration& config, const char* what) {
        const std::string bad = audit(*problem, g, config);
        if (!bad.empty()) {
          ADD_FAILURE() << where << " (" << what << "): " << bad;
          return false;
        }
        (problem->holds(g, config) ? legitimate_seen : illegitimate_seen)++;
        return true;
      };

      // Uniformly random configurations (constants installed).
      Engine engine(g, *protocol, make_daemon("central-random"), 91);
      Rng audit_rng(17);
      for (int draw = 0; draw < 8; ++draw) {
        engine.randomize_state();
        if (!check(engine.config(), "random")) return;
        const std::string reads = read_violation(
            *problem->local_form(), g, protocol->spec(), engine.config(),
            audit_rng);
        ASSERT_TRUE(reads.empty()) << where << ": " << reads;
      }

      // A real trajectory to silence, audited at every step.
      engine.randomize_state();
      for (int s = 0; s < 4000 && !engine.quiescent(); ++s) {
        engine.step();
        if (!check(engine.config(), "trajectory")) return;
      }
      RunOptions to_silence;
      to_silence.max_steps = 400'000;
      ASSERT_TRUE(engine.run(to_silence).silent) << where;
      if (!check(engine.config(), "silent")) return;
      const std::string reads = read_violation(
          *problem->local_form(), g, protocol->spec(), engine.config(),
          audit_rng);
      ASSERT_TRUE(reads.empty()) << where << ": " << reads;

      // Near-legitimate configurations: one corrupted process each.
      const Configuration silent = engine.config();
      Rng fault_rng(g.num_vertices() * 7919ULL);
      for (ProcessId victim = 0; victim < g.num_vertices(); ++victim) {
        Configuration corrupted = silent;
        corrupt_processes(g, protocol->spec(), corrupted, {victim},
                          fault_rng);
        if (!check(corrupted, "corrupted")) return;
      }
    }
  }
  // The grid must exercise both answers, or the comparison is vacuous.
  EXPECT_GT(legitimate_seen, 0);
  EXPECT_GT(illegitimate_seen, 0);
}

/// RunStats equality, field by field.
std::string stats_mismatch(const RunStats& a, const RunStats& b) {
  const auto field = [](const char* name, std::uint64_t x, std::uint64_t y) {
    return x == y ? std::string()
                  : std::string(name) + " " + std::to_string(x) + " vs " +
                        std::to_string(y);
  };
  for (const std::string& diff :
       {field("steps", a.steps, b.steps), field("rounds", a.rounds, b.rounds),
        field("reached_legitimate", a.reached_legitimate,
              b.reached_legitimate),
        field("steps_to_legitimate", a.steps_to_legitimate,
              b.steps_to_legitimate),
        field("rounds_to_legitimate", a.rounds_to_legitimate,
              b.rounds_to_legitimate),
        field("silent", a.silent, b.silent),
        field("steps_to_silence", a.steps_to_silence, b.steps_to_silence),
        field("rounds_to_silence", a.rounds_to_silence, b.rounds_to_silence),
        field("total_reads", a.total_reads, b.total_reads),
        field("total_read_bits", a.total_read_bits, b.total_read_bits),
        field("max_reads", static_cast<std::uint64_t>(
                               a.max_reads_per_process_step),
              static_cast<std::uint64_t>(b.max_reads_per_process_step)),
        field("max_bits",
              static_cast<std::uint64_t>(a.max_bits_per_process_step),
              static_cast<std::uint64_t>(b.max_bits_per_process_step))}) {
    if (!diff.empty()) return diff;
  }
  return {};
}

/// Engine with the local form vs ReferenceEngine with the opaque
/// predicate: two runs each (from a random start, then after corrupting
/// two processes), compared field by field. Empty = identical; a failed
/// full-predicate confirmation inside Engine::run is reported too.
std::string engine_vs_reference(const Graph& g, const Protocol& protocol,
                                const Problem& problem,
                                const std::string& daemon,
                                std::uint64_t seed, int threads,
                                SweepMode mode) try {
  Engine fast(g, protocol, make_daemon(daemon), seed);
  ReferenceEngine oracle(g, protocol, make_daemon(daemon), seed);
  fast.set_parallel_threads(threads);
  fast.set_sweep_mode(mode);
  fast.randomize_state();
  oracle.randomize_state();
  RunOptions tracked;
  tracked.max_steps = 200'000;
  tracked.legitimacy = problem.predicate();
  tracked.local_legitimacy = problem.local_form();
  RunOptions opaque = tracked;
  opaque.local_legitimacy = nullptr;
  for (int run = 0; run < 2; ++run) {
    const std::string diff =
        stats_mismatch(fast.run(tracked), oracle.run(opaque));
    if (!diff.empty()) return "run " + std::to_string(run) + ": " + diff;
    Rng fast_faults(seed ^ 0xfa17ULL);
    Rng oracle_faults(seed ^ 0xfa17ULL);
    const std::vector<ProcessId> victims = {0, g.num_vertices() - 1};
    fast.apply_external_corruption(victims, fast_faults);
    oracle.apply_external_corruption(victims, oracle_faults);
  }
  return {};
} catch (const InvariantError& error) {
  return std::string("engine invariant failed: ") + error.what();
}

void run_engine_grid(int threads, SweepMode mode, int seeds) {
  const std::vector<Graph> graphs = {grid(3, 3), petersen(),
                                     grid_of_clusters(2, 2, 4)};
  int compared = 0;
  for (const Selection& sel : registry_selections()) {
    const std::unique_ptr<Problem> problem =
        ProblemRegistry::instance().make(sel.problem);
    for (const Graph& g : graphs) {
      const std::unique_ptr<Protocol> protocol =
          ProtocolRegistry::instance().make(sel.selection, g);
      for (const std::string& daemon : daemon_names()) {
        if (!sel.daemons.empty() &&
            std::find(sel.daemons.begin(), sel.daemons.end(), daemon) ==
                sel.daemons.end()) {
          continue;
        }
        for (int s = 0; s < seeds; ++s) {
          const std::uint64_t seed = 300 + static_cast<std::uint64_t>(s);
          const std::string diff = engine_vs_reference(
              g, *protocol, *problem, daemon, seed, threads, mode);
          ASSERT_TRUE(diff.empty())
              << sel.label << " on " << g.name() << " under " << daemon
              << " seed " << seed << ": " << diff;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(LegitimacyTracking, EngineMatchesReferenceAcrossRegistryDaemonsSeeds) {
  run_engine_grid(/*threads=*/1, SweepMode::kAuto, /*seeds=*/2);
}

TEST(LegitimacyTracking, EngineMatchesReferenceAtThreeWorkers) {
  run_engine_grid(/*threads=*/3, SweepMode::kAuto, /*seeds=*/1);
}

TEST(LegitimacyTracking, EngineMatchesReferenceUnderForcedScalar) {
  run_engine_grid(/*threads=*/1, SweepMode::kForceScalar, /*seeds=*/1);
}

TEST(LegitimacyTracking, BatchRowsMatchTheOpaquePredicate) {
  // run_batch binds the problem's local form; a caller-supplied predicate
  // keeps the per-step full check. Both must produce the same rows.
  const Graph g = petersen();
  const std::unique_ptr<Protocol> protocol =
      ProtocolRegistry::instance().make("matching", g);
  const std::unique_ptr<Problem> problem =
      ProblemRegistry::instance().make("maximal-matching");
  auto rows = [&](bool opaque) {
    BatchItem item;
    item.label = "m";
    item.graph = &g;
    item.protocol = protocol.get();
    item.problem = problem.get();
    item.daemons = {"central-rr", "distributed"};
    item.seeds_per_daemon = 3;
    if (opaque) item.run.legitimacy = problem->predicate();
    std::vector<RunStats> stats(6);
    BatchOptions options;
    options.threads = 2;
    options.on_trial = [&](const BatchTrialRow& row) {
      stats[static_cast<std::size_t>(row.trial)] = row.stats;
    };
    EXPECT_EQ(run_batch({item}, options).total_trials, 6);
    return stats;
  };
  const std::vector<RunStats> tracked = rows(false);
  const std::vector<RunStats> opaque = rows(true);
  ASSERT_EQ(tracked.size(), opaque.size());
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    EXPECT_TRUE(tracked[i].reached_legitimate);
    EXPECT_EQ(stats_mismatch(tracked[i], opaque[i]), "") << "trial " << i;
  }
}

// --- Planted fault ----------------------------------------------------------

/// Vertex coloring whose local form reads the neighbours' colors but
/// declares radius 0: the tracker then never re-checks the neighbours of a
/// recolored process, and its count goes stale.
class ShortSightedColoring final : public Problem, public LocalLegitimacy {
 public:
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override {
    return inner_.holds(g, config);
  }
  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 0; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override {
    return inner_.ok_at(g, config, p);
  }
  bool constants_ok(const Graph&, const Configuration&) const override {
    return true;
  }

 private:
  std::string name_ = "short-sighted-coloring";
  ColoringProblem inner_;
};

TEST(LegitimacyTracking, TooSmallRadiusIsCaughtByTheRadiusAudit) {
  const Graph g = cycle(6);
  const ColoringProtocol protocol(g);
  const ShortSightedColoring problem;
  Engine engine(g, protocol, make_daemon("central-rr"), 3);
  Rng rng(5);
  bool caught = false;
  for (int draw = 0; draw < 4 && !caught; ++draw) {
    engine.randomize_state();
    caught = !radius_violation(problem, g, protocol.spec(), engine.config(),
                               rng)
                  .empty();
  }
  EXPECT_TRUE(caught);
}

TEST(LegitimacyTracking, TooSmallRadiusIsCaughtByTheEngine) {
  // Either the stale count reaches zero early (the full-predicate
  // confirmation throws) or it never does (first legitimacy diverges from
  // the oracle's); over a handful of seeds at least one must happen.
  const Graph g = grid(3, 3);
  const ColoringProtocol protocol(g);
  const ShortSightedColoring problem;
  int caught = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    caught += engine_vs_reference(g, protocol, problem, "central-random",
                                  seed, 1, SweepMode::kAuto)
                      .empty()
                  ? 0
                  : 1;
  }
  EXPECT_GT(caught, 0);
}

TEST(LegitimacyTracking, CurBlindFormIsCaughtByTheReadAudit) {
  const Graph g = grid(3, 3);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_daemon("central-rr"), 3);
  Rng rng(5);
  bool caught = false;
  for (int draw = 0; draw < 4 && !caught; ++draw) {
    engine.randomize_state();
    caught = !internal_read_violation(
                  testing::CurReadingColoring(/*declares_internal=*/false), g,
                  protocol.spec(), engine.config(), rng)
                  .empty();
  }
  EXPECT_TRUE(caught);
}

// --- Mirror filter ----------------------------------------------------------

/// The coloring form, counting its ok_at evaluations.
class CountingColoring final : public LocalLegitimacy {
 public:
  int radius() const override { return inner_.radius(); }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override {
    ++calls;
    return inner_.ok_at(g, config, p);
  }
  bool constants_ok(const Graph& g,
                    const Configuration& config) const override {
    return inner_.constants_ok(g, config);
  }
  mutable int calls = 0;

 private:
  ColoringProblem inner_;
};

TEST(LegitimacyTracking, PointerRotationSeedsNoRecheck) {
  // At silence COLORING keeps rotating cur: every step fires and writes
  // its selected processes, but no color changes, so a comm-only form's
  // tracker re-checks nothing.
  const Graph g = grid(3, 3);
  const ColoringProtocol protocol(g);
  Engine engine(g, protocol, make_daemon("central-rr"), 7);
  engine.randomize_state();
  ASSERT_TRUE(engine.run(RunOptions{}).silent);
  const CountingColoring form;
  LegitimacyTracker tracker(g, form, engine.config());
  ASSERT_TRUE(tracker.legitimate());
  const int build_calls = form.calls;
  EXPECT_EQ(build_calls, g.num_vertices());
  for (int s = 0; s < 3 * g.num_vertices(); ++s) {
    const Configuration before = engine.config();
    const Engine::StepInfo info = engine.step();
    ASSERT_GT(info.fired, 0);
    ASSERT_FALSE(info.comm_changed);
    ASSERT_FALSE(engine.config() == before) << "step " << s;
    tracker.recheck(engine.config(), engine.last_selection());
  }
  EXPECT_EQ(form.calls, build_calls);
  EXPECT_TRUE(tracker.legitimate());

  // A color change at p does seed: p and its neighbours are re-checked.
  Configuration clash = engine.config();
  const ProcessId p = 4;
  clash.set_comm(p, ColoringProtocol::kColorVar,
                 clash.comm(g.neighbor(p, 1), ColoringProtocol::kColorVar));
  const std::vector<ProcessId> touched = {p};
  tracker.recheck(clash, touched);
  EXPECT_EQ(form.calls, build_calls + 1 + g.degree(p));
  EXPECT_FALSE(tracker.legitimate());
}

}  // namespace
}  // namespace sss
