#include "protocol_harness.hpp"

#include <algorithm>
#include <sstream>

#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "runtime/engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/reference_engine.hpp"
#include "support/require.hpp"

namespace sss::testing {

namespace {

/// One lockstep comparison of the incremental engine against the
/// full-scan oracle; returns a non-empty mismatch description on the
/// first divergence.
std::string lockstep_mismatch(const Graph& g, const Protocol& protocol,
                              const std::string& daemon_name,
                              std::uint64_t seed, int steps,
                              SweepMode sweep_mode, int parallel_threads) {
  Engine fast(g, protocol, make_daemon(daemon_name), seed);
  ReferenceEngine oracle(g, protocol, make_daemon(daemon_name), seed);
  fast.set_sweep_mode(sweep_mode);
  fast.set_parallel_threads(parallel_threads);
  fast.randomize_state();
  oracle.randomize_state();
  if (!(fast.config() == oracle.config())) {
    return "randomized initial configurations differ";
  }
  for (int s = 0; s < steps; ++s) {
    const Engine::StepInfo a = fast.step();
    const Engine::StepInfo b = oracle.step();
    const auto at = [&](const char* what) {
      return std::string(what) + " diverged at step " + std::to_string(s);
    };
    if (a.selected != b.selected || a.fired != b.fired ||
        a.comm_changed != b.comm_changed) {
      return at("StepInfo");
    }
    if (!(fast.config() == oracle.config())) return at("configuration");
    if (fast.rounds() != oracle.rounds() ||
        fast.rounds_inclusive() != oracle.rounds_inclusive()) {
      return at("round accounting");
    }
    if (fast.read_counter().total_reads() !=
            oracle.read_counter().total_reads() ||
        fast.read_counter().total_bits() !=
            oracle.read_counter().total_bits() ||
        fast.read_counter().max_reads_per_process_step() !=
            oracle.read_counter().max_reads_per_process_step() ||
        fast.read_counter().max_bits_per_process_step() !=
            oracle.read_counter().max_bits_per_process_step()) {
      return at("read metrics");
    }
  }
  return {};
}

}  // namespace

std::string HarnessReport::str() const {
  std::ostringstream out;
  out << protocol << " (problem: " << problem << ", " << trials
      << " trials): ";
  if (violations.empty()) {
    out << (trials > 0 ? "ok" : "NO TRIALS RAN");
    return out.str();
  }
  out << violations.size() << " violation(s)";
  for (const HarnessViolation& v : violations) {
    out << "\n  [" << v.check << "] " << v.protocol << " on " << v.graph
        << " under " << v.daemon << " seed " << v.seed << ": " << v.detail;
  }
  return out.str();
}

std::vector<Graph> harness_menagerie() {
  std::vector<Graph> graphs;
  graphs.push_back(path(7));
  graphs.push_back(cycle(6));
  graphs.push_back(star(5));
  graphs.push_back(grid(3, 3));
  graphs.push_back(balanced_binary_tree(9));
  graphs.push_back(petersen());
  // One production-shaped family: dense cliques behind thin bridges, the
  // degree profile none of the classical members above has.
  graphs.push_back(grid_of_clusters(2, 2, 4));
  return graphs;
}

HarnessReport run_protocol_property_suite(const ProtocolSelection& selection,
                                          const HarnessOptions& options) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const ProtocolRegistry::ComposedInfo info = registry.resolve(selection);
  HarnessReport report;
  report.protocol = info.label;
  report.problem = info.problem;
  const std::unique_ptr<Problem> problem =
      ProblemRegistry::instance().make(info.problem);

  // The grid sweeps every requested daemon the composition's resolved
  // stabilization claim covers (ComposedInfo::daemons, empty = all).
  std::vector<std::string> daemons =
      options.daemons.empty() ? daemon_names() : options.daemons;
  if (!info.daemons.empty()) {
    std::erase_if(daemons, [&](const std::string& name) {
      return std::find(info.daemons.begin(), info.daemons.end(), name) ==
             info.daemons.end();
    });
  }
  const std::vector<Graph> graphs =
      options.menagerie.empty() ? harness_menagerie() : options.menagerie;

  std::uint64_t trial_index = 0;
  for (const Graph& g : graphs) {
    const std::unique_ptr<Protocol> protocol = registry.make(selection, g);
    for (const std::string& daemon_name : daemons) {
      for (int s = 0; s < options.seeds_per_daemon; ++s) {
        const std::uint64_t seed = options.base_seed + trial_index++;
        ++report.trials;
        const auto violate = [&](std::string check, std::string detail) {
          report.violations.push_back(HarnessViolation{
              info.label, g.name(), daemon_name, seed, std::move(check),
              std::move(detail)});
        };

        try {
          // Convergence: random start -> certified-silent configuration.
          Engine engine(g, *protocol, make_daemon(daemon_name), seed);
          engine.set_sweep_mode(options.sweep_mode);
          engine.set_parallel_threads(options.parallel_threads);
          engine.randomize_state();
          RunOptions run;
          run.max_steps = options.max_steps;
          run.stop_on_silence = true;
          const RunStats stats = engine.run(run);
          if (!stats.silent) {
            violate("convergence",
                    "no certified-silent configuration within " +
                        std::to_string(options.max_steps) + " steps");
          } else {
            // Legitimacy: silent => the paired predicate holds.
            if (!problem->holds(g, engine.config())) {
              violate("legitimacy",
                      "silent configuration violates " + info.problem);
            } else {
              // Closure + silence: the post-silence window never writes a
              // communication variable and never falsifies the predicate.
              const Configuration silent_config = engine.config();
              bool comm_stable = true;
              for (int extra = 0; extra < options.closure_steps; ++extra) {
                engine.step();
                if (!engine.config().same_comm(silent_config)) {
                  violate("silence",
                          "communication variable changed " +
                              std::to_string(extra + 1) +
                              " step(s) after certified silence");
                  comm_stable = false;
                  break;
                }
              }
              if (comm_stable && !problem->holds(g, engine.config())) {
                violate("closure", info.problem +
                                       " falsified during the post-silence "
                                       "window without a communication write");
              }
            }
          }

          // Equivalence: incremental engine vs full-scan oracle, same seed.
          const std::string mismatch = lockstep_mismatch(
              g, *protocol, daemon_name, seed, options.lockstep_steps,
              options.sweep_mode, options.parallel_threads);
          if (!mismatch.empty()) violate("equivalence", mismatch);
        } catch (const InvariantError& error) {
          // An engine invariant failed (phase 1's stale-action check, for
          // one): the engine cannot be trusted for the trial's remaining
          // checks, and the report names the broken invariant.
          violate("invariant", error.what());
        }
      }
    }
  }
  return report;
}

HarnessReport run_protocol_property_suite(const std::string& protocol_name,
                                          const HarnessOptions& options) {
  return run_protocol_property_suite(
      ProtocolSelection::base(protocol_name, options.params), options);
}

std::vector<HarnessReport> run_registry_property_suite(
    const HarnessOptions& options) {
  std::vector<HarnessReport> reports;
  for (const std::string& name :
       ProtocolRegistry::instance().protocol_names()) {
    reports.push_back(run_protocol_property_suite(name, options));
  }
  return reports;
}

HarnessReport run_protocol_fault_closure_suite(
    const ProtocolSelection& selection, const HarnessOptions& options) {
  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  const ProtocolRegistry::ComposedInfo info = registry.resolve(selection);
  HarnessReport report;
  report.protocol = info.label;
  report.problem = info.problem;
  const std::unique_ptr<Problem> problem =
      ProblemRegistry::instance().make(info.problem);

  std::vector<std::string> daemons =
      options.daemons.empty() ? daemon_names() : options.daemons;
  if (!info.daemons.empty()) {
    std::erase_if(daemons, [&](const std::string& name) {
      return std::find(info.daemons.begin(), info.daemons.end(), name) ==
             info.daemons.end();
    });
  }
  const std::vector<Graph> graphs =
      options.menagerie.empty() ? harness_menagerie() : options.menagerie;

  std::uint64_t trial_index = 0;
  for (const Graph& g : graphs) {
    const std::unique_ptr<Protocol> protocol = registry.make(selection, g);
    for (const std::string& daemon_name : daemons) {
      for (int s = 0; s < options.seeds_per_daemon; ++s) {
        const std::uint64_t seed = options.base_seed + trial_index++;
        ++report.trials;
        const auto violate = [&](std::string check, std::string detail) {
          report.violations.push_back(HarnessViolation{
              info.label, g.name(), daemon_name, seed, std::move(check),
              std::move(detail)});
        };

        Engine engine(g, *protocol, make_daemon(daemon_name), seed);
        engine.set_sweep_mode(options.sweep_mode);
        engine.set_parallel_threads(options.parallel_threads);
        engine.randomize_state();
        RunOptions run;
        run.max_steps = options.max_steps;
        run.stop_on_silence = true;
        if (!engine.run(run).silent) continue;  // vacuous cell (see header)

        // The fault stream is independent of the engine's own rng so the
        // corruption is an *external* event, like the churn runtime's.
        Rng fault_rng(seed ^ 0xfa17c0deULL);
        const int count =
            std::min(options.fault_victims, g.num_vertices());
        const std::vector<ProcessId> victims =
            choose_victims(g.num_vertices(), count, fault_rng);
        engine.apply_external_corruption(victims, fault_rng);

        if (!engine.run(run).silent) {
          violate("fault-convergence",
                  "no certified-silent configuration within " +
                      std::to_string(options.max_steps) +
                      " steps after corrupting " + std::to_string(count) +
                      " process(es)");
        } else if (!problem->holds(g, engine.config())) {
          violate("fault-legitimacy",
                  "post-recovery silent configuration violates " +
                      info.problem);
        }
      }
    }
  }
  return report;
}

HarnessReport run_protocol_fault_closure_suite(
    const std::string& protocol_name, const HarnessOptions& options) {
  return run_protocol_fault_closure_suite(
      ProtocolSelection::base(protocol_name, options.params), options);
}

std::vector<HarnessReport> run_registry_fault_closure_suite(
    const HarnessOptions& options) {
  std::vector<HarnessReport> reports;
  for (const std::string& name :
       ProtocolRegistry::instance().protocol_names()) {
    reports.push_back(run_protocol_fault_closure_suite(name, options));
  }
  return reports;
}

}  // namespace sss::testing
