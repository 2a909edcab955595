/// The harness must be falsifiable, not vacuous: this suite registers
/// deliberately broken toy protocols (and a trivially-true toy problem)
/// in this binary's registries and asserts the property harness reports
/// the exact violation class each one plants.
///
/// The centerpiece is DelayedBlinker, a closure violator: its
/// communication write is separated from the current state by a long
/// internal countdown, so the exact quiescence check — which only probes
/// degree(p) + margin solo activations — legitimately certifies a
/// configuration silent while a communication write is still scheduled.
/// The harness's post-silence window must catch the write resuming.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "protocol_harness.hpp"
#include "runtime/metrics.hpp"
#include "runtime/protocol.hpp"

namespace sss {
namespace {

/// Holds in every configuration, so the only reportable violations are
/// the behavioural ones the toy protocols plant.
class AlwaysTrueProblem final : public Problem {
 public:
  const std::string& name() const override {
    static const std::string kName = "always-true";
    return kName;
  }
  bool holds(const Graph&, const Configuration&) const override {
    return true;
  }
};

/// Ticks an internal countdown and flips its communication bit only when
/// the countdown expires. With kPeriod far beyond degree + margin, the
/// solo quiescence probe cannot see the pending flip: silence gets
/// certified, then a communication write lands — a closure violation.
class DelayedBlinker final : public Protocol {
 public:
  static constexpr Value kPeriod = 60;

  explicit DelayedBlinker(const Graph&) {
    spec_.comm.emplace_back("B", VarDomain{0, 1});
    spec_.internal.emplace_back("c", VarDomain{0, kPeriod});
  }
  const std::string& name() const override {
    static const std::string kName = "BROKEN-BLINKER";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }
  int first_enabled(GuardContext& ctx) const override {
    return ctx.self_internal(0) == kPeriod ? 0 : 1;
  }
  void execute(int action, ActionContext& ctx) const override {
    if (action == 0) {
      ctx.set_comm(0, 1 - ctx.self_comm(0));
      ctx.set_internal(0, 0);
    } else {
      ctx.set_internal(0, ctx.self_internal(0) + 1);
    }
  }

 private:
  ProtocolSpec spec_;
};

/// Always enabled, always writing: never reaches silence.
class NeverSilent final : public Protocol {
 public:
  explicit NeverSilent(const Graph&) {
    spec_.comm.emplace_back("B", VarDomain{0, 1});
  }
  const std::string& name() const override {
    static const std::string kName = "NEVER-SILENT";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext&) const override { return 0; }
  void execute(int, ActionContext& ctx) const override {
    ctx.set_comm(0, 1 - ctx.self_comm(0));
  }

 private:
  ProtocolSpec spec_;
};

/// Never enabled: every configuration is silent — and with a one-value
/// color domain every pair of neighbors conflicts, so pairing it with the
/// vertex-coloring predicate plants a deterministic legitimacy violation.
class InstantlySilent final : public Protocol {
 public:
  explicit InstantlySilent(const Graph&) {
    spec_.comm.emplace_back("C", VarDomain{1, 1});
  }
  const std::string& name() const override {
    static const std::string kName = "INSTANTLY-SILENT";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext&) const override { return kDisabled; }
  void execute(int, ActionContext&) const override {}

 private:
  ProtocolSpec spec_;
};

/// Scalar guard drives X to 1 and goes quiet; the refresh kernel claims
/// the other action whenever X != 2 — a planted kernel/scalar divergence.
/// On the scalar path the protocol is well behaved, so only a grid that
/// actually runs the kernel can flag it: the falsifiability proof for the
/// kAuto harness leg.
class WrongSweep final : public Protocol {
 public:
  explicit WrongSweep(const Graph&) {
    spec_.comm.emplace_back("X", VarDomain{0, 3});
  }
  const std::string& name() const override {
    static const std::string kName = "WRONG-SWEEP";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }
  int first_enabled(GuardContext& ctx) const override {
    return ctx.self_comm(0) != 1 ? 0 : kDisabled;
  }
  void execute(int action, ActionContext& ctx) const override {
    ctx.set_comm(0, action == 0 ? 1 : 2);
  }
  bool has_bulk_sweep() const override { return true; }
  void sweep_enabled_ids(BulkGuardContext& ctx, EnabledBitmap& out,
                         std::span<const ProcessId> ids) const override {
    const Configuration& cfg = ctx.config();
    for (const ProcessId p : ids) {
      out.set_action(p, cfg.comm(p, 0) != 2 ? 1 : kDisabled);
    }
  }

 private:
  ProtocolSpec spec_;
};

/// Scalar execute drives X to 1 and goes quiet; the bulk execute kernel
/// stages 2 instead — a planted bulk/scalar divergence on the *execute*
/// half (the guards are untouched, so the bulk sweep fallback stays
/// correct). On the scalar default the protocol is well behaved; only a
/// grid that actually runs the kernel can flag it: the falsifiability
/// proof for invariant 6 under SweepMode::kAuto.
class WrongExecute final : public Protocol {
 public:
  explicit WrongExecute(const Graph&) {
    spec_.comm.emplace_back("X", VarDomain{0, 3});
  }
  const std::string& name() const override {
    static const std::string kName = "WRONG-EXECUTE";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext& ctx) const override {
    return ctx.self_comm(0) != 1 ? 0 : kDisabled;
  }
  void execute(int, ActionContext& ctx) const override {
    ctx.set_comm(0, 1);
  }
  void execute_selected(BulkExecContext& ctx, const EnabledBitmap& enabled,
                        std::span<const ProcessId> selection,
                        std::size_t begin, std::size_t end) const override {
    // Honors the kernel contract (re-run and check the guard, skip
    // disabled, stage) so the surrounding machinery runs exactly as for a
    // correct kernel — only the staged value is wrong.
    for (std::size_t i = begin; i < end; ++i) {
      const ProcessId p = selection[i];
      const int action = ctx.config().comm(p, 0) != 1 ? 0 : kDisabled;
      enabled.expect_rerun(p, action);
      if (action == kDisabled) continue;
      Value* out = ctx.stage(i, p);
      out[0] = 2;
    }
  }

 private:
  ProtocolSpec spec_;
};

/// The guard reads its channel-1 neighbour's X (and ignores the value)
/// before driving its own X to 1; the bulk execute kernel re-runs the
/// guard without logging that read — a planted charge defect. Actions,
/// writes and trajectories agree on both paths, so only the read metrics
/// can flag it, and only on a grid that runs the kernel.
class SkippedGuardRead final : public Protocol {
 public:
  explicit SkippedGuardRead(const Graph&) {
    spec_.comm.emplace_back("X", VarDomain{0, 3});
  }
  const std::string& name() const override {
    static const std::string kName = "SKIPPED-GUARD-READ";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext& ctx) const override {
    (void)ctx.nbr_comm(1, 0);
    return ctx.self_comm(0) != 1 ? 0 : kDisabled;
  }
  void execute(int, ActionContext& ctx) const override {
    ctx.set_comm(0, 1);
  }
  void execute_selected(BulkExecContext& ctx, const EnabledBitmap& enabled,
                        std::span<const ProcessId> selection,
                        std::size_t begin, std::size_t end) const override {
    for (std::size_t i = begin; i < end; ++i) {
      const ProcessId p = selection[i];
      // The guard's neighbour read is neither made nor logged.
      const int action = ctx.config().comm(p, 0) != 1 ? 0 : kDisabled;
      enabled.expect_rerun(p, action);
      if (action == kDisabled) continue;
      ctx.stage(i, p)[0] = 1;
    }
  }

 private:
  ProtocolSpec spec_;
};

/// A latch with a poison region: values in [1, kPoison) self-repair to 0
/// and 0 is silent, but values >= kPoison ping-pong forever. From a
/// benign configuration the protocol stabilizes and stays silent; a
/// corruption that redraws a variable into the poison region can never
/// re-converge. The fault-closure suite must flag exactly those cells —
/// its falsifiability device. (Corruption redraws from the same domain
/// randomize_state uses, so a poison *initial* configuration is equally
/// possible; the pinned toy grid below checks both suites' verdicts on
/// their own deterministic seed sets.)
class PoisonLatch final : public Protocol {
 public:
  static constexpr Value kMax = 15;
  static constexpr Value kPoison = 14;

  explicit PoisonLatch(const Graph&) {
    spec_.comm.emplace_back("X", VarDomain{0, kMax});
  }
  const std::string& name() const override {
    static const std::string kName = "POISON-LATCH";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }
  int first_enabled(GuardContext& ctx) const override {
    const Value x = ctx.self_comm(0);
    if (x >= kPoison) return 0;  // ping-pong forever
    return x > 0 ? 1 : kDisabled;
  }
  void execute(int action, ActionContext& ctx) const override {
    if (action == 0) {
      ctx.set_comm(0, ctx.self_comm(0) == kMax ? kPoison : kMax);
    } else {
      ctx.set_comm(0, 0);
    }
  }

 private:
  ProtocolSpec spec_;
};

/// Installs the toy registry entries once per process.
void register_toys() {
  ProblemRegistry& problems = ProblemRegistry::instance();
  if (!problems.contains("always-true")) {
    problems.register_problem("always-true", {}, [] {
      return std::make_unique<AlwaysTrueProblem>();
    });
  }
  ProtocolRegistry& protocols = ProtocolRegistry::instance();
  if (!protocols.contains("broken-blinker")) {
    const auto toy = [&](std::string name, std::string problem,
                         ProtocolRegistry::Factory make) {
      protocols.add({.name = std::move(name),
                     .problem = std::move(problem),
                     .make = std::move(make)});
    };
    toy("broken-blinker", "always-true",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<DelayedBlinker>(g);
        });
    toy("never-silent", "always-true",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<NeverSilent>(g);
        });
    toy("instantly-silent", "vertex-coloring",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<InstantlySilent>(g);
        });
    toy("wrong-sweep", "always-true",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<WrongSweep>(g);
        });
    toy("wrong-execute", "always-true",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<WrongExecute>(g);
        });
    toy("skipped-guard-read", "always-true",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<SkippedGuardRead>(g);
        });
    toy("poison-latch", "always-true",
        [](const Graph& g, const ParamMap&) -> std::unique_ptr<Protocol> {
          return std::make_unique<PoisonLatch>(g);
        });
  }
}

/// Small fast grid for the toys: two processes keep the blinker phases
/// coarse enough that certification always happens between flips.
testing::HarnessOptions toy_options() {
  testing::HarnessOptions options;
  options.menagerie.push_back(path(2));
  options.daemons = {"synchronous", "central-rr"};
  options.seeds_per_daemon = 3;
  options.max_steps = 20'000;
  // Both processes flip within one full countdown of every daemon's
  // schedule: 2 processes x (kPeriod + 1) central-rr selections.
  options.closure_steps = 2 * (DelayedBlinker::kPeriod + 1) + 8;
  options.lockstep_steps = 64;
  return options;
}

TEST(ProtocolHarnessFalsifiability, FlagsClosureViolation) {
  register_toys();
  const testing::HarnessReport report =
      testing::run_protocol_property_suite("broken-blinker", toy_options());
  ASSERT_FALSE(report.ok()) << "the harness certified a protocol that "
                               "resumes writing after silence";
  ASSERT_FALSE(report.violations.empty());
  for (const testing::HarnessViolation& violation : report.violations) {
    // The planted defect is exactly the silence/closure property: a
    // certified-silent configuration is not closed under further steps.
    EXPECT_EQ(violation.check, "silence") << report.str();
  }
  // Every trial must catch it — the defect is deterministic in phase.
  EXPECT_EQ(static_cast<int>(report.violations.size()), report.trials);
}

TEST(ProtocolHarnessFalsifiability, FlagsConvergenceViolation) {
  register_toys();
  const testing::HarnessReport report =
      testing::run_protocol_property_suite("never-silent", toy_options());
  ASSERT_FALSE(report.ok());
  for (const testing::HarnessViolation& violation : report.violations) {
    EXPECT_EQ(violation.check, "convergence") << report.str();
  }
}

TEST(ProtocolHarnessFalsifiability, FlagsLegitimacyViolation) {
  register_toys();
  // Every configuration of the inert toy is silent and monochrome, so
  // every trial is certified silent yet fails the coloring predicate.
  const testing::HarnessReport report =
      testing::run_protocol_property_suite("instantly-silent", toy_options());
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(static_cast<int>(report.violations.size()), report.trials);
  for (const testing::HarnessViolation& violation : report.violations) {
    EXPECT_EQ(violation.check, "legitimacy") << report.str();
  }
}

TEST(ProtocolHarnessFalsifiability, FlagsWrongBulkSweep) {
  register_toys();
  // On the scalar path the planted kernel never runs: the toy converges,
  // closes, and lockstep-matches the oracle.
  testing::HarnessOptions options = toy_options();
  options.sweep_mode = SweepMode::kForceScalar;
  const testing::HarnessReport scalar_report =
      testing::run_protocol_property_suite("wrong-sweep", options);
  EXPECT_TRUE(scalar_report.ok()) << scalar_report.str();

  // Every kAuto refresh runs the kernel, under the central daemon's small
  // dirty sets too, so kAuto must surface the divergence. Phase 1 re-runs
  // each selected guard, so the kernel's wrong action is caught by the
  // engine itself: the re-run disagrees with the refreshed action, and
  // every trial ends on that invariant.
  options.sweep_mode = SweepMode::kAuto;
  const testing::HarnessReport bulk_report =
      testing::run_protocol_property_suite("wrong-sweep", options);
  ASSERT_FALSE(bulk_report.ok())
      << "the harness certified a protocol whose refresh kernel disagrees "
         "with its scalar guards";
  EXPECT_EQ(static_cast<int>(bulk_report.violations.size()),
            bulk_report.trials);
  for (const testing::HarnessViolation& violation : bulk_report.violations) {
    EXPECT_EQ(violation.check, "invariant") << bulk_report.str();
    EXPECT_NE(violation.detail.find("refreshed action"), std::string::npos)
        << bulk_report.str();
  }
}

TEST(ProtocolHarnessFalsifiability, FlagsWrongBulkExecute) {
  register_toys();
  // On the scalar path the planted kernel never runs: the toy converges,
  // closes, and lockstep-matches the oracle.
  testing::HarnessOptions options = toy_options();
  options.sweep_mode = SweepMode::kForceScalar;
  const testing::HarnessReport scalar_report =
      testing::run_protocol_property_suite("wrong-execute", options);
  EXPECT_TRUE(scalar_report.ok()) << scalar_report.str();

  // kAuto runs the execute kernel for every selection, so it must surface
  // the divergence — the ReferenceEngine lockstep is the kernel's oracle.
  options.sweep_mode = SweepMode::kAuto;
  const testing::HarnessReport bulk_report =
      testing::run_protocol_property_suite("wrong-execute", options);
  ASSERT_FALSE(bulk_report.ok())
      << "the harness certified a protocol whose bulk execute kernel "
         "disagrees with its scalar actions";
  bool saw_equivalence = false;
  for (const testing::HarnessViolation& violation : bulk_report.violations) {
    if (violation.check == "equivalence") saw_equivalence = true;
  }
  EXPECT_TRUE(saw_equivalence) << bulk_report.str();
}

TEST(ProtocolHarnessFalsifiability, FlagsKernelSkippingAGuardRead) {
  register_toys();
  // On the scalar path the planted kernel never runs: the toy converges,
  // closes, and lockstep-matches the oracle.
  testing::HarnessOptions options = toy_options();
  options.sweep_mode = SweepMode::kForceScalar;
  const testing::HarnessReport scalar_report =
      testing::run_protocol_property_suite("skipped-guard-read", options);
  EXPECT_TRUE(scalar_report.ok()) << scalar_report.str();

  // kAuto re-runs every selected guard in the kernel, which drops one
  // read: configurations agree, so the ReferenceEngine lockstep must
  // flag the read metrics.
  options.sweep_mode = SweepMode::kAuto;
  const testing::HarnessReport bulk_report =
      testing::run_protocol_property_suite("skipped-guard-read", options);
  ASSERT_FALSE(bulk_report.ok())
      << "the harness certified a kernel that charges fewer guard reads "
         "than the scalar guard makes";
  bool saw_read_metrics = false;
  for (const testing::HarnessViolation& violation : bulk_report.violations) {
    EXPECT_EQ(violation.check, "equivalence") << bulk_report.str();
    if (violation.detail.find("read metrics") != std::string::npos) {
      saw_read_metrics = true;
    }
  }
  EXPECT_TRUE(saw_read_metrics) << bulk_report.str();
}

/// Pinned grid for the poison-latch: enough seeds that at least one
/// cell's corruption deterministically redraws a victim into the poison
/// region (verified by the assertions below — the seeds are fixed, so the
/// outcome is a constant of the repository).
testing::HarnessOptions poison_options() {
  testing::HarnessOptions options;
  options.menagerie.push_back(path(2));
  options.menagerie.push_back(path(3));
  options.daemons = {"synchronous", "central-rr"};
  options.seeds_per_daemon = 6;
  options.max_steps = 20'000;
  options.closure_steps = 16;
  options.lockstep_steps = 32;
  return options;
}

TEST(ProtocolHarnessFalsifiability, FaultSuiteFlagsThePoisonLatch) {
  register_toys();
  const testing::HarnessReport report =
      testing::run_protocol_fault_closure_suite("poison-latch",
                                                poison_options());
  ASSERT_FALSE(report.ok())
      << "the fault-closure suite certified a protocol that cannot "
         "re-converge from a corrupted configuration";
  for (const testing::HarnessViolation& violation : report.violations) {
    // The latch's defect is exactly non-re-convergence: a poisoned victim
    // ping-pongs forever, so no later configuration is ever certified
    // silent (and the fault-legitimacy check is never reached).
    EXPECT_EQ(violation.check, "fault-convergence") << report.str();
  }
}

TEST(ProtocolHarnessFalsifiability, FaultSuitePassesRealProtocols) {
  register_toys();
  // Sanity: the grid that flags the latch does not flag a real protocol —
  // re-convergence after corruption is the self-stabilization property.
  const testing::HarnessReport coloring =
      testing::run_protocol_fault_closure_suite("coloring", poison_options());
  EXPECT_TRUE(coloring.ok()) << coloring.str();
  EXPECT_GT(coloring.trials, 0);
}

TEST(ProtocolHarnessFalsifiability, RealProtocolsPassTheSameToyGrid) {
  register_toys();
  // Sanity: the grid that flags the toys does not flag a real protocol.
  const testing::HarnessReport report =
      testing::run_protocol_property_suite("coloring", toy_options());
  EXPECT_TRUE(report.ok()) << report.str();
}

/// Engine settings under which a step still runs the protocol's execute
/// hook, so the planted kernels must be reached there too.
enum class Pin { kFrozenExclusion, kAttachedLogger };

const char* pin_name(Pin pin) {
  return pin == Pin::kFrozenExclusion ? "frozen exclusion" : "attached logger";
}

/// Drives a kAuto and a kForceScalar engine from the same seed, both under
/// `pin`, and names the first step at which they disagree on the
/// configuration, the read totals or the attached trackers' read sets;
/// empty when they agree for `steps` steps.
std::string mode_divergence(const Graph& g, const Protocol& protocol,
                            const std::string& daemon, std::uint64_t seed,
                            Pin pin, int steps) {
  StabilityTracker kernel_reads(g);
  StabilityTracker scalar_reads(g);
  Engine kernel(g, protocol, make_daemon(daemon), seed);
  Engine scalar(g, protocol, make_daemon(daemon), seed);
  scalar.set_sweep_mode(SweepMode::kForceScalar);
  if (pin == Pin::kFrozenExclusion) {
    kernel.set_exclude_frozen(true);
    scalar.set_exclude_frozen(true);
  } else {
    kernel.attach_read_logger(&kernel_reads);
    scalar.attach_read_logger(&scalar_reads);
  }
  kernel.randomize_state();
  scalar.randomize_state();
  for (int s = 0; s < steps; ++s) {
    kernel.step();
    scalar.step();
    const std::string at = "step " + std::to_string(s) + ": ";
    if (kernel.config() != scalar.config()) return at + "configurations";
    if (kernel.read_counter().total_reads() !=
        scalar.read_counter().total_reads()) {
      return at + "read totals";
    }
    if (kernel_reads.read_set_sizes() != scalar_reads.read_set_sizes()) {
      return at + "read sets";
    }
  }
  return "";
}

TEST(ProtocolHarnessFalsifiability, FlagsPlantedKernelsUnderFrozenAndLogger) {
  // Frozen exclusion and an attached logger run the protocol's execute
  // hook like every other step, so each planted kernel must diverge from
  // the scalar default under them: WrongExecute in its configurations,
  // SkippedGuardRead in its read metrics. A correct kernel must not.
  const Graph g = path(3);
  const WrongExecute wrong_execute(g);
  const SkippedGuardRead skipped_read(g);
  const std::unique_ptr<Protocol> coloring =
      ProtocolRegistry::instance().make("coloring", g, {});
  for (const Pin pin : {Pin::kFrozenExclusion, Pin::kAttachedLogger}) {
    for (const Protocol* protocol :
         {static_cast<const Protocol*>(&wrong_execute),
          static_cast<const Protocol*>(&skipped_read)}) {
      std::string divergence;
      for (const std::string daemon : {"synchronous", "central-rr"}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          if (divergence.empty()) {
            divergence = mode_divergence(g, *protocol, daemon, seed, pin, 32);
          }
        }
      }
      EXPECT_FALSE(divergence.empty())
          << protocol->name() << " was not flagged under " << pin_name(pin);
    }
    for (const std::string daemon : {"synchronous", "central-rr"}) {
      EXPECT_EQ(mode_divergence(g, *coloring, daemon, 1, pin, 64), "")
          << "coloring under " << pin_name(pin) << ", " << daemon;
    }
  }
}

}  // namespace
}  // namespace sss
