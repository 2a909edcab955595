#pragma once
/// \file test_util.hpp
/// Shared fixtures: toy protocols for exercising the runtime in isolation,
/// a planted faulty legitimacy form, and the standard graph menagerie used
/// by the property sweeps.

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "core/coloring_protocol.hpp"
#include "core/problems.hpp"
#include "core/protocol_registry.hpp"
#include "graph/builders.hpp"
#include "graph/coloring.hpp"
#include "runtime/protocol.hpp"

namespace sss::testing {

/// One comm bit, always enabled, flips it every activation. Never silent.
class AlwaysFlip final : public Protocol {
 public:
  explicit AlwaysFlip(const Graph&) {
    spec_.comm.emplace_back("B", VarDomain{0, 1});
  }
  const std::string& name() const override {
    static const std::string kName = "ALWAYS-FLIP";
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

/// Copies the value of the channel-1 neighbor into its own comm variable.
/// Detects snapshot semantics: under a synchronous step from [0,1] on an
/// edge, both ends must read the pre-step values and land on [1,0].
class CopyChannelOne final : public Protocol {
 public:
  explicit CopyChannelOne(const Graph&) {
    spec_.comm.emplace_back("V", VarDomain{0, 7});
  }
  const std::string& name() const override {
    static const std::string kName = "COPY-CH1";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext& ctx) const override {
    return ctx.nbr_comm(1, 0) != ctx.self_comm(0) ? 0 : kDisabled;
  }
  void execute(int, ActionContext& ctx) const override {
    ctx.set_comm(0, ctx.nbr_comm(1, 0));
  }

 private:
  ProtocolSpec spec_;
};

/// No action is ever enabled; every configuration is silent.
class Inert final : public Protocol {
 public:
  explicit Inert(const Graph&) {
    spec_.comm.emplace_back("V", VarDomain{0, 3});
  }
  const std::string& name() const override {
    static const std::string kName = "INERT";
    return kName;
  }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 1; }
  int first_enabled(GuardContext&) const override { return kDisabled; }
  void execute(int, ActionContext&) const override {}

 private:
  ProtocolSpec spec_;
};

/// gtest parameter names must be alphanumeric; daemon names contain '-'.
inline std::string sanitize(std::string text) {
  for (char& ch : text) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return text;
}

/// A labelled graph for parameterized sweeps.
struct NamedGraph {
  std::string label;  ///< sanitized for gtest parameter names
  Graph graph;
};

/// The standard sweep menagerie: paths, cycles, cliques, stars, grids,
/// trees, randoms — small enough for fast tests, varied enough to exercise
/// degree spread, symmetry, and bottlenecks.
inline std::vector<NamedGraph> sweep_graphs() {
  Rng rng(0xfeedULL);
  std::vector<NamedGraph> graphs;
  graphs.push_back({"path8", path(8)});
  graphs.push_back({"cycle9", cycle(9)});
  graphs.push_back({"complete5", complete(5)});
  graphs.push_back({"star6", star(6)});
  graphs.push_back({"grid3x4", grid(3, 4)});
  graphs.push_back({"bintree10", balanced_binary_tree(10)});
  graphs.push_back({"petersen", petersen()});
  graphs.push_back({"caterpillar4x2", caterpillar(4, 2)});
  graphs.push_back({"gnp12", erdos_renyi_connected(12, 0.3, rng)});
  graphs.push_back({"rtree11", random_tree(11, rng)});
  return graphs;
}

/// What the kernel suites hold to the scalar reference: every base
/// registry protocol, each of them wrapped in generic-efficiency (the
/// composed rule kernels), and the depth-2 composition
/// generic-efficiency(generic-efficiency(coloring)), whose outer layer
/// runs the scalar defaults of both hooks.
inline std::vector<ProtocolSelection> kernel_selections() {
  const std::vector<std::string> bases =
      ProtocolRegistry::instance().protocol_names();
  std::vector<ProtocolSelection> selections;
  for (const std::string& base : bases) {
    selections.push_back(ProtocolSelection::base(base));
  }
  for (const std::string& base : bases) {
    selections.push_back(ProtocolSelection::wrap(
        "generic-efficiency", ProtocolSelection::base(base)));
  }
  selections.push_back(ProtocolSelection::wrap(
      "generic-efficiency",
      ProtocolSelection::wrap("generic-efficiency",
                              ProtocolSelection::base("coloring"))));
  return selections;
}

/// Vertex coloring with process 0's pointer off channel 1: a predicate
/// whose local form reads the internal pointer cur. Constructed with
/// `declares_internal` false it is the planted fault: the form claims to
/// be comm-only, and since COLORING rotates cur on every activation,
/// silent or not, a tracker that trusts the claim misses those writes and
/// its count goes stale. The read-set audit and the churn lockstep must
/// both catch it, and the lockstep must pass the honest declaration.
class CurReadingColoring final : public Problem, public LocalLegitimacy {
 public:
  explicit CurReadingColoring(bool declares_internal)
      : declares_internal_(declares_internal) {}
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override {
    return inner_.holds(g, config) && pointer_ok(config, 0);
  }
  const LocalLegitimacy* local_form() const override { return this; }
  int radius() const override { return 1; }
  bool reads_internal() const override { return declares_internal_; }
  bool ok_at(const Graph& g, const Configuration& config,
             ProcessId p) const override {
    return inner_.ok_at(g, config, p) && pointer_ok(config, p);
  }
  bool constants_ok(const Graph&, const Configuration&) const override {
    return true;
  }

 private:
  static bool pointer_ok(const Configuration& config, ProcessId p) {
    return p != 0 || config.internal_var(0, ColoringProtocol::kCurVar) != 1;
  }

  std::string name_ = "cur-reading-coloring";
  bool declares_internal_;
  ColoringProblem inner_;
};

/// Tiny instances for the exhaustive model checker.
inline std::vector<NamedGraph> tiny_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"path3", path(3)});
  graphs.push_back({"triangle", complete(3)});
  graphs.push_back({"path4", path(4)});
  graphs.push_back({"star3", star(3)});
  return graphs;
}

}  // namespace sss::testing
