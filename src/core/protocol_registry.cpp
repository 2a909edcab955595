#include "core/protocol_registry.hpp"

#include <algorithm>

#include "baselines/full_read_coloring.hpp"
#include "baselines/full_read_leader_election.hpp"
#include "baselines/full_read_matching.hpp"
#include "baselines/full_read_mis.hpp"
#include "baselines/full_read_spanning_forest.hpp"
#include "core/coloring_protocol.hpp"
#include "core/leader_election_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "core/spanning_forest_protocol.hpp"
#include "graph/coloring.hpp"
#include "transformer/generic_efficiency.hpp"
#include "transformer/rotating_check.hpp"

namespace sss {

namespace {

/// The coloring substrate of the locally-colored protocols, by scheme name.
Coloring make_coloring(const Graph& g, const ParamMap& params) {
  const std::string scheme = param_string(params, "coloring", "greedy");
  if (scheme == "greedy") return greedy_coloring(g);
  if (scheme == "dsatur") return dsatur_coloring(g);
  if (scheme == "identity") return identity_coloring(g);
  if (scheme == "random") {
    Rng rng(static_cast<std::uint64_t>(param_int(params, "coloring_seed", 1)));
    return randomized_greedy_coloring(g, rng);
  }
  throw PreconditionError(
      "unknown coloring scheme \"" + scheme +
      "\" (accepted: greedy, dsatur, random, identity)");
}

int palette_size(const ParamMap& params) {
  return static_cast<int>(param_int(params, "palette_size", 0));
}

/// Root process of the rooted tree protocols, validated against the graph.
ProcessId tree_root(const Graph& g, const ParamMap& params) {
  const std::int64_t root = param_int(params, "root", 0);
  SSS_REQUIRE(root >= 0 && root < g.num_vertices(),
              "parameter \"root\" must name a process id in [0, " +
                  std::to_string(g.num_vertices()) + ")");
  return static_cast<ProcessId>(root);
}

/// Root set of the forest protocols: a comma-separated list of process
/// ids ("0,3,7"), validated against the graph and required distinct.
std::vector<ProcessId> forest_roots(const Graph& g, const ParamMap& params) {
  const std::string spec = param_string(params, "roots", "0");
  std::vector<ProcessId> roots;
  for (const std::string& field : split(spec, ',')) {
    const std::string token = trim(field);
    int id = 0;
    SSS_REQUIRE(parse_non_negative_int(token, &id) && id < g.num_vertices(),
                "parameter \"roots\" must be comma-separated process ids in "
                "[0, " +
                    std::to_string(g.num_vertices()) + "), got \"" + spec +
                    "\"");
    SSS_REQUIRE(std::find(roots.begin(), roots.end(), id) == roots.end(),
                "parameter \"roots\" lists process " + std::to_string(id) +
                    " twice");
    roots.push_back(id);
  }
  return roots;
}

/// Identifier assignment of the identified election protocols.
std::vector<Value> election_ids(const Graph& g, const ParamMap& params) {
  return make_id_assignment(
      g, param_string(params, "id_scheme", "identity"),
      static_cast<std::uint64_t>(param_int(params, "id_seed", 1)));
}

const std::vector<std::string> kColoredParams = {"coloring", "coloring_seed"};
const std::vector<std::string> kRootedParams = {"root"};
const std::vector<std::string> kForestParams = {"roots"};
const std::vector<std::string> kIdentifiedParams = {"id_scheme", "id_seed"};
/// Redrawing among the colors the neighbors do not use can leave two
/// deterministically co-fired neighbors one shared free color forever
/// (see Entry::daemons); these claims need a scheduler that eventually
/// fires conflicting neighbors apart.
const std::vector<std::string> kNoCoFiringDaemons = {
    "central-rr", "central-random", "distributed", "enumerator"};

/// Intersection of two daemon claims; empty = unrestricted (see
/// Entry::daemons). A genuinely empty intersection is a composition error.
std::vector<std::string> intersect_daemons(const std::vector<std::string>& a,
                                           const std::vector<std::string>& b,
                                           const std::string& label) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  std::vector<std::string> out;
  for (const std::string& name : a) {
    if (std::find(b.begin(), b.end(), name) != b.end()) out.push_back(name);
  }
  SSS_REQUIRE(!out.empty(),
              "composition \"" + label +
                  "\" has no daemon satisfying both the transformer's and "
                  "the inner protocol's stabilization claims");
  return out;
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::instance() {
  // Construct-on-first-use with the built-ins installed here, so linking
  // any registry user links them too (see family_registry.cpp).
  using Kind = Entry::Kind;
  static ProtocolRegistry* registry = [] {
    auto* fresh = new ProtocolRegistry();
    fresh->add({.name = "coloring",
                .params = {"palette_size"},
                .problem = "vertex-coloring",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<ColoringProtocol>(g,
                                                            palette_size(p));
                }});
    fresh->add({.name = "full-read-coloring",
                .params = {"palette_size"},
                .problem = "vertex-coloring",
                .daemons = kNoCoFiringDaemons,
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<FullReadColoring>(g,
                                                            palette_size(p));
                }});
    fresh->add({.name = "mis",
                .params = {"coloring", "coloring_seed",
                           "promote_on_higher_color"},
                .problem = "maximal-independent-set",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<MisProtocol>(
                      g, make_coloring(g, p),
                      param_bool(p, "promote_on_higher_color", true));
                }});
    fresh->add({.name = "full-read-mis",
                .params = kColoredParams,
                .problem = "maximal-independent-set",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<FullReadMis>(g, make_coloring(g, p));
                }});
    fresh->add({.name = "matching",
                .params = kColoredParams,
                .problem = "maximal-matching",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<MatchingProtocol>(
                      g, make_coloring(g, p));
                }});
    // The baseline carries no cur variable, so the Section 5.3 predicate
    // does not apply to its layout; it pairs with the mutual-PR variant.
    fresh->add({.name = "full-read-matching",
                .params = kColoredParams,
                .problem = "mutual-pr-matching",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<FullReadMatching>(
                      g, make_coloring(g, p));
                }});
    fresh->add({.name = "bfs-tree",
                .params = kRootedParams,
                .problem = "bfs-spanning-tree",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<SpanningForestProtocol>(
                      g, std::vector<ProcessId>{tree_root(g, p)}, "BFS-TREE");
                }});
    fresh->add({.name = "full-read-bfs-tree",
                .params = kRootedParams,
                .problem = "bfs-spanning-tree",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<FullReadSpanningForest>(
                      g, std::vector<ProcessId>{tree_root(g, p)},
                      "FULL-READ-BFS-TREE");
                }});
    fresh->add({.name = "spanning-forest",
                .params = kForestParams,
                .problem = "bfs-spanning-forest",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<SpanningForestProtocol>(
                      g, forest_roots(g, p));
                }});
    fresh->add({.name = "full-read-spanning-forest",
                .params = kForestParams,
                .problem = "bfs-spanning-forest",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<FullReadSpanningForest>(
                      g, forest_roots(g, p));
                }});
    fresh->add({.name = "leader-election",
                .params = kIdentifiedParams,
                .problem = "leader-election",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<LeaderElectionProtocol>(
                      g, election_ids(g, p));
                }});
    fresh->add({.name = "full-read-leader-election",
                .params = kIdentifiedParams,
                .problem = "leader-election",
                .make = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<FullReadLeaderElection>(
                      g, election_ids(g, p));
                }});
    // Transformers: higher-order entries whose selection nests another
    // entry. Problems and daemon claims resolve through the nesting
    // (inherit / intersect; see resolve()).
    // Every rule protocol is listed, so its composition runs on the slab
    // kernels its .cpp instantiates; a nested transformer falls through to
    // the per-process GenericEfficiency<Protocol>.
    fresh->add({.name = "generic-efficiency",
                .kind = Kind::kTransformer,
                .wraps = Kind::kProtocol,
                .wrap = [](const Graph& g, const ParamMap&,
                           const ProtocolSelection& inner)
                    -> std::unique_ptr<Protocol> {
                  return make_generic_efficiency<
                      ColoringProtocol, FullReadColoring, MisProtocol,
                      FullReadMis, MatchingProtocol, FullReadMatching,
                      SpanningForestProtocol, FullReadSpanningForest,
                      LeaderElectionProtocol, FullReadLeaderElection>(
                      g, ProtocolRegistry::instance().make(inner, g));
                }});
    // Rotating-check's repair draws among the values the neighbors do not
    // use — the same co-firing caveat as FULL-READ-COLORING.
    fresh->add({.name = "rotating-check",
                .kind = Kind::kTransformer,
                .daemons = kNoCoFiringDaemons,
                .wraps = Kind::kCheckerSource,
                .wrap = [](const Graph& g, const ParamMap&,
                           const ProtocolSelection& inner)
                    -> std::unique_ptr<Protocol> {
                  return std::make_unique<RotatingCheck>(
                      g,
                      ProtocolRegistry::instance().make_checker(inner, g));
                }});
    fresh->add({.name = "pairwise-coloring",
                .kind = Kind::kCheckerSource,
                .params = {"palette_size"},
                .problem = "vertex-coloring",
                .checker = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<PairwiseCheckable> {
                  return std::make_unique<PairwiseColoring>(g,
                                                            palette_size(p));
                }});
    // No registered Problem: the separation predicate lives on
    // PairwiseSeparation::separated (parameterized by `separation`, which
    // the problem registry's nullary factories cannot express).
    fresh->add({.name = "pairwise-separation",
                .kind = Kind::kCheckerSource,
                .params = {"separation", "palette_size"},
                .checker = [](const Graph& g, const ParamMap& p)
                    -> std::unique_ptr<PairwiseCheckable> {
                  return std::make_unique<PairwiseSeparation>(
                      g, static_cast<int>(param_int(p, "separation", 1)),
                      palette_size(p));
                }});
    return fresh;
  }();
  return *registry;
}

void ProtocolRegistry::add(Entry entry) {
  SSS_REQUIRE(!entry.name.empty(), "a protocol entry needs a name");
  switch (entry.kind) {
    case Entry::Kind::kProtocol:
      SSS_REQUIRE(entry.make != nullptr && entry.wrap == nullptr &&
                      entry.checker == nullptr,
                  "protocol entry \"" + entry.name +
                      "\" needs exactly a `make` factory");
      break;
    case Entry::Kind::kTransformer:
      SSS_REQUIRE(entry.wrap != nullptr && entry.make == nullptr &&
                      entry.checker == nullptr,
                  "transformer entry \"" + entry.name +
                      "\" needs exactly a `wrap` factory");
      break;
    case Entry::Kind::kCheckerSource:
      SSS_REQUIRE(entry.checker != nullptr && entry.make == nullptr &&
                      entry.wrap == nullptr,
                  "checker-source entry \"" + entry.name +
                      "\" needs exactly a `checker` factory");
      break;
  }
  SSS_REQUIRE(!contains(entry.name),
              "protocol \"" + entry.name + "\" is already registered");
  entries_.push_back(std::move(entry));
}

bool ProtocolRegistry::contains(const std::string& protocol_name) const {
  for (const Entry& candidate : entries_) {
    if (candidate.name == protocol_name) return true;
  }
  return false;
}

const ProtocolRegistry::Entry& ProtocolRegistry::info(
    const std::string& protocol_name) const {
  for (const Entry& candidate : entries_) {
    if (candidate.name == protocol_name) return candidate;
  }
  throw PreconditionError("unknown protocol \"" + protocol_name +
                          "\" (known: " + join(names(), ", ") + ")");
}

ProtocolRegistry::ComposedInfo ProtocolRegistry::resolve(
    const ProtocolSelection& selection) const {
  const Entry& chosen = info(selection.name);
  require_known_params(selection.params, chosen.params,
                       "protocol \"" + chosen.name + "\"");
  if (chosen.kind != Entry::Kind::kTransformer) {
    SSS_REQUIRE(chosen.runnable(),
                "\"" + chosen.name +
                    "\" is a checker source, not a runnable protocol; "
                    "select it as the inner spec of \"rotating-check\"");
    SSS_REQUIRE(selection.inner == nullptr,
                "protocol \"" + chosen.name +
                    "\" does not take an inner protocol spec");
    return ComposedInfo{chosen.name, chosen.problem, chosen.daemons};
  }
  SSS_REQUIRE(selection.inner != nullptr,
              "transformer \"" + chosen.name +
                  "\" needs an inner protocol spec");
  const Entry& wrapped = info(selection.inner->name);
  if (chosen.wraps == Entry::Kind::kCheckerSource) {
    SSS_REQUIRE(wrapped.kind == Entry::Kind::kCheckerSource,
                "transformer \"" + chosen.name +
                    "\" wraps a checker source, but \"" + wrapped.name +
                    "\" is not one");
    // Checker sources never nest further: validate the leaf directly (the
    // recursive resolve would reject it as non-runnable).
    require_known_params(selection.inner->params, wrapped.params,
                         "protocol \"" + wrapped.name + "\"");
    SSS_REQUIRE(selection.inner->inner == nullptr,
                "protocol \"" + wrapped.name +
                    "\" does not take an inner protocol spec");
    ComposedInfo out;
    out.label = chosen.name + "(" + wrapped.name + ")";
    out.problem = chosen.problem.empty() ? wrapped.problem : chosen.problem;
    out.daemons =
        intersect_daemons(chosen.daemons, wrapped.daemons, out.label);
    return out;
  }
  SSS_REQUIRE(wrapped.runnable(),
              "transformer \"" + chosen.name +
                  "\" wraps a runnable protocol, but \"" + wrapped.name +
                  "\" is a checker source (only \"rotating-check\" wraps "
                  "those)");
  const ComposedInfo inner = resolve(*selection.inner);
  ComposedInfo out;
  out.label = chosen.name + "(" + inner.label + ")";
  out.problem = chosen.problem.empty() ? inner.problem : chosen.problem;
  out.daemons = intersect_daemons(chosen.daemons, inner.daemons, out.label);
  return out;
}

std::unique_ptr<Protocol> ProtocolRegistry::make(
    const ProtocolSelection& selection, const Graph& g) const {
  resolve(selection);  // full composition validation, with its messages
  const Entry& chosen = info(selection.name);
  if (chosen.kind == Entry::Kind::kTransformer) {
    return chosen.wrap(g, selection.params, *selection.inner);
  }
  return chosen.make(g, selection.params);
}

std::unique_ptr<Protocol> ProtocolRegistry::make(
    const std::string& protocol_name, const Graph& g,
    const ParamMap& params) const {
  return make(ProtocolSelection::base(protocol_name, params), g);
}

std::unique_ptr<PairwiseCheckable> ProtocolRegistry::make_checker(
    const ProtocolSelection& selection, const Graph& g) const {
  const Entry& chosen = info(selection.name);
  SSS_REQUIRE(chosen.kind == Entry::Kind::kCheckerSource,
              "\"" + chosen.name + "\" is not a checker source");
  require_known_params(selection.params, chosen.params,
                       "protocol \"" + chosen.name + "\"");
  SSS_REQUIRE(selection.inner == nullptr,
              "protocol \"" + chosen.name +
                  "\" does not take an inner protocol spec");
  return chosen.checker(g, selection.params);
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& candidate : entries_) out.push_back(candidate.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> ProtocolRegistry::protocol_names() const {
  std::vector<std::string> out;
  for (const Entry& candidate : entries_) {
    if (candidate.kind == Entry::Kind::kProtocol) out.push_back(candidate.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sss
