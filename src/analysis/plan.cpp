#include "analysis/plan.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/family_registry.hpp"
#include "runtime/daemon.hpp"
#include "support/params.hpp"
#include "support/require.hpp"

namespace sss {

namespace {

/// The run-shaping keys accepted in "defaults" and per sweep.
const std::vector<std::string> kRunKeys = {
    "daemons",    "seeds_per_daemon",    "base_seed",
    "max_steps",  "stop_on_silence",     "quiescence_patience",
    "extra_steps", "exclude_frozen",     "churn",
    "parallel_threads", "sweep_mode"};

void require_known_keys(const JsonValue& object,
                        const std::vector<std::string>& allowed,
                        const std::string& owner) {
  for (const auto& [key, value] : object.members()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw PreconditionError("unknown key \"" + key + "\" in " + owner +
                              " (accepted: " + join(allowed, ", ") + ")");
    }
  }
}

/// Narrows a manifest integer to int, erroring instead of wrapping when
/// it does not fit. Value ranges are validate_batch_item's.
int int_key(const JsonValue& value, const std::string& key) {
  const std::int64_t number = value.as_int();
  SSS_REQUIRE(number >= std::numeric_limits<int>::min() &&
                  number <= std::numeric_limits<int>::max(),
              "\"" + key + "\" must fit an int");
  return static_cast<int>(number);
}

/// Parses a "churn" block (see plan.hpp for the schema). Strict like the
/// rest of the manifest: unknown keys throw. Value ranges are
/// validate_churn_options'; this checks only what the parsed options
/// cannot show — a schedule key given its "unset" value, and negative
/// integers, which would wrap in the unsigned fields.
ChurnOptions parse_churn(const JsonValue& object) {
  require_known_keys(
      object,
      {"event_probability", "period", "window_steps", "seed", "max_victims",
       "corruption_weight", "node_reset_weight", "topology_weight",
       "stabilize_steps", "recovery_patience"},
      "\"churn\"");
  const auto count = [&object](const char* key, std::uint64_t fallback) {
    const JsonValue* value = object.find(key);
    if (value == nullptr) return fallback;
    SSS_REQUIRE(value->as_int() >= 0,
                std::string("churn \"") + key + "\" cannot be negative");
    return static_cast<std::uint64_t>(value->as_int());
  };
  const auto int_field = [&object](const char* key, int fallback) {
    const JsonValue* value = object.find(key);
    return value == nullptr ? fallback : int_key(*value, key);
  };
  ChurnOptions churn;
  if (const JsonValue* p = object.find("event_probability")) {
    churn.event_probability = p->as_double();
    SSS_REQUIRE(churn.event_probability > 0.0,
                "\"event_probability\" must be in (0, 1]");
  }
  if (const JsonValue* period = object.find("period")) {
    SSS_REQUIRE(period->as_int() >= 1, "\"period\" must be >= 1");
    churn.period = static_cast<std::uint64_t>(period->as_int());
  }
  churn.window_steps = count("window_steps", churn.window_steps);
  churn.seed = count("seed", churn.seed);
  churn.max_victims = int_field("max_victims", churn.max_victims);
  churn.corruption_weight =
      int_field("corruption_weight", churn.corruption_weight);
  churn.node_reset_weight =
      int_field("node_reset_weight", churn.node_reset_weight);
  churn.topology_weight = int_field("topology_weight", churn.topology_weight);
  churn.stabilize_steps = count("stabilize_steps", churn.stabilize_steps);
  churn.recovery_patience =
      count("recovery_patience", churn.recovery_patience);
  // Checked here as well as per item, so a defaults-level block every
  // sweep overrides is still rejected when malformed.
  validate_churn_options(churn);
  return churn;
}

/// Resolves daemon names; validate_batch_item rejects an empty list.
std::vector<std::string> parse_daemons(const JsonValue& value) {
  std::vector<std::string> daemons;
  for (const JsonValue& entry : value.items()) {
    const std::string& name = entry.as_string();
    const std::vector<std::string>& known = daemon_names();
    SSS_REQUIRE(std::find(known.begin(), known.end(), name) != known.end(),
                "unknown daemon \"" + name + "\" (known: " +
                    join(known, ", ") + ")");
    daemons.push_back(name);
  }
  return daemons;
}

/// Folds the run keys present in `object` onto `prototype`, the item every
/// expanded item of a sweep starts from. Checks only JSON types, name
/// resolution and what a cast would hide; item ranges are
/// validate_batch_item's, run per expanded item.
void apply_run_keys(const JsonValue& object, BatchItem& prototype) {
  if (const JsonValue* daemons = object.find("daemons")) {
    prototype.daemons = parse_daemons(*daemons);
  }
  if (const JsonValue* seeds = object.find("seeds_per_daemon")) {
    prototype.seeds_per_daemon = int_key(*seeds, "seeds_per_daemon");
  }
  if (const JsonValue* seed = object.find("base_seed")) {
    SSS_REQUIRE(seed->as_int() >= 0, "\"base_seed\" cannot be negative");
    prototype.base_seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const JsonValue* steps = object.find("max_steps")) {
    SSS_REQUIRE(steps->as_int() >= 1, "\"max_steps\" must be >= 1");
    prototype.run.max_steps = static_cast<std::uint64_t>(steps->as_int());
  }
  if (const JsonValue* stop = object.find("stop_on_silence")) {
    prototype.run.stop_on_silence = stop->as_bool();
  }
  if (const JsonValue* patience = object.find("quiescence_patience")) {
    SSS_REQUIRE(patience->as_int() >= 0,
                "\"quiescence_patience\" cannot be negative");
    prototype.run.quiescence_patience =
        static_cast<std::uint64_t>(patience->as_int());
  }
  if (const JsonValue* extra = object.find("extra_steps")) {
    prototype.extra_steps = int_key(*extra, "extra_steps");
  }
  if (const JsonValue* frozen = object.find("exclude_frozen")) {
    prototype.exclude_frozen = frozen->as_bool();
  }
  if (const JsonValue* threads = object.find("parallel_threads")) {
    prototype.parallel_threads = int_key(*threads, "parallel_threads");
  }
  if (const JsonValue* mode = object.find("sweep_mode")) {
    prototype.sweep_mode = parse_sweep_mode(mode->as_string());
  }
  if (const JsonValue* churn = object.find("churn")) {
    // A churn block replaces any inherited one wholesale (null disables):
    // merging schedules field-by-field would make "defaults says Bernoulli,
    // sweep says periodic" silently ambiguous.
    prototype.churn_enabled = !churn->is_null();
    prototype.churn = churn->is_null() ? ChurnOptions{} : parse_churn(*churn);
  }
}

ParamValue scalar_param(const std::string& key, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNumber:
      return ParamValue(value.as_double());
    case JsonValue::Kind::kString:
      return ParamValue(value.as_string());
    case JsonValue::Kind::kBool:
      return ParamValue(value.as_bool() ? 1 : 0);
    default:
      throw PreconditionError("parameter \"" + key +
                              "\" must be a number, string, or boolean");
  }
}

/// Expands a {"from": a, "to": b, "step": s} range object (step optional,
/// default 1) into the inclusive integer progression a, a+s, ..., <= b.
/// Schema errors name the offending value's line:col in the manifest.
std::vector<ParamValue> expand_param_range(const std::string& key,
                                           const JsonValue& range) {
  const std::string context =
      "range parameter \"" + key + "\" at " + range.where();
  for (const auto& [name, unused] : range.members()) {
    SSS_REQUIRE(name == "from" || name == "to" || name == "step",
                "unknown key \"" + name + "\" in " + context +
                    " (accepted: from, to, step)");
  }
  SSS_REQUIRE(range.find("from") != nullptr && range.find("to") != nullptr,
              context + " needs \"from\" and \"to\"");
  // Type errors carry the field's own position, like the schema errors.
  const auto range_int = [&](const char* name) {
    const JsonValue& value = range.at(name);
    SSS_REQUIRE(value.is_number(),
                context + ": \"" + name + "\" must be an integer (at " +
                    value.where() + "), got " +
                    JsonValue::kind_name(value.kind()));
    try {
      return value.as_int();
    } catch (const PreconditionError&) {
      throw PreconditionError(context + ": \"" + name +
                              "\" must be an integer (at " + value.where() +
                              ")");
    }
  };
  const std::int64_t from = range_int("from");
  const std::int64_t to = range_int("to");
  const std::int64_t step = range.find("step") != nullptr ? range_int("step") : 1;
  SSS_REQUIRE(step >= 1, context + ": \"step\" must be >= 1");
  SSS_REQUIRE(from <= to, context + ": \"from\" must be <= \"to\"");
  const std::int64_t count = (to - from) / step + 1;
  SSS_REQUIRE(count <= 100'000,
              context + " expands to " + std::to_string(count) +
                  " values (max 100000)");
  std::vector<ParamValue> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::int64_t v = from; v <= to; v += step) {
    values.emplace_back(static_cast<double>(v));
  }
  return values;
}

/// Expands one graph spec into parameter maps: the cartesian product of
/// its list- and range-valued parameters, in member order with the last
/// sweep varying fastest (odometer order).
std::vector<ParamMap> expand_graph_params(const JsonValue& spec) {
  std::vector<ParamMap> combos = {ParamMap{}};
  for (const auto& [key, value] : spec.members()) {
    if (key == "family") continue;
    std::vector<ParamValue> sweep;
    if (value.is_array()) {
      SSS_REQUIRE(!value.items().empty(),
                  "parameter sweep \"" + key + "\" cannot be empty");
      sweep.reserve(value.size());
      for (const JsonValue& element : value.items()) {
        sweep.push_back(scalar_param(key, element));
      }
    } else if (value.is_object()) {
      sweep = expand_param_range(key, value);
    } else {
      sweep.push_back(scalar_param(key, value));
    }
    std::vector<ParamMap> next;
    next.reserve(combos.size() * sweep.size());
    for (const ParamMap& combo : combos) {
      for (const ParamValue& element : sweep) {
        ParamMap extended = combo;
        extended[key] = element;
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }
  return combos;
}

/// Parses one protocol spec object into a (possibly nested) selection.
/// A base spec is {"name": ..., <scalar params>}; a composed spec is
/// {"transform": ..., "inner": {<protocol spec>}, <scalar params>} with
/// the inner object parsed recursively, so transformers nest. Shape
/// errors name the offending object's line:col in the manifest; name/
/// parameter/composition errors are the registry's (attached to the
/// spec's position by the caller).
ProtocolSelection parse_protocol_selection(const JsonValue& spec) {
  const std::string context = "protocol spec at " + spec.where();
  SSS_REQUIRE(spec.is_object(), context + " must be an object, got " +
                                    JsonValue::kind_name(spec.kind()));
  const JsonValue* name = spec.find("name");
  const JsonValue* transform = spec.find("transform");
  SSS_REQUIRE(name == nullptr || transform == nullptr,
              context + " accepts \"name\" or \"transform\", not both");
  SSS_REQUIRE(name != nullptr || transform != nullptr,
              context + " needs \"name\" (base protocol) or \"transform\" + "
                        "\"inner\" (composition)");
  ParamMap params;
  for (const auto& [key, value] : spec.members()) {
    if (key == "name" || key == "transform" || key == "inner") continue;
    SSS_REQUIRE(!value.is_array() && !value.is_object(),
                "protocol parameter \"" + key + "\" at " + value.where() +
                    " must be a scalar");
    params[key] = scalar_param(key, value);
  }
  if (name != nullptr) {
    const JsonValue* inner = spec.find("inner");
    // The message is only built when the check fails, so inner is
    // non-null there.
    SSS_REQUIRE(inner == nullptr,
                context + ": \"inner\" (at " + inner->where() +
                    ") is only valid alongside \"transform\"");
    return ProtocolSelection::base(name->as_string(), std::move(params));
  }
  const JsonValue* inner = spec.find("inner");
  SSS_REQUIRE(inner != nullptr,
              context + ": \"transform\" needs an \"inner\" protocol spec");
  SSS_REQUIRE(inner->is_object(),
              "\"inner\" at " + inner->where() +
                  " must be a protocol spec object, got " +
                  JsonValue::kind_name(inner->kind()));
  return ProtocolSelection::wrap(transform->as_string(),
                                 parse_protocol_selection(*inner),
                                 std::move(params));
}

void expand_sweep(const JsonValue& sweep, const BatchItem& manifest_prototype,
                  ExperimentPlan& plan) {
  std::vector<std::string> allowed = kRunKeys;
  allowed.insert(allowed.end(),
                 {"graphs", "protocols", "problem", "base_seeds"});
  require_known_keys(sweep, allowed, "sweep");
  SSS_REQUIRE(!(sweep.find("base_seed") != nullptr &&
                sweep.find("base_seeds") != nullptr),
              "a sweep accepts \"base_seed\" or \"base_seeds\", not both");

  BatchItem prototype = manifest_prototype;
  apply_run_keys(sweep, prototype);
  // The sweep-shape ranges need no graph: check them before the graph
  // loop builds one. Each item is labeled as it is built below.
  prototype.label = "sweep at " + sweep.where();
  validate_item_ranges(prototype);

  const Problem* problem = nullptr;
  if (const JsonValue* problem_name = sweep.find("problem")) {
    if (!problem_name->is_null()) {
      problem = &plan.store.add(
          ProblemRegistry::instance().make(problem_name->as_string()));
    }
  }
  // Churn availability is "fraction of window steps in a legitimate
  // configuration", which needs a predicate; a churn sweep without an
  // explicit "problem" binds each composition's resolved problem instead
  // (one sweep may mix protocols of different problems).
  std::map<std::string, const Problem*> default_problems;
  auto problem_for = [&](const std::string& name) -> const Problem* {
    if (problem != nullptr || !prototype.churn_enabled) return problem;
    if (name.empty()) return nullptr;
    auto [it, fresh] = default_problems.try_emplace(name, nullptr);
    if (fresh) {
      it->second = &plan.store.add(ProblemRegistry::instance().make(name));
    }
    return it->second;
  };

  const JsonValue& graphs = sweep.at("graphs");
  SSS_REQUIRE(!graphs.items().empty(), "\"graphs\" cannot be empty");
  const JsonValue& protocols = sweep.at("protocols");
  SSS_REQUIRE(!protocols.items().empty(), "\"protocols\" cannot be empty");

  // Parse + resolve every protocol spec once, up front: composition
  // errors (unknown transform, bare checker source, daemon-claim
  // conflicts) surface with the spec's manifest position even when the
  // graph sweep would never have reached that spec.
  struct ParsedProtocol {
    ProtocolSelection selection;
    ProtocolRegistry::ComposedInfo info;
  };
  std::vector<ParsedProtocol> parsed;
  parsed.reserve(protocols.items().size());
  for (const JsonValue& protocol_spec : protocols.items()) {
    ProtocolSelection selection = parse_protocol_selection(protocol_spec);
    try {
      ProtocolRegistry::ComposedInfo info =
          ProtocolRegistry::instance().resolve(selection);
      parsed.push_back({std::move(selection), std::move(info)});
    } catch (const PreconditionError& error) {
      throw PreconditionError("protocol spec at " + protocol_spec.where() +
                              ": " + error.what());
    }
  }

  std::vector<BatchItem> sweep_items;
  for (const JsonValue& graph_spec : graphs.items()) {
    const std::string& family = graph_spec.at("family").as_string();
    for (const ParamMap& params : expand_graph_params(graph_spec)) {
      const Graph& graph = plan.store.add(
          GraphFamilyRegistry::instance().build(family, params));
      for (const ParsedProtocol& choice : parsed) {
        const Protocol& protocol = plan.store.add(
            ProtocolRegistry::instance().make(choice.selection, graph));
        BatchItem item = prototype;
        item.label = protocol.name() + "/" + graph.name();
        item.graph = &graph;
        item.protocol = &protocol;
        item.problem = problem_for(choice.info.problem);
        if (item.churn_enabled) {
          // Registry-backed factory so churn windows can rebuild the
          // protocol on churned topologies (and so every churn trial runs
          // the owning-mode runner uniformly). Captures the whole
          // composed selection, so transformed protocols rebuild too.
          item.protocol_factory = [selection =
                                       choice.selection](const Graph& g) {
            return ProtocolRegistry::instance().make(selection, g);
          };
        }
        // Checked as each item is built, so a bad sweep fails after its
        // first graph rather than after the whole graph sweep.
        validate_batch_item(item);
        sweep_items.push_back(std::move(item));
      }
    }
  }

  if (const JsonValue* base_seeds = sweep.find("base_seeds")) {
    SSS_REQUIRE(base_seeds->items().size() == sweep_items.size(),
                "\"base_seeds\" has " +
                    std::to_string(base_seeds->items().size()) +
                    " entries but the sweep expands to " +
                    std::to_string(sweep_items.size()) + " items");
    for (std::size_t i = 0; i < sweep_items.size(); ++i) {
      const std::int64_t seed = base_seeds->items()[i].as_int();
      SSS_REQUIRE(seed >= 0, "\"base_seeds\" entries cannot be negative");
      sweep_items[i].base_seed = static_cast<std::uint64_t>(seed);
    }
  }

  for (BatchItem& item : sweep_items) {
    plan.items.push_back(std::move(item));
  }
}

}  // namespace

int ExperimentPlan::total_trials() const {
  int total = 0;
  for (const BatchItem& item : items) {
    total += static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
  }
  return total;
}

ExperimentPlan plan_from_manifest(const JsonValue& manifest) {
  require_known_keys(manifest, {"name", "defaults", "sweeps"}, "manifest");
  ExperimentPlan plan;
  plan.name = manifest.at("name").as_string();
  SSS_REQUIRE(!plan.name.empty(), "manifest \"name\" cannot be empty");

  BatchItem prototype;
  if (const JsonValue* defaults = manifest.find("defaults")) {
    require_known_keys(*defaults, kRunKeys, "\"defaults\"");
    apply_run_keys(*defaults, prototype);
  }

  const JsonValue& sweeps = manifest.at("sweeps");
  SSS_REQUIRE(!sweeps.items().empty(),
              "manifest needs at least one entry in \"sweeps\"");
  for (const JsonValue& sweep : sweeps.items()) {
    expand_sweep(sweep, prototype, plan);
  }
  return plan;
}

void apply_engine_overrides(ExperimentPlan& plan, int parallel_threads,
                            const std::string& sweep_mode) {
  const SweepMode mode =
      sweep_mode.empty() ? SweepMode::kAuto : parse_sweep_mode(sweep_mode);
  for (BatchItem& item : plan.items) {
    if (parallel_threads != 0) item.parallel_threads = parallel_threads;
    if (!sweep_mode.empty()) item.sweep_mode = mode;
    validate_batch_item(item);
  }
}

ExperimentPlan plan_from_manifest_text(const std::string& text) {
  return plan_from_manifest(JsonValue::parse(text));
}

ExperimentPlan plan_from_manifest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SSS_REQUIRE(in.good(), "cannot read manifest file \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return plan_from_manifest_text(buffer.str());
}

}  // namespace sss
