/// \file sss_lab.cpp
/// The experiment-lab CLI: run a JSON experiment manifest against the
/// registries and stream results to sinks.
///
///   sss_lab run manifest.json [--sink out.jsonl] [--sink out.csv]
///                             [--bench NAME] [--threads N]
///                             [--parallel-threads N] [--sweep-mode MODE]
///                             [--quiet]
///   sss_lab validate manifest.json
///   sss_lab list [--json]
///   sss_lab diff a.jsonl b.jsonl [--quiet]
///   sss_lab serve [--socket path]
///
/// `run` expands the manifest (analysis/plan.hpp), executes it on the
/// sharded batch runner, prints a per-item summary table, and streams
/// per-trial rows to every `--sink` (format by extension: .jsonl or .csv)
/// while trials finish. `--bench NAME` additionally writes the per-item
/// summaries as BENCH_<NAME>.json, the artifact format the bench-gate CI
/// diffs. `validate` expands without running; `list` prints every
/// registered graph family, protocol, problem, and daemon name —
/// `list --json` emits the same registry dump as one machine-readable
/// JSON document (schema documented in README.md and on print_list_json
/// below).
///
/// `diff` compares two JSONL result streams row by row, keyed by the
/// (item, trial) coordinates every JsonlSink row carries, so two streams
/// are comparable regardless of the thread completion order they were
/// written in. It reports rows only present on one side and rows
/// whose fields changed (naming each changed field old -> new).
///
/// `serve` turns the one-shot CLI into a long-lived lab service speaking
/// line-oriented JSON over stdio (or an AF_UNIX socket with `--socket`):
/// submit manifests, stream completed rows live, cancel, diff against
/// baselines while still writing, and resume interrupted batches from
/// their durable streams. Protocol and semantics: src/service/.
///
/// Exit codes: 0 success (diff: streams identical); 1 (diff only):
/// differences found; 2 usage, manifest, or I/O error.

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <iostream>

#include "analysis/plan.hpp"
#include "analysis/sink.hpp"
#include "support/json.hpp"
#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/family_registry.hpp"
#include "runtime/daemon.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "service/socket.hpp"
#include "support/require.hpp"
#include "support/string_util.hpp"
#include "support/text_table.hpp"

namespace {

using namespace sss;

int usage() {
  std::fprintf(
      stderr,
      "usage: sss_lab <command> [args]\n"
      "  run <manifest.json> [options]   expand and run a manifest\n"
      "      --sink <path>     stream per-trial rows (.jsonl or .csv);\n"
      "                        repeatable\n"
      "      --bench <name>    write per-item summaries to BENCH_<name>.json\n"
      "      --threads <n>     worker threads (0 = hardware, 1 = inline)\n"
      "      --parallel-threads <n>\n"
      "                        intra-trial engine threads for every item\n"
      "                        (bit-identical output at any value)\n"
      "      --sweep-mode <auto|force_scalar>\n"
      "                        engine bulk sweep/execute dispatch for every\n"
      "                        item (bit-identical output in any mode)\n"
      "      --quiet           suppress the summary table\n"
      "  validate <manifest.json>        expand only; print the plan shape\n"
      "  list [--json]                   print all registered names\n"
      "      --json            one machine-readable JSON document instead\n"
      "                        of the human table (schema: README.md)\n"
      "  diff <a.jsonl> <b.jsonl> [--quiet]\n"
      "                                  compare two result streams keyed\n"
      "                                  by (item, trial); exit 1 on any\n"
      "                                  difference\n"
      "  serve [--socket <path>]         long-lived lab service speaking\n"
      "                                  line-oriented JSON on stdio (or an\n"
      "                                  AF_UNIX socket): submit, stream,\n"
      "                                  status, cancel, diff, resume\n");
  return 2;
}

/// Parses the integer value of a --flag; throws on anything but plain
/// digits ("+5" and " 5" are rejected — std::stoi would take both, and a
/// flag that silently strips signs and whitespace invites " -1" slipping
/// through as 1).
int int_value(const std::string& flag, const std::string& text) {
  int value = -1;
  SSS_REQUIRE(parse_non_negative_int(text, &value),
              flag + " needs a non-negative integer, got \"" + text + "\"");
  return value;
}

/// Bulk capabilities of protocol entry `name`: "sweep" and "execute" when
/// its hooks are slab kernels (has_bulk_sweep: RuleProtocol supplies
/// both), none otherwise. They are instance properties, so the entry's
/// defaults are built on a tiny cycle; nullopt when they cannot build
/// there.
std::optional<std::vector<std::string>> probe_bulk(const std::string& name) {
  static const Graph probe_graph =
      GraphFamilyRegistry::instance().build("cycle", {{"n", ParamValue(4.0)}});
  try {
    const std::unique_ptr<Protocol> probe =
        ProtocolRegistry::instance().make(name, probe_graph);
    if (!probe->has_bulk_sweep()) return std::vector<std::string>{};
    return std::vector<std::string>{"sweep", "execute"};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void print_list() {
  // Families and protocols print their accepted parameters (and the
  // protocol's paired problem / daemon assumption), so a new registry
  // entry is discoverable from the CLI without reading its header.
  std::printf("graph families:\n");
  const GraphFamilyRegistry& families = GraphFamilyRegistry::instance();
  for (const std::string& name : families.names()) {
    std::vector<std::string> params;
    for (const ParamSpec& param : families.family(name).params) {
      params.push_back(param.required ? param.name : param.name + "?");
    }
    std::printf("  %s%s\n", name.c_str(),
                params.empty() ? "" : ("(" + join(params, ", ") + ")").c_str());
  }
  std::printf("protocols:\n");
  const ProtocolRegistry& protocols = ProtocolRegistry::instance();
  for (const std::string& name : protocols.names()) {
    const ProtocolRegistry::Entry& entry = protocols.info(name);
    std::string line = "  " + name;
    if (!entry.params.empty()) line += "(" + join(entry.params, ", ") + ")";
    if (!entry.problem.empty()) line += "  problem: " + entry.problem;
    if (!entry.daemons.empty()) {
      line += "  daemons: " + join(entry.daemons, ", ");
    }
    const auto bulk = probe_bulk(name);
    if (bulk && !bulk->empty()) line += "  bulk: " + join(*bulk, "+");
    std::printf("%s\n", line.c_str());
  }
  const auto print = [](const char* title,
                        const std::vector<std::string>& names) {
    std::printf("%s:\n", title);
    for (const std::string& name : names) std::printf("  %s\n", name.c_str());
  };
  print("problems", ProblemRegistry::instance().names());
  print("daemons", daemon_names());
}

/// `list --json`: the whole registry surface as one JSON document, so
/// scripts can discover what a build supports without parsing the human
/// table. Schema (stable field set; arrays are sorted by name):
///
///   {"families":  [{"name", "params": [{"name", "required"}]}],
///    "protocols": [{"name", "kind": "protocol"|"transformer"|
///                   "checker-source", "params": [names],
///                   "problem": string|null, "daemons": [names],
///                   "runnable": bool, "wraps_protocol": bool,
///                   "wraps": "protocol"|"checker-source" (transformers
///                   only), "bulk": [subset of "sweep","execute"]
///                   (probed; omitted when defaults cannot build)}],
///    "problems":  [names], "daemons": [names]}
///
/// `bulk` is probe_bulk's answer, the same probe the human listing uses;
/// entries whose defaults cannot build on its cycle omit the field.
void print_list_json() {
  std::ostringstream out;
  const auto string_array = [](const std::vector<std::string>& names) {
    std::vector<std::string> quoted;
    quoted.reserve(names.size());
    for (const std::string& name : names) quoted.push_back(json_quote(name));
    return "[" + join(quoted, ", ") + "]";
  };

  out << "{\n  \"families\": [";
  const GraphFamilyRegistry& families = GraphFamilyRegistry::instance();
  bool first = true;
  for (const std::string& name : families.names()) {
    out << (first ? "\n" : ",\n") << "    {\"name\": " << json_quote(name)
        << ", \"params\": [";
    first = false;
    bool first_param = true;
    for (const ParamSpec& param : families.family(name).params) {
      out << (first_param ? "" : ", ") << "{\"name\": "
          << json_quote(param.name) << ", \"required\": "
          << (param.required ? "true" : "false") << "}";
      first_param = false;
    }
    out << "]}";
  }
  out << "\n  ],\n  \"protocols\": [";

  const ProtocolRegistry& protocols = ProtocolRegistry::instance();
  const auto kind_label = [](ProtocolRegistry::Entry::Kind kind) {
    switch (kind) {
      case ProtocolRegistry::Entry::Kind::kProtocol:
        return "protocol";
      case ProtocolRegistry::Entry::Kind::kTransformer:
        return "transformer";
      case ProtocolRegistry::Entry::Kind::kCheckerSource:
        return "checker-source";
    }
    return "unknown";
  };
  first = true;
  for (const std::string& name : protocols.names()) {
    const ProtocolRegistry::Entry& entry = protocols.info(name);
    out << (first ? "\n" : ",\n") << "    {\"name\": " << json_quote(name)
        << ", \"kind\": " << json_quote(kind_label(entry.kind))
        << ", \"params\": " << string_array(entry.params) << ", \"problem\": "
        << (entry.problem.empty() ? "null" : json_quote(entry.problem))
        << ", \"daemons\": " << string_array(entry.daemons)
        << ", \"runnable\": " << (entry.runnable() ? "true" : "false")
        << ", \"wraps_protocol\": "
        << (entry.wraps_protocol() ? "true" : "false");
    first = false;
    if (entry.kind == ProtocolRegistry::Entry::Kind::kTransformer) {
      out << ", \"wraps\": " << json_quote(kind_label(entry.wraps));
    }
    if (entry.kind == ProtocolRegistry::Entry::Kind::kProtocol) {
      if (const auto bulk = probe_bulk(name)) {
        out << ", \"bulk\": " << string_array(*bulk);
      }
    }
    out << "}";
  }
  out << "\n  ],\n  \"problems\": "
      << string_array(ProblemRegistry::instance().names())
      << ",\n  \"daemons\": " << string_array(daemon_names()) << "\n}\n";
  std::fputs(out.str().c_str(), stdout);
}

void print_plan_shape(const ExperimentPlan& plan) {
  std::printf("manifest \"%s\": %zu items, %d trials\n", plan.name.c_str(),
              plan.items.size(), plan.total_trials());
  for (const BatchItem& item : plan.items) {
    std::printf("  %-40s daemons=%zu seeds=%d base_seed=%llu\n",
                item.label.c_str(), item.daemons.size(),
                item.seeds_per_daemon,
                static_cast<unsigned long long>(item.base_seed));
  }
}

void print_summaries(const ExperimentPlan& plan, const BatchResult& result) {
  TextTable table({"item", "runs", "silent", "rounds(med)", "rounds(p90)",
                   "rounds(max)", "steps(med)", "k", "bits"});
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const SweepSummary& s = result.summaries[i];
    table.row()
        .add(plan.items[i].label)
        .add(s.runs)
        .add(s.silent_runs)
        .add(s.rounds_to_silence.median, 1)
        .add(s.rounds_to_silence.p90, 1)
        .add(static_cast<std::int64_t>(s.max_rounds_to_silence))
        .add(s.steps_to_silence.median, 1)
        .add(s.k_measured)
        .add(s.bits_measured);
  }
  std::printf("%s\n", table.str().c_str());
}

int run_command(const std::vector<std::string>& args) {
  std::string manifest_path;
  std::vector<std::string> sink_paths;
  std::string bench_name;
  BatchOptions options;
  bool quiet = false;
  int parallel_threads = 0;   // 0 = leave the manifest's values alone
  std::string sweep_mode;     // empty = leave the manifest's values alone

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&](const std::string& flag) -> const std::string& {
      SSS_REQUIRE(i + 1 < args.size(), flag + " needs a value");
      return args[++i];
    };
    if (arg == "--sink") {
      sink_paths.push_back(value(arg));
    } else if (arg == "--bench") {
      bench_name = value(arg);
    } else if (arg == "--threads") {
      options.threads = int_value(arg, value(arg));
    } else if (arg == "--parallel-threads") {
      parallel_threads = int_value(arg, value(arg));
      SSS_REQUIRE(parallel_threads >= 1,
                  "--parallel-threads must be >= 1");
    } else if (arg == "--sweep-mode") {
      sweep_mode = value(arg);
      parse_sweep_mode(sweep_mode);  // validate before any work runs
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw PreconditionError("unknown option \"" + arg + "\"");
    } else {
      SSS_REQUIRE(manifest_path.empty(),
                  "only one manifest path is accepted");
      manifest_path = arg;
    }
  }
  SSS_REQUIRE(!manifest_path.empty(), "run needs a manifest path");

  ExperimentPlan plan = plan_from_manifest_file(manifest_path);
  // Post-expansion overrides: the intra-trial parallel step and the bulk
  // sweep/execute paths are bit-identical to the single-threaded scalar
  // engine (engine invariants 5-7), so re-running a manifest under any
  // override must reproduce its output byte-for-byte — exactly what CI's
  // determinism smoke checks.
  apply_engine_overrides(plan, parallel_threads, sweep_mode);

  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::unique_ptr<ResultSink>> owned;
  std::vector<ResultSink*> sinks;
  const auto has_suffix = [](const std::string& path,
                             const std::string& suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  for (const std::string& path : sink_paths) {
    const bool csv = has_suffix(path, ".csv");
    SSS_REQUIRE(csv || has_suffix(path, ".jsonl"),
                "--sink format is chosen by extension; \"" + path +
                    "\" must end in .jsonl or .csv");
    files.push_back(std::make_unique<std::ofstream>(path, std::ios::binary));
    SSS_REQUIRE(files.back()->good(),
                "cannot open sink file \"" + path + "\"");
    if (csv) {
      owned.push_back(std::make_unique<CsvSink>(*files.back()));
    } else {
      owned.push_back(std::make_unique<JsonlSink>(*files.back()));
    }
    sinks.push_back(owned.back().get());
  }
  if (!bench_name.empty()) {
    // Strict: a bench artifact CI will diff must fail the run (exit 2)
    // when it cannot be written, not print a warning and exit 0.
    owned.push_back(std::make_unique<BenchJsonSink>(bench_name, ".",
                                                    /*strict=*/true));
    sinks.push_back(owned.back().get());
  }

  const BatchResult result = run_batch_to_sinks(plan.items, options, sinks);
  for (std::size_t i = 0; i < sink_paths.size(); ++i) {
    SSS_REQUIRE(files[i]->good(),
                "write error on sink file \"" + sink_paths[i] + "\"");
  }
  if (!quiet) print_summaries(plan, result);
  std::printf("ran %d trials over %zu items\n", result.total_trials,
              plan.items.size());
  return 0;
}

/// One parsed result row: its (item, trial) key and the flat scalar
/// fields, rendered back to canonical strings for comparison and display.
struct DiffRow {
  int line = 0;
  std::vector<std::pair<std::string, std::string>> fields;  // document order
};

using DiffKey = std::pair<std::int64_t, std::int64_t>;

/// Renders a scalar JSON value canonically: integers without exponent,
/// other numbers via ostream, strings quoted, bools/null as literals.
std::string scalar_to_string(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return value.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      const double d = value.as_double();
      // Integers render exactly; the int64 range check must precede the
      // cast (casting an out-of-range double is undefined behaviour).
      if (d >= -9.2e18 && d <= 9.2e18 &&
          d == static_cast<double>(static_cast<std::int64_t>(d))) {
        return std::to_string(static_cast<std::int64_t>(d));
      }
      // Shortest round-trip rendering: two doubles compare equal here
      // iff they are the same value, so a difference in any digit is a
      // reported diff.
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", d);
      return buffer;
    }
    case JsonValue::Kind::kString:
      return json_quote(value.as_string());
    default:
      throw PreconditionError(
          "result rows must hold scalar fields only (JsonlSink contract), "
          "found a nested " +
          std::string(JsonValue::kind_name(value.kind())) + " at " +
          value.where());
  }
}

/// Parses one JSONL result stream into key -> row. Duplicate keys are an
/// error: the sink writes each (item, trial) exactly once.
std::map<DiffKey, DiffRow> load_result_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SSS_REQUIRE(in.good(), "cannot open result stream \"" + path + "\"");
  std::map<DiffKey, DiffRow> rows;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    JsonValue doc;
    try {
      doc = JsonValue::parse(line);
    } catch (const std::exception& error) {
      throw PreconditionError(path + ":" + std::to_string(line_number) +
                              ": " + error.what());
    }
    SSS_REQUIRE(doc.is_object(), path + ":" + std::to_string(line_number) +
                                     ": result rows must be JSON objects");
    DiffRow row;
    row.line = line_number;
    for (const auto& [name, value] : doc.members()) {
      row.fields.emplace_back(name, scalar_to_string(value));
    }
    const DiffKey key{doc.at("item").as_int(), doc.at("trial").as_int()};
    SSS_REQUIRE(rows.emplace(key, std::move(row)).second,
                path + ":" + std::to_string(line_number) +
                    ": duplicate (item, trial) = (" +
                    std::to_string(key.first) + ", " +
                    std::to_string(key.second) + ")");
  }
  SSS_REQUIRE(!in.bad(), "read error on \"" + path + "\"");
  return rows;
}

std::string key_label(const DiffKey& key) {
  return "(item " + std::to_string(key.first) + ", trial " +
         std::to_string(key.second) + ")";
}

int diff_command(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  bool quiet = false;
  for (const std::string& arg : args) {
    if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw PreconditionError("unknown option \"" + arg + "\"");
    } else {
      paths.push_back(arg);
    }
  }
  SSS_REQUIRE(paths.size() == 2, "diff needs exactly two stream paths");

  const std::map<DiffKey, DiffRow> a = load_result_stream(paths[0]);
  const std::map<DiffKey, DiffRow> b = load_result_stream(paths[1]);

  int removed = 0;
  int added = 0;
  int changed = 0;
  const auto report = [&](const char* format, auto&&... args_pack) {
    if (!quiet) std::printf(format, args_pack...);
  };
  for (const auto& [key, row_a] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      ++removed;
      report("- %s only in %s (line %d)\n", key_label(key).c_str(),
             paths[0].c_str(), row_a.line);
      continue;
    }
    const DiffRow& row_b = it->second;
    // Field-by-field: compare by name so added/removed columns are
    // reported alongside changed values.
    std::map<std::string, std::string> fields_b(row_b.fields.begin(),
                                                row_b.fields.end());
    std::vector<std::string> deltas;
    for (const auto& [name, value_a] : row_a.fields) {
      const auto field_it = fields_b.find(name);
      if (field_it == fields_b.end()) {
        deltas.push_back(name + ": " + value_a + " -> (absent)");
      } else {
        if (field_it->second != value_a) {
          deltas.push_back(name + ": " + value_a + " -> " +
                           field_it->second);
        }
        fields_b.erase(field_it);
      }
    }
    for (const auto& [name, value_b] : fields_b) {
      deltas.push_back(name + ": (absent) -> " + value_b);
    }
    if (!deltas.empty()) {
      ++changed;
      report("~ %s changed: %s\n", key_label(key).c_str(),
             join(deltas, "; ").c_str());
    }
  }
  for (const auto& [key, row_b] : b) {
    if (a.find(key) == a.end()) {
      ++added;
      report("+ %s only in %s (line %d)\n", key_label(key).c_str(),
             paths[1].c_str(), row_b.line);
    }
  }

  if (removed == 0 && added == 0 && changed == 0) {
    report("identical: %zu rows\n", a.size());
    return 0;
  }
  std::printf("diff: %d removed, %d added, %d changed (of %zu vs %zu rows)\n",
              removed, added, changed, a.size(), b.size());
  return 1;
}

int serve_command(const std::vector<std::string>& args) {
  std::string socket_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--socket") {
      SSS_REQUIRE(i + 1 < args.size(), "--socket needs a path");
      socket_path = args[++i];
    } else {
      throw PreconditionError("unknown option \"" + args[i] + "\"");
    }
  }
  LabService service;
  if (socket_path.empty()) {
    // stdio transport: the session owns the process's std streams; the
    // process ends with the session (EOF or shutdown both stop serving).
    ServeSession session(service, std::cin, std::cout);
    session.run();
  } else {
    SSS_REQUIRE(serve_socket_supported(),
                "this build has no Unix-domain-socket support");
    serve_unix_socket(service, socket_path);
  }
  // Cancel anything still running and join workers before exit; durable
  // streams keep every completed row, so interrupted runs stay resumable.
  service.shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "run") return run_command(args);
    if (command == "validate") {
      if (args.size() != 1) return usage();
      print_plan_shape(plan_from_manifest_file(args.front()));
      return 0;
    }
    if (command == "list") {
      if (args.empty()) {
        print_list();
        return 0;
      }
      if (args.size() == 1 && args.front() == "--json") {
        print_list_json();
        return 0;
      }
      return usage();
    }
    if (command == "diff") return diff_command(args);
    if (command == "serve") return serve_command(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sss_lab: %s\n", error.what());
    return 2;
  }
  std::fprintf(stderr, "sss_lab: unknown command \"%s\"\n", command.c_str());
  return usage();
}
