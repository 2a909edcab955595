/// labbench: the repository benchmark program.
///
///   labbench --workload <lab_convergence|served_churn>
///            --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
///            --spec <BENCHMARK.json> [--expect-digest <hex>]
///
/// Generates the workload's manifests from the seed, runs them through
/// the simulator's public API, checks the results, prints every metric
/// with its unit, sample count and within-run quartiles, and ends with
/// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the spec's end_to_end list (untraced run),
/// their times scaled to the reference host speed (see SpeedProbe);
/// with --trace 1 its per_layer list from a traced run, whose spans are
/// also written as Chrome trace-event JSON into --out-dir. A per-layer
/// metric the workload never exercises is reported as 0 and marked idle.
///
/// Exit status: 0 when every correctness check passed, 1 when one failed
/// (the JSON line says correct=false), 2 on usage or runtime errors (no
/// JSON line).

#include <cmath>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "support/json.hpp"

namespace {

using namespace labbench;

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// (name, unit) of the spec's "end_to_end" or "per_layer" list.
MetricList spec_metrics(const std::string& path, bool per_layer) {
  const std::vector<std::string> lines = read_lines(path);
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  MetricList out;
  const sss::JsonValue spec = sss::JsonValue::parse(text);
  for (const sss::JsonValue& m :
       spec.at(per_layer ? "per_layer" : "end_to_end").items()) {
    out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  }
  return out;
}

int usage(const char* message) {
  std::cerr << "labbench: " << message
            << "\nusage: labbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir> --spec <BENCHMARK.json> "
               "[--expect-digest <hex>]\n";
  return 2;
}

/// The metrics of `report` in the order of `names`; a missing per-layer
/// metric is an idle layer. End-to-end times (units s, ms) are multiplied
/// and rates (1/s) divided by `speed_scale`. Throws when an end-to-end
/// metric is missing, or a metric has another unit or is not finite.
Report canonical(const Report& report, const MetricList& names,
                 bool per_layer, double speed_scale) {
  Report out;
  for (const auto& [name, unit] : names) {
    const Metric* m = report.find(name);
    if (m == nullptr && per_layer) {
      out.set_idle(name, unit);
      continue;
    }
    if (m == nullptr) throw std::runtime_error("metric not reported: " + name);
    if (m->unit != unit) {
      throw std::runtime_error("metric " + name + " has unit " + m->unit);
    }
    if (!std::isfinite(m->value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    Metric scaled = *m;
    if (!per_layer && (unit == "s" || unit == "ms" || unit == "1/s")) {
      const double f = unit == "1/s" ? 1.0 / speed_scale : speed_scale;
      scaled.value *= f;
      scaled.q1 *= f;
      scaled.q3 *= f;
    }
    out.put(scaled);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string expect_digest;
  std::string spec_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else if (arg == "--spec") {
        spec_path = value;
      } else if (arg == "--expect-digest") {
        expect_digest = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (spec_path.empty()) return usage("--spec is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  Outcome outcome;
  Report metrics;
  double speed_scale = 1.0;
  try {
    const MetricList names = spec_metrics(spec_path, options.trace);
    if (options.workload == "lab_convergence") {
      outcome = run_lab_convergence(options);
    } else if (options.workload == "served_churn") {
      outcome = run_served_churn(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
    if (outcome.probe.samples() == 0) {
      throw std::runtime_error("the speed probe was never sampled");
    }
    speed_scale = kReferenceProbeS / outcome.probe.mean_s();
    outcome.metrics.set_count("host.probe_ms", "ms",
                              outcome.probe.mean_s() * 1e3,
                              static_cast<int>(outcome.probe.samples()));
    metrics = canonical(outcome.metrics, names, options.trace, speed_scale);
  } catch (const std::exception& error) {
    std::cerr << "labbench: " << options.workload << " failed: " << error.what()
              << "\n";
    return 2;
  }

  std::ostream& out = std::cout;
  out << "labbench " << options.workload << " seed=" << options.seed
      << " seconds=" << options.seconds << " trace=" << options.trace << "\n";
  out << "host speed: probe " << outcome.probe.mean_s() * 1e3 << " ms over "
      << outcome.probe.samples() << " samples, reference "
      << kReferenceProbeS * 1e3 << " ms\n";
  metrics.print(out, options.trace
                         ? "per-layer metrics (traced run, host time; 0 "
                           "(idle) = the workload never calls that layer)"
                         : "end-to-end metrics (untraced run; value = median "
                           "or stated percentile of the samples; times at "
                           "the reference host speed = host time x " +
                               std::to_string(speed_scale) + ")");
  out << "attempted " << outcome.attempted << ", failed " << outcome.failed
      << " (failed_frac "
      << (outcome.attempted > 0
              ? static_cast<double>(outcome.failed) / outcome.attempted
              : 0.0)
      << ")\n";
  if (!outcome.counts.empty()) {
    out << "simulated counts (repeat exactly across runs and commits):\n";
    for (const std::string& line : outcome.counts) out << "  " << line << "\n";
  }
  out << "result digest " << outcome.digest;
  if (expect_digest.empty()) {
    out << " (no stored digest for this seed)\n";
  } else if (expect_digest == outcome.digest) {
    out << " matches the stored digest\n";
  } else {
    out << " != stored digest " << expect_digest << "\n";
    outcome.errors.push_back("result digest mismatch");
  }
  if (!outcome.trace_path.empty()) {
    out << "chrome trace: " << outcome.trace_path << "\n"
        << outcome.trace_table;
  }
  for (const std::string& error : outcome.errors) {
    out << "CHECK FAILED: " << error << "\n";
  }
  const bool correct = outcome.errors.empty();
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed
      << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
