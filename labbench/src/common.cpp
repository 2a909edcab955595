#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "graph/family_registry.hpp"
#include "runtime/daemon.hpp"
#include "support/json.hpp"

namespace labbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::string full_precision(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// "analysis.batch.trial" -> "analysis.batch"; single-component names
/// are their own layer.
std::string layer_of(const std::string& name) {
  const std::size_t first = name.find('.');
  if (first == std::string::npos) return name;
  const std::size_t second = name.find('.', first + 1);
  return second == std::string::npos ? name.substr(0, first)
                                     : name.substr(0, second);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void UnitMeans::add(std::uint64_t unit, double value) {
  auto& [sum, count] = units_[unit];
  sum += value;
  ++count;
  ++samples_;
}

std::vector<double> UnitMeans::means() const {
  std::vector<double> out;
  out.reserve(units_.size());
  for (const auto& [unit, acc] : units_) out.push_back(acc.first / acc.second);
  return out;
}

double UnitMeans::sum_of_means() const {
  double total = 0.0;
  for (double mean : means()) total += mean;
  return total;
}

namespace {

/// The probe's process rule, virtual as the simulator's protocol rules
/// are: a process whose color a neighbour shares takes the smallest
/// color no neighbour holds.
struct ProbeRule {
  virtual ~ProbeRule() = default;
  virtual bool enabled(const std::vector<int>& color,
                       const std::vector<int>& neighbors, int begin, int end,
                       int v) const = 0;
  virtual int action(const std::vector<int>& color,
                     const std::vector<int>& neighbors, int begin, int end)
      const = 0;
};

struct ProbeRecolor final : ProbeRule {
  bool enabled(const std::vector<int>& color,
               const std::vector<int>& neighbors, int begin, int end,
               int v) const override {
    for (int k = begin; k < end; ++k) {
      if (color[static_cast<std::size_t>(neighbors[k])] == color[v]) {
        return true;
      }
    }
    return false;
  }
  int action(const std::vector<int>& color, const std::vector<int>& neighbors,
             int begin, int end) const override {
    std::vector<char> used(8);
    for (int k = begin; k < end; ++k) {
      used[static_cast<std::size_t>(
          color[static_cast<std::size_t>(neighbors[k])])] = 1;
    }
    int c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    return c;
  }
};

}  // namespace

void SpeedProbe::sample() {
  constexpr int kSide = 16;
  constexpr int kNodes = kSide * kSide;
  constexpr int kColors = 5;
  constexpr int kTrials = 2;
  const double start = now_s();
  std::vector<int> offsets{0};
  std::vector<int> neighbors;
  for (int v = 0; v < kNodes; ++v) {
    const int r = v / kSide;
    const int c = v % kSide;
    if (r > 0) neighbors.push_back(v - kSide);
    if (r + 1 < kSide) neighbors.push_back(v + kSide);
    if (c > 0) neighbors.push_back(v - 1);
    if (c + 1 < kSide) neighbors.push_back(v + 1);
    offsets.push_back(static_cast<int>(neighbors.size()));
  }
  std::vector<std::unique_ptr<ProbeRule>> rules;
  rules.push_back(std::make_unique<ProbeRecolor>());
  // Checked after every step, allocating as the simulator's predicates do.
  const std::function<bool(const std::vector<int>&)> legitimate =
      [&](const std::vector<int>& color) {
        std::vector<int> conflicted;
        for (int v = 0; v < kNodes; ++v) {
          for (int k = offsets[v]; k < offsets[v + 1]; ++k) {
            if (color[static_cast<std::size_t>(neighbors[k])] == color[v]) {
              conflicted.push_back(v);
            }
          }
        }
        return conflicted.empty();
      };
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;  // the same work every sample
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<int> color(kNodes);
  std::uint64_t steps = 0;
  for (int t = 0; t < kTrials; ++t) {
    for (int& c : color) c = static_cast<int>(next() % kColors);
    while (!legitimate(color)) {
      const int v = static_cast<int>(next() % kNodes);
      for (const auto& rule : rules) {
        if (rule->enabled(color, neighbors, offsets[v], offsets[v + 1], v)) {
          color[v] = rule->action(color, neighbors, offsets[v], offsets[v + 1]);
          break;
        }
      }
      ++steps;
    }
  }
  sink_ += steps;
  total_s_ += now_s() - start;
  ++count_;
}

double SpeedProbe::mean_s() const {
  return count_ > 0 ? total_s_ / static_cast<double>(count_) : 0.0;
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) cpus_.clear();  // nothing to rotate over
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus_) CPU_SET(cpu, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[cursor_], &mask);
  cursor_ = (cursor_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof mask, &mask);
}

// ----------------------------------------------------------------- report

Metric& Report::slot(const std::string& name) {
  for (Metric& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back(Metric{});
  metrics_.back().name = name;
  return metrics_.back();
}

void Report::set(const std::string& name, const std::string& unit,
                 double value) {
  set_count(name, unit, value, 1);
}

void Report::set_count(const std::string& name, const std::string& unit,
                       double value, int samples) {
  Metric& m = slot(name);
  m.unit = unit;
  m.value = value;
  m.samples = samples;
  m.q1 = m.q3 = value;
  m.idle = false;
}

void Report::set_quantile(const std::string& name, const std::string& unit,
                          const std::vector<double>& xs, double q) {
  Metric& m = slot(name);
  m.unit = unit;
  m.value = quantile(xs, q);
  m.samples = static_cast<int>(xs.size());
  m.q1 = quantile(xs, 0.25);
  m.q3 = quantile(xs, 0.75);
  m.idle = false;
}

void Report::set_quantile(const std::string& name, const std::string& unit,
                          const UnitMeans& units, double q, double scale) {
  std::vector<double> xs = units.means();
  for (double& x : xs) x *= scale;
  set_quantile(name, unit, xs, q);
  slot(name).samples = static_cast<int>(units.samples());
}

void Report::set_idle(const std::string& name, const std::string& unit) {
  Metric& m = slot(name);
  m = Metric{};
  m.name = name;
  m.unit = unit;
  m.idle = true;
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::print(std::ostream& out, const std::string& title) const {
  out << title << "\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-36s %16s %-9s %8s %14s %14s\n",
                "metric", "value", "unit", "samples", "q1", "q3");
  out << line;
  for (const Metric& m : metrics_) {
    if (m.idle) {
      std::snprintf(line, sizeof line, "  %-36s %16s %-9s %8s\n",
                    m.name.c_str(), "0 (idle)", m.unit.c_str(), "-");
    } else {
      std::snprintf(line, sizeof line,
                    "  %-36s %16.6g %-9s %8d %14.6g %14.6g\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples, m.q1,
                    m.q3);
    }
    out << line;
  }
}

std::string Report::json() const {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += sss::json_quote(m.name) + ": {\"value\": " + full_precision(m.value) +
           ", \"unit\": " + sss::json_quote(m.unit) + "}";
  }
  return out + "}";
}

// ----------------------------------------------------------------- tracer

int Tracer::open(const std::string& name, int parent, const std::string& id,
                 int tid) {
  if (!on_) return -1;
  const double t = now_s();
  return record(name, t, t, parent, id, tid);
}

void Tracer::close(int span) {
  if (!on_ || span < 0) return;
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end = t;
}

int Tracer::record(const std::string& name, double begin, double end,
                   int parent, const std::string& id, int tid) {
  if (!on_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, begin, end, parent, id, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::aggregate(const std::string& name, const std::string& parent,
                       std::uint64_t count, double seconds) {
  if (!on_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  Aggregate& agg = aggregates_[{name, parent}];
  agg.count += count;
  agg.seconds += seconds;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.begin);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  double last = 0.0;
  bool first = true;
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    last = std::max(last, s.end);
    if (!first) out << ",\n";
    first = false;
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", s.begin * 1e6,
                  (s.end - s.begin) * 1e6);
    out << "{\"name\": " << sss::json_quote(s.name)
        << ", \"cat\": " << sss::json_quote(layer_of(s.name))
        << ", \"ph\": \"X\", " << buf << ", \"pid\": 1, \"tid\": " << s.tid
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"id\": " << sss::json_quote(s.id) << "}}";
  }
  for (const auto& [key, agg] : aggregates_) {
    if (!first) out << ",\n";
    first = false;
    std::snprintf(buf, sizeof buf, "%.3f", last * 1e6);
    out << "{\"name\": " << sss::json_quote(key.first + " in " + key.second)
        << ", \"cat\": " << sss::json_quote(layer_of(key.first))
        << ", \"ph\": \"C\", \"ts\": " << buf
        << ", \"pid\": 1, \"args\": {\"calls\": " << agg.count
        << ", \"total_ms\": " << full_precision(agg.seconds * 1e3) << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

void Tracer::print_self_times(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children per span, then self = duration - union(children).
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      const double b = std::max(child.begin, s.begin);
      const double e = std::min(child.end, s.end);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.begin;
    for (const auto& [b, e] : cover) {
      const double from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end - s.begin;
    row.self += (s.end - s.begin) - covered;
  }
  for (const auto& [key, agg] : aggregates_) {
    Row& row = rows[key.first];
    row.count += agg.count;
    row.total += agg.seconds;
    row.self += agg.seconds;
    if (!key.second.empty()) rows[key.second].self -= agg.seconds;
  }
  std::map<std::string, double> layers;
  double all = 0.0;
  for (const auto& [name, row] : rows) {
    layers[layer_of(name)] += row.self;
    all += row.self;
  }
  char line[256];
  out << "self time by span (traced run)\n";
  std::snprintf(line, sizeof line, "  %-34s %10s %12s %12s\n", "span",
                "calls", "total_ms", "self_ms");
  out << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "  %-34s %10" PRIu64 " %12.3f %12.3f\n",
                  name.c_str(), row.count, row.total * 1e3, row.self * 1e3);
    out << line;
  }
  out << "self time by layer (traced run)\n";
  std::snprintf(line, sizeof line, "  %-34s %12s %8s\n", "layer", "self_ms",
                "share");
  out << line;
  for (const auto& [layer, self] : layers) {
    std::snprintf(line, sizeof line, "  %-34s %12.3f %7.1f%%\n",
                  layer.c_str(), self * 1e3,
                  all > 0 ? 100.0 * self / all : 0.0);
    out << line;
  }
}

// ---------------------------------------------------------------- helpers

std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (k + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string GraphSpec::json() const {
  std::string out = "{\"family\": " + sss::json_quote(family);
  for (const auto& [key, value] : params) {
    out += ", " + sss::json_quote(key) + ": ";
    if (value.kind == sss::ParamValue::Kind::kString) {
      out += sss::json_quote(value.text);
    } else if (value.number == std::floor(value.number) &&
               std::fabs(value.number) < 1e15) {
      out += std::to_string(static_cast<std::int64_t>(value.number));
    } else {
      out += full_precision(value.number);
    }
  }
  return out + "}";
}

sss::Graph GraphSpec::build() const {
  return sss::GraphFamilyRegistry::instance().build(family, params);
}

std::uint64_t csr_bytes(const sss::Graph& g) {
  return g.csr_offsets().size_bytes() + g.csr_neighbors().size_bytes() +
         g.csr_mirrors().size_bytes();
}

std::uint64_t fnv1a(const std::vector<std::string>& rows) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const std::string& row : rows) {
    for (char c : row) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

sss::LegitimacyPredicate timed_predicate(sss::LegitimacyPredicate inner,
                                         LegitTally* tally) {
  return [inner = std::move(inner), tally](const sss::Graph& g,
                                           const sss::Configuration& c) {
    const auto begin = std::chrono::steady_clock::now();
    const bool legit = inner(g, c);
    const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
    tally->calls.fetch_add(1, std::memory_order_relaxed);
    tally->nanos.fetch_add(static_cast<std::uint64_t>(nanos),
                           std::memory_order_relaxed);
    return legit;
  };
}

std::pair<int, int> row_key(const std::string& row_json) {
  int item = -1;
  int trial = -1;
  if (std::sscanf(row_json.c_str(), "{\"item\": %d, \"trial\": %d", &item,
                  &trial) != 2) {
    throw std::runtime_error("result row without (item, trial) prefix: " +
                             row_json.substr(0, 60));
  }
  return {item, trial};
}

std::vector<std::string> sorted_rows(std::vector<KeyedRow> rows) {
  std::sort(rows.begin(), rows.end(), [](const KeyedRow& a, const KeyedRow& b) {
    return std::tie(a.group, a.item, a.trial) <
           std::tie(b.group, b.item, b.trial);
  });
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (KeyedRow& row : rows) out.push_back(std::move(row.json));
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string stats_mismatch(const sss::RunStats& a, const sss::RunStats& b) {
  std::ostringstream out;
  auto check = [&out](const char* field, auto x, auto y) {
    if (x != y) out << field << " " << x << " != " << y << "; ";
  };
  check("steps", a.steps, b.steps);
  check("rounds", a.rounds, b.rounds);
  check("silent", a.silent, b.silent);
  check("steps_to_silence", a.steps_to_silence, b.steps_to_silence);
  check("rounds_to_silence", a.rounds_to_silence, b.rounds_to_silence);
  check("total_reads", a.total_reads, b.total_reads);
  check("total_read_bits", a.total_read_bits, b.total_read_bits);
  check("max_reads", a.max_reads_per_process_step,
        b.max_reads_per_process_step);
  check("max_bits", a.max_bits_per_process_step, b.max_bits_per_process_step);
  return out.str();
}

// ----------------------------------------------------------- engine replay

namespace {

sss::Engine& configure(sss::Engine& engine, const sss::BatchItem& item) {
  engine.set_exclude_frozen(item.exclude_frozen);
  engine.set_parallel_threads(item.parallel_threads);
  engine.set_sweep_mode(item.sweep_mode);
  return engine;
}

}  // namespace

EngineTrial run_engine_trial(const sss::BatchItem& item, int trial,
                             int window, bool keep_silent,
                             EngineTotals& totals, Tracer& tracer,
                             int parent) {
  const std::string& daemon =
      item.daemons[static_cast<std::size_t>(trial / item.seeds_per_daemon)];
  const std::uint64_t seed =
      item.base_seed + 1 + static_cast<std::uint64_t>(trial);
  const std::string id = item.label + "#" + std::to_string(trial);
  ScopedSpan span(tracer, "runtime.engine.trial", parent, id);

  sss::Engine engine(*item.graph, *item.protocol, sss::make_daemon(daemon),
                     seed);
  configure(engine, item);
  sss::RunOptions run = item.run;
  run.legitimacy = nullptr;

  EngineTrial out;
  const double t0 = now_s();
  engine.randomize_state();
  const double t1 = now_s();
  out.stats = engine.run(run);
  const double t2 = now_s();
  out.quiescent = engine.quiescent();
  const double t3 = now_s();
  tracer.record("runtime.engine.randomize", t0, t1, span.index(), id);
  tracer.record("runtime.engine.run", t1, t2, span.index(), id);
  tracer.record("runtime.engine.quiescent", t2, t3, span.index(), id);
  totals.randomize_s += t1 - t0;
  totals.run_s += t2 - t1;
  totals.quiescent_s += t3 - t2;
  totals.silence_s += t2 - t0;
  totals.run_steps += out.stats.steps;
  if (keep_silent) {
    out.silent_config = std::make_unique<sss::Configuration>(engine.config());
  }

  if (window <= 0) return out;
  // The window restarts from the silent configuration under the
  // synchronous daemon; one untimed step refreshes the new engine's
  // caches first.
  sss::Engine stepper(*item.graph, *item.protocol,
                      sss::make_daemon("synchronous"), seed);
  configure(stepper, item).set_config(engine.config());
  stepper.step();
  double window_s = 0.0;
  std::vector<double> step_s;
  step_s.reserve(static_cast<std::size_t>(window));
  for (int w = 0; w < window; ++w) {
    const double s0 = now_s();
    const sss::Engine::StepInfo info = stepper.step();
    step_s.push_back(now_s() - s0);
    window_s += step_s.back();
    totals.selected += static_cast<std::uint64_t>(info.selected);
    totals.fired += static_cast<std::uint64_t>(info.fired);
  }
  totals.window_s += window_s;
  totals.window_steps += static_cast<std::uint64_t>(window);
  totals.window_step_s.push_back(quantile(std::move(step_s), 0.5));
  tracer.record("runtime.engine.window", t3, now_s(), span.index(), id);
  tracer.aggregate("runtime.engine.step", "runtime.engine.window",
                   static_cast<std::uint64_t>(window), window_s);
  return out;
}

std::pair<double, std::size_t> stabilized_window(
    const sss::BatchItem& item, int trial, const sss::Configuration& silent,
    int window, int workers, sss::SweepMode mode) {
  sss::Engine engine(*item.graph, *item.protocol,
                     sss::make_daemon("synchronous"),
                     item.base_seed + 1 + static_cast<std::uint64_t>(trial));
  engine.set_parallel_threads(workers);
  engine.set_sweep_mode(mode);
  engine.set_config(silent);
  const double t0 = now_s();
  for (int w = 0; w < window; ++w) engine.step();
  return {now_s() - t0, engine.config().hash()};
}

void report_engine_layer(Report& layers, const EngineTotals& totals) {
  layers.set("runtime.engine.randomize_ms", "ms", totals.randomize_s * 1e3);
  layers.set("runtime.engine.run_self_ms", "ms", totals.run_s * 1e3);
  layers.set_count("runtime.engine.ns_per_step", "ns",
                   totals.run_steps > 0
                       ? totals.run_s * 1e9 /
                             static_cast<double>(totals.run_steps)
                       : 0.0,
                   static_cast<int>(std::min<std::uint64_t>(
                       totals.run_steps, 2'000'000'000ULL)));
  layers.set("runtime.engine.quiescent_ms", "ms", totals.quiescent_s * 1e3);
  const int window_steps = static_cast<int>(
      std::min<std::uint64_t>(totals.window_steps, 2'000'000'000ULL));
  layers.set_count("runtime.engine.ns_per_activation", "ns",
                   totals.selected > 0
                       ? totals.window_s * 1e9 /
                             static_cast<double>(totals.selected)
                       : 0.0,
                   window_steps);
  layers.set_count("runtime.engine.fired_per_selected", "ratio",
                   totals.selected > 0
                       ? static_cast<double>(totals.fired) /
                             static_cast<double>(totals.selected)
                       : 0.0,
                   window_steps);
}

void report_counts(Report* layers, std::vector<std::string>& printed,
                   const std::vector<sss::RunStats>& stats) {
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t reads = 0;
  std::uint64_t bits = 0;
  int k_max = 0;
  for (const sss::RunStats& s : stats) {
    steps += s.steps;
    rounds += s.rounds;
    reads += s.total_reads;
    bits += s.total_read_bits;
    k_max = std::max(k_max, s.max_reads_per_process_step);
  }
  const int n = static_cast<int>(stats.size());
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"runtime.engine.steps", steps},
      {"runtime.engine.rounds", rounds},
      {"runtime.engine.reads", reads},
      {"runtime.engine.read_bits", bits},
      {"runtime.engine.k_max", static_cast<std::uint64_t>(k_max)},
  };
  for (const auto& [name, value] : counts) {
    if (layers != nullptr) {
      layers->set_count(name, "count", static_cast<double>(value), n);
    }
    printed.push_back(std::string(name) + " = " + std::to_string(value));
  }
}

}  // namespace labbench
