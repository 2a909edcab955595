#pragma once
/// \file common.hpp
/// Shared pieces of the labbench program: clocks and statistics, the
/// metric report that becomes the program's JSON line, the span tracer of
/// the traced run, and small helpers (seed derivation, manifest
/// rendering, digests, a timed legitimacy wrapper).
///
/// Everything here sits *outside* the simulator: spans are recorded by
/// the benchmark around its own calls into the simulator's public API
/// (analysis/plan, analysis/batch, analysis/sink, runtime/engine,
/// runtime/churn, service/LabService), never inside it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/batch.hpp"
#include "graph/graph.hpp"
#include "runtime/engine.hpp"
#include "support/params.hpp"

namespace labbench {

// ------------------------------------------------------------ clock/stats

/// Seconds on the monotonic clock since the process started.
double now_s();

/// Linear-interpolation quantile (q in [0, 1]) of `xs`; 0 when empty.
double quantile(std::vector<double> xs, double q);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Timings of units of work (a trial, a run, a window) that a run repeats
/// identically, spread over the whole measured time. Each unit's value is
/// the mean of its repeats: the host's speed drifts over tens of seconds,
/// and a mean over the run follows that drift smoothly where a median of
/// single samples jumps between fast and slow stretches. Quantiles over
/// the units' means then describe the workload's spread of work.
class UnitMeans {
 public:
  void add(std::uint64_t unit, double value);
  /// One mean per unit, in unit order.
  std::vector<double> means() const;
  /// Sum of the units' means: the time of one repeat of all units.
  double sum_of_means() const;
  std::size_t samples() const { return samples_; }

 private:
  std::map<std::uint64_t, std::pair<double, int>> units_;
  std::size_t samples_ = 0;
};

/// Host speed probe. The benchmark shares its host, whose cores run the
/// same code 10-50% slower while other tenants load them, for tens of
/// seconds at a time. The probe is a fixed kernel shaped like the
/// simulator's hot path (a random central daemon recoloring a 16x16 grid
/// through a virtual rule, with an allocating O(n+m) legitimacy check
/// after every step), self-contained and independent of the code under
/// test. Sampled between units of work across the measured time, its mean
/// says how fast the host ran during the run; end-to-end times are scaled
/// by kReferenceProbeS / mean_s() (see main.cpp), so a change of the code
/// under test moves them and a busy host moves them much less.
/// The probe's mean time on an idle core of the host the benchmark was
/// tuned on (4-vCPU Intel Xeon VM): the speed end-to-end times are
/// reported at.
constexpr double kReferenceProbeS = 3e-3;

class SpeedProbe {
 public:
  /// Runs the kernel once (about 2 ms) and records its host time.
  void sample();
  /// Mean kernel time over the samples, in seconds.
  double mean_s() const;
  std::size_t samples() const { return count_; }

 private:
  double total_s_ = 0.0;
  std::size_t count_ = 0;
  std::uint64_t sink_ = 0;
};

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per `next()`, and restores the original affinity on destruction.
/// On a shared host the cores run at different speeds from moment to
/// moment (a busy hyperthread sibling slows its core), so a
/// single-threaded phase that stays on one core measures that core; one
/// that rotates measures the machine. Threads created while a rotation
/// is live inherit its single-CPU mask, so multi-threaded phases must not
/// run inside one.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;
  std::size_t cursor_ = 0;
};

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int samples = 0;  ///< samples the value was computed from
  double q1 = 0.0;  ///< within-run quartiles of those samples
  double q3 = 0.0;
  bool idle = false;  ///< the workload never calls this layer
};

/// Named metrics of one run, in insertion order. Setting a name twice
/// replaces the earlier value.
class Report {
 public:
  /// A single measured value (one sample).
  void set(const std::string& name, const std::string& unit, double value);
  /// A count-like value aggregated from `samples` observations.
  void set_count(const std::string& name, const std::string& unit,
                 double value, int samples);
  /// Quantile `q` of `xs`, with xs's quartiles and sample count.
  void set_quantile(const std::string& name, const std::string& unit,
                    const std::vector<double>& xs, double q);
  /// Quantile `q` over the units' means, times `scale`; the sample count
  /// is every repeat the means were taken over.
  void set_quantile(const std::string& name, const std::string& unit,
                    const UnitMeans& units, double q, double scale);
  /// A layer this workload does not exercise: value 0, no samples.
  void set_idle(const std::string& name, const std::string& unit);
  /// Copies a metric from another report.
  void put(const Metric& metric) { slot(metric.name) = metric; }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(const std::string& name) const;

  void print(std::ostream& out, const std::string& title) const;
  /// {"<name>": {"value": v, "unit": u}, ...} with full-precision values.
  std::string json() const;

 private:
  Metric& slot(const std::string& name);
  std::vector<Metric> metrics_;
};

// ----------------------------------------------------------------- tracer

struct Span {
  std::string name;
  double begin = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for roots
  std::string id;   ///< trial or run identifier
  int tid = 0;      ///< display lane (client thread) in the trace viewer
};

/// Many calls at one boundary folded into a count and a total, for
/// boundaries too frequent for one span per call (engine steps,
/// predicate calls). `parent` names the span kind they ran inside, so the
/// self-time table can subtract them from it.
struct Aggregate {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// In-memory span recorder. When constructed off, every call is a no-op
/// returning -1, so workloads share one code path for both runs.
/// Thread-safe: client threads of the served workload record
/// concurrently.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  /// Opens a span starting now; returns its index.
  int open(const std::string& name, int parent = -1,
           const std::string& id = {}, int tid = 0);
  void close(int span);
  /// Records a finished span with explicit bounds.
  int record(const std::string& name, double begin, double end,
             int parent = -1, const std::string& id = {}, int tid = 0);
  void aggregate(const std::string& name, const std::string& parent,
                 std::uint64_t count, double seconds);

  /// Durations (seconds) of every span called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events plus one "C" counter
  /// event per aggregate), readable by Perfetto and chrome://tracing.
  void write_chrome(const std::string& path) const;
  /// Per span name: count, total, and self time (duration minus the
  /// union of child spans and minus attributed aggregates), plus a
  /// per-layer roll-up of self time.
  void print_self_times(std::ostream& out) const;

 private:
  bool on_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  /// Keyed by (name, parent span kind).
  std::map<std::pair<std::string, std::string>, Aggregate> aggregates_;
};

/// RAII span on a (possibly off) tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = -1,
             const std::string& id = {}, int tid = 0)
      : tracer_(tracer), index_(tracer.open(name, parent, id, tid)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

// ---------------------------------------------------------------- helpers

/// Deterministic stream k of the workload seed (splitmix64 finalizer).
std::uint64_t derive(std::uint64_t seed, std::uint64_t k);

/// A graph family plus its parameters: rendered into manifests and built
/// directly through the family registry for the graph.build_ms span.
struct GraphSpec {
  std::string family;
  sss::ParamMap params;

  std::string json() const;
  sss::Graph build() const;
};

/// Bytes held by a graph's CSR arrays (offsets, neighbors, mirrors).
std::uint64_t csr_bytes(const sss::Graph& g);

/// FNV-1a over `rows`, one '\n'-terminated row at a time.
std::uint64_t fnv1a(const std::vector<std::string>& rows);
std::string hex64(std::uint64_t value);

/// Legitimacy-predicate call counter shared by the timed wrapper.
struct LegitTally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> nanos{0};
  double seconds() const { return static_cast<double>(nanos.load()) * 1e-9; }
};

/// Wraps `inner` so every call is counted and timed into `tally`.
sss::LegitimacyPredicate timed_predicate(sss::LegitimacyPredicate inner,
                                         LegitTally* tally);

/// The (item, trial) key of a rendered JSONL row.
std::pair<int, int> row_key(const std::string& row_json);

/// Rows sorted by (group, item, trial); the digest input.
struct KeyedRow {
  int group = 0;
  int item = 0;
  int trial = 0;
  std::string json;
};
std::vector<std::string> sorted_rows(std::vector<KeyedRow> rows);

/// Reads a text file into lines (no trailing newlines).
std::vector<std::string> read_lines(const std::string& path);

/// The RunStats fields a replay must reproduce exactly: trajectory,
/// round, and read/bit metrics. Empty when equal, else a description.
std::string stats_mismatch(const sss::RunStats& expected,
                           const sss::RunStats& actual);

// ----------------------------------------------------------- engine replay

/// Host-time and work totals accumulated over direct Engine trials.
struct EngineTotals {
  double randomize_s = 0.0;
  double run_s = 0.0;        ///< Engine::run (no predicate bound)
  double quiescent_s = 0.0;  ///< public exact check after silence
  double silence_s = 0.0;    ///< randomize + run, summed over trials
  std::uint64_t run_steps = 0;
  /// One sample per trial: its window's median step latency, which a
  /// cold first step after a CPU move or a timer interrupt does not move.
  std::vector<double> window_step_s;
  std::uint64_t window_steps = 0;
  double window_s = 0.0;
  std::uint64_t selected = 0;  ///< window: processes the daemon selected
  std::uint64_t fired = 0;     ///< window: of which fired an action
};

struct EngineTrial {
  sss::RunStats stats;  ///< the silence phase (Engine::run)
  bool quiescent = false;
  /// The certified-silent configuration, when requested.
  std::unique_ptr<sss::Configuration> silent_config;
};

/// Runs trial `trial` of `item` directly on an Engine, with the batch
/// runner's seed and daemon derivation (engine seed base_seed + 1 +
/// trial, daemon-major): randomize, run to certified silence with no
/// predicate bound, the public quiescence check, then `window` (may be 0)
/// timed steps of the stabilized phase on a fresh engine started from the
/// silent configuration under the synchronous daemon (every trial's
/// window then does comparable work, whatever daemon it converged
/// under). Spans go under `parent`.
EngineTrial run_engine_trial(const sss::BatchItem& item, int trial,
                             int window, bool keep_silent,
                             EngineTotals& totals, Tracer& tracer,
                             int parent);

/// Steps `window` synchronous steps of trial `trial`'s stabilized phase
/// from `silent` on a fresh engine with `workers` engine threads and the
/// given sweep mode; returns the host time and the final configuration's
/// hash (equal for every worker count and mode).
std::pair<double, std::size_t> stabilized_window(
    const sss::BatchItem& item, int trial, const sss::Configuration& silent,
    int window, int workers, sss::SweepMode mode);

/// Engine-layer per-layer metrics from `totals` (randomize, run self,
/// ns/step, quiescent, and the window's ns/activation and fired share).
void report_engine_layer(Report& layers, const EngineTotals& totals);

/// The paper's simulated counts (steps, rounds, reads, read bits, k_max)
/// summed over result rows: set as count metrics on `layers` when given,
/// and always rendered into `printed`. They repeat exactly across runs.
void report_counts(Report* layers, std::vector<std::string>& printed,
                   const std::vector<sss::RunStats>& stats);

// ---------------------------------------------------------------- run API

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What one workload run hands back to main.
struct Outcome {
  Report metrics;        ///< end-to-end (untraced) or per-layer (traced)
  SpeedProbe probe;      ///< host speed over the measured time
  long attempted = 0;    ///< operations attempted in the measured passes
  long failed = 0;       ///< of which failed (see failed_frac)
  std::string digest;    ///< hex digest of the canonical result rows
  std::vector<std::string> errors;  ///< correctness-check failures
  std::vector<std::string> counts;  ///< simulated counts, printed verbatim
  std::string trace_path;           ///< Chrome trace file (traced runs)
  std::string trace_table;          ///< self-time table (traced runs)
};

Outcome run_lab_convergence(const Options& options);
Outcome run_served_churn(const Options& options);

}  // namespace labbench
