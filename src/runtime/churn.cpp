#include "runtime/churn.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "runtime/fault.hpp"
#include "runtime/reference_engine.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"

namespace sss {
namespace {

/// Per-event precondition attempts before giving up (the event is then
/// counted as skipped). Bounded so a saturated precondition (e.g. a
/// complete graph receiving edge-add draws) cannot stall the window.
constexpr int kMutationAttempts = 8;

bool edge_in_list(const std::vector<Edge>& edges, Edge e) {
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

int degree_in_list(const std::vector<Edge>& edges, ProcessId p) {
  int d = 0;
  for (const Edge& e : edges) {
    if (e.first == p || e.second == p) ++d;
  }
  return d;
}

/// BFS connectivity of the vertex set [0, n) minus `skip` (-1 = none) over
/// `edges` (edges touching `skip` are ignored). Isolated survivors fail the
/// check too, so "connected with min degree >= 1" is one predicate.
bool remains_connected(int n, const std::vector<Edge>& edges, ProcessId skip) {
  const int expected = skip >= 0 ? n - 1 : n;
  if (expected <= 0) return false;
  std::vector<std::vector<ProcessId>> adj(static_cast<std::size_t>(n));
  for (const Edge& e : edges) {
    if (e.first == skip || e.second == skip) continue;
    adj[static_cast<std::size_t>(e.first)].push_back(e.second);
    adj[static_cast<std::size_t>(e.second)].push_back(e.first);
  }
  const ProcessId start = skip == 0 ? 1 : 0;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<ProcessId> frontier{start};
  seen[static_cast<std::size_t>(start)] = 1;
  int reached = 1;
  while (!frontier.empty()) {
    const ProcessId p = frontier.back();
    frontier.pop_back();
    for (const ProcessId q : adj[static_cast<std::size_t>(p)]) {
      if (seen[static_cast<std::size_t>(q)]) continue;
      seen[static_cast<std::size_t>(q)] = 1;
      ++reached;
      frontier.push_back(q);
    }
  }
  return reached == expected;
}

/// ChurnRunner<Engine> follows a bound local form through a tracker fed by
/// the engine's last selection; ChurnRunner<ReferenceEngine>, the oracle,
/// keeps the full per-step check.
template <typename EngineT>
constexpr bool kTracksLocally =
    requires(const EngineT& e) { e.last_selection(); };

template <typename EngineT>
const LocalLegitimacy* tracked_form(const LocalLegitimacy* form,
                                    const LegitimacyPredicate& legitimacy) {
  SSS_REQUIRE(form == nullptr || legitimacy,
              "a local legitimacy form needs the predicate it tracks");
  return kTracksLocally<EngineT> ? form : nullptr;
}

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& samples,
                           double pct) {
  if (samples.empty()) return 0;
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[idx - 1];
}

}  // namespace

void validate_churn_options(const ChurnOptions& options) {
  SSS_REQUIRE(options.event_probability >= 0.0 &&
                  options.event_probability <= 1.0,
              "churn \"event_probability\" must be in [0, 1]");
  SSS_REQUIRE((options.event_probability > 0.0) != (options.period > 0),
              "churn needs exactly one schedule: \"event_probability\" or "
              "\"period\"");
  SSS_REQUIRE(options.window_steps >= 1, "churn \"window_steps\" must be >= 1");
  SSS_REQUIRE(options.stabilize_steps >= 1,
              "churn \"stabilize_steps\" must be >= 1");
  SSS_REQUIRE(options.max_victims >= 1, "churn \"max_victims\" must be >= 1");
  SSS_REQUIRE(options.corruption_weight >= 0 &&
                  options.node_reset_weight >= 0 &&
                  options.topology_weight >= 0,
              "churn event weights cannot be negative");
  SSS_REQUIRE(options.corruption_weight + options.node_reset_weight +
                      options.topology_weight >
                  0,
              "churn needs at least one positive event weight");
}

double ChurnStats::availability() const {
  if (window_steps == 0) return 0.0;
  return static_cast<double>(legitimate_steps) /
         static_cast<double>(window_steps);
}

std::uint64_t ChurnStats::recovery_rounds_percentile(double pct) const {
  return nearest_rank(recovery_rounds, pct);
}

double ChurnStats::reads_per_disruption() const {
  if (disruptions == 0) return 0.0;
  return static_cast<double>(recovery_reads) /
         static_cast<double>(disruptions);
}

ChurnSweepSummary summarize_churn(const ChurnStats* stats, int count) {
  ChurnSweepSummary out;
  out.runs = count;
  std::vector<double> pooled_rounds;
  std::uint64_t recovery_reads = 0;
  std::uint64_t idle_reads = 0;
  std::uint64_t idle_steps = 0;
  double availability_sum = 0.0;
  for (int i = 0; i < count; ++i) {
    const ChurnStats& s = stats[i];
    out.initial_silent_runs += s.initial_silent ? 1 : 0;
    out.disruptions += s.disruptions;
    out.recoveries += s.recoveries;
    out.skipped_events += s.skipped_events;
    out.topology_events += s.topology_events();
    availability_sum += s.availability();
    recovery_reads += s.recovery_reads;
    idle_reads += s.idle_reads;
    idle_steps += s.idle_steps;
    for (const std::uint64_t r : s.recovery_rounds) {
      pooled_rounds.push_back(static_cast<double>(r));
    }
  }
  if (count > 0) availability_sum /= count;
  out.availability_mean = count > 0 ? availability_sum : 0.0;
  if (!pooled_rounds.empty()) {
    std::sort(pooled_rounds.begin(), pooled_rounds.end());
    out.recovery_rounds_p50 = percentile_sorted(pooled_rounds, 50.0);
    out.recovery_rounds_p90 = percentile_sorted(pooled_rounds, 90.0);
    out.recovery_rounds_p99 = percentile_sorted(pooled_rounds, 99.0);
  }
  if (out.disruptions > 0) {
    out.reads_per_disruption = static_cast<double>(recovery_reads) /
                               static_cast<double>(out.disruptions);
  }
  if (idle_steps > 0) {
    out.idle_reads_per_step =
        static_cast<double>(idle_reads) / static_cast<double>(idle_steps);
  }
  return out;
}

template <typename EngineT>
ChurnRunner<EngineT>::ChurnRunner(Graph initial, ProtocolFactory factory,
                                  std::string daemon_name,
                                  std::uint64_t engine_seed,
                                  ChurnOptions options,
                                  LegitimacyPredicate legitimacy,
                                  const LocalLegitimacy* local_legitimacy)
    : owned_graph_(std::make_unique<Graph>(std::move(initial))),
      factory_(std::move(factory)),
      daemon_name_(std::move(daemon_name)),
      engine_seed_(engine_seed),
      options_(std::move(options)),
      legitimacy_(std::move(legitimacy)),
      local_legitimacy_(tracked_form<EngineT>(local_legitimacy, legitimacy_)),
      churn_rng_(options_.seed) {
  SSS_REQUIRE(factory_ != nullptr,
              "owning-mode churn runner needs a protocol factory");
  graph_ = owned_graph_.get();
  owned_protocol_ = factory_(*graph_);
  SSS_REQUIRE(owned_protocol_ != nullptr,
              "protocol factory returned null for the initial topology");
  protocol_ = owned_protocol_.get();
  validate_churn_options(options_);
  edges_ = graph_->edges();
  const int n0 = graph_->num_vertices();
  max_nodes_ = n0 + 8;
  min_nodes_ = std::max(2, n0 / 2);
  engine_ = std::make_unique<EngineT>(*graph_, *protocol_,
                                      make_daemon(daemon_name_), engine_seed_);
  configure_engine();
}

template <typename EngineT>
ChurnRunner<EngineT>::ChurnRunner(const Graph& g, const Protocol& protocol,
                                  std::string daemon_name,
                                  std::uint64_t engine_seed,
                                  ChurnOptions options,
                                  LegitimacyPredicate legitimacy,
                                  const LocalLegitimacy* local_legitimacy)
    : graph_(&g),
      protocol_(&protocol),
      daemon_name_(std::move(daemon_name)),
      engine_seed_(engine_seed),
      options_(std::move(options)),
      legitimacy_(std::move(legitimacy)),
      local_legitimacy_(tracked_form<EngineT>(local_legitimacy, legitimacy_)),
      churn_rng_(options_.seed) {
  SSS_REQUIRE(options_.topology_weight == 0,
              "topology churn requires the owning-mode runner (it must "
              "rebuild the graph and protocol)");
  validate_churn_options(options_);
  engine_ = std::make_unique<EngineT>(*graph_, *protocol_,
                                      make_daemon(daemon_name_), engine_seed_);
  configure_engine();
}

template <typename EngineT>
void ChurnRunner<EngineT>::configure_engine() {
  if constexpr (requires(EngineT& e) { e.set_sweep_mode(SweepMode::kAuto); }) {
    engine_->set_sweep_mode(options_.sweep_mode);
  }
  if constexpr (requires(EngineT& e) { e.set_exclude_frozen(true); }) {
    engine_->set_exclude_frozen(options_.exclude_frozen);
  }
}

template <typename EngineT>
RunStats ChurnRunner<EngineT>::stabilize() {
  RunOptions run;
  run.max_steps = options_.stabilize_steps;
  run.stop_on_silence = true;
  run.legitimacy = legitimacy_;
  run.local_legitimacy = local_legitimacy_;
  const RunStats s = engine_->run(run);
  stats_.initial_silent = s.silent;
  // A run that failed to stabilize enters the window already "recovering":
  // no disruption is counted, but the availability clock is honest about
  // the illegitimate prefix.
  recovering_ = !s.silent;
  recovery_start_rounds_ = total_rounds();
  recovery_start_step_ = 0;
  quiet_streak_ = 0;
  legit_valid_ = false;
  tracker_.reset();
  return s;
}

template <typename EngineT>
std::uint64_t ChurnRunner<EngineT>::recovery_patience() const {
  return options_.recovery_patience != 0
             ? options_.recovery_patience
             : std::max<std::uint64_t>(
                   16, static_cast<std::uint64_t>(graph_->num_vertices()));
}

template <typename EngineT>
std::uint64_t ChurnRunner<EngineT>::total_rounds() const {
  return rounds_offset_ + engine_->rounds_inclusive();
}

template <typename EngineT>
std::uint64_t ChurnRunner<EngineT>::total_reads() const {
  return reads_offset_ + engine_->read_counter().total_reads();
}

template <typename EngineT>
std::uint64_t ChurnRunner<EngineT>::total_bits() const {
  return bits_offset_ + engine_->read_counter().total_bits();
}

template <typename EngineT>
void ChurnRunner<EngineT>::mark_disruption() {
  ++stats_.disruptions;
  quiet_streak_ = 0;
  legit_valid_ = false;
  if (!recovering_) {
    recovering_ = true;
    recovery_start_rounds_ = total_rounds();
    recovery_start_step_ = window_step_;
  }
}

template <typename EngineT>
void ChurnRunner<EngineT>::corrupt(const std::vector<ProcessId>& victims) {
  engine_->apply_external_corruption(victims, churn_rng_);
  if (tracker_) tracker_->recheck(engine_->config(), victims);
}

template <typename EngineT>
void ChurnRunner<EngineT>::inject_event() {
  const int wc = options_.corruption_weight;
  const int wr = options_.node_reset_weight;
  const int wt = options_.topology_weight;
  const std::uint64_t draw =
      churn_rng_.below(static_cast<std::uint64_t>(wc + wr + wt));
  if (draw < static_cast<std::uint64_t>(wc)) {
    const int n = graph_->num_vertices();
    const int cap = std::min(options_.max_victims, n);
    const int count =
        1 + static_cast<int>(churn_rng_.below(static_cast<std::uint64_t>(cap)));
    corrupt(choose_victims(n, count, churn_rng_));
    ++stats_.corruptions;
    mark_disruption();
  } else if (draw < static_cast<std::uint64_t>(wc + wr)) {
    // Node reset: one whole process re-randomized in place.
    corrupt({static_cast<ProcessId>(
        churn_rng_.below(static_cast<std::uint64_t>(graph_->num_vertices())))});
    ++stats_.node_resets;
    mark_disruption();
  } else {
    const int subkind = static_cast<int>(churn_rng_.below(4));
    if (mutate_topology(subkind)) {
      mark_disruption();
    } else {
      ++stats_.skipped_events;
    }
  }
}

template <typename EngineT>
bool ChurnRunner<EngineT>::mutate_topology(int subkind) {
  const int n = graph_->num_vertices();
  const std::vector<Edge> snapshot = edges_;
  switch (subkind) {
    case 0: {  // edge add
      const std::size_t complete =
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
      if (edges_.size() >= complete) return false;
      for (int attempt = 0; attempt < kMutationAttempts; ++attempt) {
        const ProcessId p = static_cast<ProcessId>(
            churn_rng_.below(static_cast<std::uint64_t>(n)));
        const ProcessId q = static_cast<ProcessId>(
            churn_rng_.below(static_cast<std::uint64_t>(n)));
        if (p == q) continue;
        const Edge e{std::min(p, q), std::max(p, q)};
        if (edge_in_list(edges_, e)) continue;
        edges_.push_back(e);
        std::sort(edges_.begin(), edges_.end());
        if (reattach(n)) {
          ++stats_.edge_adds;
          return true;
        }
        edges_ = snapshot;
        return false;
      }
      return false;
    }
    case 1: {  // edge remove
      for (int attempt = 0; attempt < kMutationAttempts; ++attempt) {
        const std::size_t idx = static_cast<std::size_t>(
            churn_rng_.below(static_cast<std::uint64_t>(edges_.size())));
        const Edge e = edges_[idx];
        if (degree_in_list(edges_, e.first) < 2 ||
            degree_in_list(edges_, e.second) < 2) {
          continue;
        }
        edges_.erase(edges_.begin() + static_cast<std::ptrdiff_t>(idx));
        if (!remains_connected(n, edges_, -1)) {
          edges_ = snapshot;
          continue;
        }
        if (reattach(n)) {
          ++stats_.edge_removes;
          return true;
        }
        edges_ = snapshot;
        return false;
      }
      return false;
    }
    case 2: {  // node join: new id n, wired to 1-2 existing processes
      if (n >= max_nodes_) return false;
      const ProcessId joiner = n;
      const int links = 1 + static_cast<int>(churn_rng_.below(
                                static_cast<std::uint64_t>(std::min(2, n))));
      const ProcessId first = static_cast<ProcessId>(
          churn_rng_.below(static_cast<std::uint64_t>(n)));
      ProcessId second = -1;
      if (links == 2) {
        for (int attempt = 0; attempt < kMutationAttempts; ++attempt) {
          const ProcessId cand = static_cast<ProcessId>(
              churn_rng_.below(static_cast<std::uint64_t>(n)));
          if (cand != first) {
            second = cand;
            break;
          }
        }
      }
      edges_.push_back({first, joiner});
      if (second >= 0) edges_.push_back({second, joiner});
      std::sort(edges_.begin(), edges_.end());
      if (reattach(n + 1)) {
        ++stats_.node_joins;
        return true;
      }
      edges_ = snapshot;
      return false;
    }
    case 3: {  // node leave: highest id only, ids below it stay stable
      const ProcessId victim = n - 1;
      if (n - 1 < min_nodes_) return false;
      if (!remains_connected(n, edges_, victim)) return false;
      edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                  [victim](const Edge& e) {
                                    return e.first == victim ||
                                           e.second == victim;
                                  }),
                   edges_.end());
      if (reattach(n - 1)) {
        ++stats_.node_leaves;
        return true;
      }
      edges_ = snapshot;
      return false;
    }
    default:
      return false;
  }
}

template <typename EngineT>
bool ChurnRunner<EngineT>::reattach(int new_n) {
  try {
    auto next_graph = std::make_unique<Graph>(Graph::from_edges(new_n, edges_));
    next_graph->set_name(graph_->name());
    auto next_protocol = factory_(*next_graph);
    SSS_REQUIRE(next_protocol != nullptr,
                "protocol factory returned null for a churned topology");
    const ProtocolSpec& spec = next_protocol->spec();
    SSS_REQUIRE(spec.num_comm() == protocol_->spec().num_comm() &&
                    spec.num_internal() == protocol_->spec().num_internal(),
                "protocol factory changed the variable schema across "
                "topologies");

    // Deterministic per-incarnation engine seed: depends only on the base
    // engine seed and how many topology events have succeeded, so both
    // lockstep runners derive the same stream.
    std::uint64_t seed_state =
        engine_seed_ ^
        (0x9e3779b97f4a7c15ULL * (stats_.topology_events() + 1));
    const std::uint64_t next_seed = splitmix64(seed_state);
    auto next_engine = std::make_unique<EngineT>(
        *next_graph, *next_protocol, make_daemon(daemon_name_), next_seed);

    // State carry-over: survivors keep their values clamped into the new
    // topology's domains (domains may shrink when a degree drops);
    // constants are re-installed by set_config below; joiners start from
    // uniformly random state, drawn from the churn stream.
    Configuration cfg(*next_graph, spec);
    const int old_n = graph_->num_vertices();
    const Configuration& old_cfg = engine_->config();
    const int carry = std::min(old_n, new_n);
    for (ProcessId p = 0; p < carry; ++p) {
      for (int v = 0; v < spec.num_comm(); ++v) {
        if (spec.comm[static_cast<std::size_t>(v)].is_constant()) continue;
        const VarDomain d =
            spec.comm[static_cast<std::size_t>(v)].domain(*next_graph, p);
        cfg.set_comm(p, v, std::clamp(old_cfg.comm(p, v), d.lo, d.hi));
      }
      for (int v = 0; v < spec.num_internal(); ++v) {
        if (spec.internal[static_cast<std::size_t>(v)].is_constant()) continue;
        const VarDomain d =
            spec.internal[static_cast<std::size_t>(v)].domain(*next_graph, p);
        cfg.set_internal(p, v,
                         std::clamp(old_cfg.internal_var(p, v), d.lo, d.hi));
      }
    }
    if (new_n > old_n) {
      std::vector<ProcessId> joiners;
      for (ProcessId p = old_n; p < new_n; ++p) joiners.push_back(p);
      corrupt_processes(*next_graph, spec, cfg, joiners, churn_rng_);
    }
    next_engine->set_config(cfg);

    // Commit: retire the outgoing engine's lifetime counters into the
    // offsets, then swap in dependency order (tracker and engine before
    // the protocol and graph they reference). The next step builds a new
    // tracker on the new graph.
    tracker_.reset();
    rounds_offset_ += engine_->rounds_inclusive();
    reads_offset_ += engine_->read_counter().total_reads();
    bits_offset_ += engine_->read_counter().total_bits();
    engine_ = std::move(next_engine);
    owned_protocol_ = std::move(next_protocol);
    owned_graph_ = std::move(next_graph);
    graph_ = owned_graph_.get();
    protocol_ = owned_protocol_.get();
    configure_engine();
    return true;
  } catch (const std::exception&) {
    // The factory (or a validator) rejected the churned topology — e.g. a
    // parameterized protocol whose parameters constrain the graph. The
    // caller restores the edge list and counts the event as skipped;
    // rejection is deterministic, so both lockstep runners agree.
    return false;
  }
}

template <typename EngineT>
bool ChurnRunner<EngineT>::step_once() {
  if (window_step_ >= options_.window_steps) return false;

  bool fire = false;
  if (options_.event_probability > 0.0) {
    fire = churn_rng_.chance(options_.event_probability);
  } else {
    fire = (window_step_ + 1) % options_.period == 0;
  }
  if (fire) inject_event();

  const std::uint64_t reads_before = total_reads();
  const std::uint64_t bits_before = total_bits();
  const bool was_recovering = recovering_;
  const Engine::StepInfo info = engine_->step();
  ++window_step_;
  ++stats_.window_steps;

  const std::uint64_t delta_reads = total_reads() - reads_before;
  const std::uint64_t delta_bits = total_bits() - bits_before;
  if (was_recovering) {
    ++stats_.recovering_steps;
    stats_.recovery_reads += delta_reads;
    stats_.recovery_bits += delta_bits;
  } else {
    ++stats_.idle_steps;
    stats_.idle_reads += delta_reads;
    stats_.idle_bits += delta_bits;
  }

  if (legitimacy_ && legitimate_after_step(info)) ++stats_.legitimate_steps;

  if (info.comm_changed) {
    quiet_streak_ = 0;
  } else {
    ++quiet_streak_;
  }

  if (recovering_) {
    // Patience-gated exact re-certification, re-attempted once per
    // patience interval — the same cadence Engine::run uses, and rng-free,
    // so both lockstep runners certify at identical steps.
    const std::uint64_t patience = recovery_patience();
    if (quiet_streak_ >= patience &&
        (quiet_streak_ - patience) % patience == 0 && engine_->quiescent()) {
      recovering_ = false;
      ++stats_.recoveries;
      stats_.recovery_rounds.push_back(total_rounds() - recovery_start_rounds_);
      stats_.recovery_step_counts.push_back(window_step_ -
                                            recovery_start_step_);
    }
  }
  return true;
}

template <typename EngineT>
bool ChurnRunner<EngineT>::legitimate_after_step(const Engine::StepInfo& info) {
  if constexpr (kTracksLocally<EngineT>) {
    if (local_legitimacy_ != nullptr) {
      // Events already re-checked their victims; a step that fired wrote
      // only processes of its selection.
      const bool was_legitimate = legit_valid_ && legit_cached_;
      if (!tracker_) {
        tracker_.emplace(*graph_, *local_legitimacy_, engine_->config());
      } else if (info.fired > 0) {
        tracker_->recheck(engine_->config(), engine_->last_selection());
      }
      legit_cached_ = tracker_->legitimate();
      legit_valid_ = true;
      SSS_ASSERT(!legit_cached_ || was_legitimate ||
                     legitimacy_(*graph_, engine_->config()),
                 "churn legitimacy tracker reported a configuration the "
                 "full predicate rejects");
      return legit_cached_;
    }
  }
  // The predicate is pure in the configuration: re-evaluate only when
  // something could have changed it (a fired action, or an event — the
  // latter clears legit_valid_ via mark_disruption).
  if (!legit_valid_ || info.fired > 0) {
    legit_cached_ = legitimacy_(*graph_, engine_->config());
    legit_valid_ = true;
  }
  return legit_cached_;
}

template class ChurnRunner<Engine>;
template class ChurnRunner<ReferenceEngine>;

}  // namespace sss
