#include "runtime/engine.hpp"

#include <algorithm>
#include <optional>

#include "runtime/fault.hpp"
#include "support/require.hpp"

namespace sss {

SweepMode parse_sweep_mode(const std::string& name) {
  // "force_bulk" named a mode that ran what auto runs; older manifests
  // and checkpoints still carry it.
  if (name == "auto" || name == "force_bulk") return SweepMode::kAuto;
  if (name == "force_scalar") return SweepMode::kForceScalar;
  throw PreconditionError("unknown sweep mode \"" + name +
                          "\" (accepted: auto, force_scalar)");
}

const std::string& sweep_mode_name(SweepMode mode) {
  static const std::string kAuto = "auto";
  static const std::string kScalar = "force_scalar";
  return mode == SweepMode::kForceScalar ? kScalar : kAuto;
}

Engine::Engine(const Graph& g, const Protocol& protocol,
               std::unique_ptr<Daemon> daemon, std::uint64_t seed)
    : graph_(g),
      protocol_(protocol),
      daemon_(std::move(daemon)),
      rng_(seed),
      config_(g, protocol.spec()),
      enabled_(g.num_vertices()),
      probe_dirty_(static_cast<std::size_t>(g.num_vertices()), 0),
      active_(g.num_vertices()),
      covered_(g.num_vertices()),
      solo_active_(static_cast<std::size_t>(g.num_vertices()), 0),
      solo_dirty_(static_cast<std::size_t>(g.num_vertices()), 0),
      solo_margin_(solo_margin(protocol)),
      read_counter_(g, protocol.spec()) {
  SSS_REQUIRE(daemon_ != nullptr, "engine needs a daemon");
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "the model requires a connected network with n >= 2");
  SSS_REQUIRE(protocol.num_actions() <= 127,
              "the refreshed actions are stored as int8");
  // Dedup flags bound both queues by n, so one reservation serves forever.
  dirty_queue_.reserve(static_cast<std::size_t>(g.num_vertices()));
  solo_dirty_queue_.reserve(static_cast<std::size_t>(g.num_vertices()));
  probe_action_.reset(g.num_vertices());
  protocol_.install_constants(graph_, config_);
  invalidate_all_probes();
  logger_mux_.add(&read_counter_);
}

void Engine::set_config(const Configuration& config) {
  SSS_REQUIRE(config.num_processes() == graph_.num_vertices() &&
                  config.num_comm() == protocol_.spec().num_comm() &&
                  config.num_internal() == protocol_.spec().num_internal(),
              "configuration shape does not match the protocol");
  config_ = config;
  protocol_.install_constants(graph_, config_);
  SSS_REQUIRE(configuration_in_domains(graph_, protocol_.spec(), config_),
              "configuration has out-of-domain values");
  invalidate_all_probes();
  covered_.reset(graph_.num_vertices());
  steps_at_round_start_ = steps_;
}

void Engine::randomize_state() {
  randomize_configuration(graph_, protocol_.spec(), config_, rng_);
  protocol_.install_constants(graph_, config_);
  invalidate_all_probes();
  covered_.reset(graph_.num_vertices());
  steps_at_round_start_ = steps_;
}

void Engine::apply_external_corruption(const std::vector<ProcessId>& victims,
                                       Rng& rng) {
  corrupt_processes(graph_, protocol_.spec(), config_, victims, rng);
  // Local cache repair: a victim's own state changed (its guard and solo
  // answers are stale) and its communication state may have changed (its
  // neighbors' answers are stale) — exactly the fired-process treatment
  // in step(), applied without a firing.
  for (const ProcessId p : victims) {
    mark_probe_dirty(p);
    mark_solo_dirty(p);
    note_comm_changed(p);
  }
  // Round covering restarts, like set_config: the pre-fault covering
  // history does not survive an external perturbation. reset_round
  // refreshes first and re-establishes the between-steps invariant
  // (cached-disabled => covered) for the restarted round; it credits no
  // round (step() does that). ReferenceEngine resets covering to all-zero
  // and relies on its per-step disabled walk — both engines enter the next
  // step with the same covered set.
  reset_round();
}

void Engine::invalidate_all_probes() {
  dirty_queue_.clear();
  solo_dirty_queue_.clear();
  // Every solo entry goes dirty, and a dirty entry holds 0 (invariant 3).
  std::fill(solo_active_.begin(), solo_active_.end(), 0);
  solo_active_count_ = 0;
  for (ProcessId p = 0; p < graph_.num_vertices(); ++p) {
    probe_dirty_[static_cast<std::size_t>(p)] = 1;
    dirty_queue_.push_back(p);
    solo_dirty_[static_cast<std::size_t>(p)] = 1;
    solo_dirty_queue_.push_back(p);
  }
}

void Engine::mark_probe_dirty(ProcessId p) {
  if (!probe_dirty_[static_cast<std::size_t>(p)]) {
    probe_dirty_[static_cast<std::size_t>(p)] = 1;
    dirty_queue_.push_back(p);
  }
}

void Engine::mark_solo_dirty(ProcessId p) {
  const auto i = static_cast<std::size_t>(p);
  if (!solo_dirty_[i]) {
    solo_dirty_[i] = 1;
    solo_dirty_queue_.push_back(p);
    // A dirty entry holds 0, so the count covers clean entries only.
    solo_active_count_ -= solo_active_[i];
    solo_active_[i] = 0;
  }
}

inline void Engine::record_probe(ProcessId p, int action,
                                 RefreshDeltas& deltas) {
  const bool now = action != Protocol::kDisabled;
  deltas.enabled += enabled_.assign_deferred(p, now);
  // A process observed disabled is covered for the current round; this is
  // the only way "disabled at some moment" can begin mid-round, which is
  // what lets step() skip the all-vertices covering walk. A frozen process
  // counts as co-selected every step (its self-loop fires and changes
  // nothing), so it is covered from the moment the classification holds —
  // otherwise rounds could never complete.
  const bool live = exclude_frozen_ ? classify_active(p, action) : now;
  if (!live) deltas.covered += covered_.assign_deferred(p, true);
}

bool Engine::classify_active(ProcessId p, int action) {
  const bool active =
      action != Protocol::kDisabled && !verified_self_loop(p, action);
  active_.assign(p, active);
  return active;
}

Engine::RefreshDeltas Engine::refresh_ids(std::span<const ProcessId> ids) {
  // Probes are simulator devices: no rng consumption (guards are
  // deterministic; only actions may draw randomness) and nothing lands in
  // the model's read counters — phase 1 re-runs and charges the guard of
  // a selected process (invariant 4). Results are order-independent (the
  // configuration is fixed for the whole refresh), and concurrent calls
  // on disjoint id lists touch disjoint entries.
  for (const ProcessId p : ids) probe_dirty_[static_cast<std::size_t>(p)] = 0;
  BulkGuardContext ctx(graph_, config_);
  if (sweep_mode_ == SweepMode::kForceScalar) {
    protocol_.Protocol::sweep_enabled_ids(ctx, probe_action_, ids);
  } else {
    protocol_.sweep_enabled_ids(ctx, probe_action_, ids);
  }
  const std::int8_t* actions = probe_action_.actions();
  RefreshDeltas deltas;
  for (const ProcessId p : ids) {
    record_probe(p, actions[static_cast<std::size_t>(p)], deltas);
  }
  return deltas;
}

void Engine::refresh_enabled() {
  if (dirty_queue_.empty()) return;
  // Guard inputs changed: the recorded idle-step charge (invariant 4) is
  // stale.
  idle_charge_valid_ = false;
  const auto n = static_cast<std::size_t>(graph_.num_vertices());
  // Fanning out (invariant 7) wants the dirty set large enough to amortize
  // the barrier: at least a quarter of the network. Central daemons dirty
  // O(Delta) processes per step and stay on the one-list refresh. Frozen
  // exclusion pins the one list too: its classifier runs through one
  // shared scratch arena and updates active_'s count in place. Cost gate
  // only — every split computes identical state.
  const bool fan_out = pool_ != nullptr && !exclude_frozen_ &&
                       dirty_queue_.size() >= 2 &&
                       dirty_queue_.size() * 4 >= n;
  const auto fold = [&](RefreshDeltas deltas) {
    enabled_.add_count(deltas.enabled);
    covered_.add_count(deltas.covered);
  };
  if (fan_out) {
    // Each worker refreshes the dirty ids inside its own range — ranges
    // partition the id space, so every id is refreshed exactly once.
    pool_->run([&](int w) {
      const auto [begin, end] = worker_range(w);
      WorkerState& ws = worker_states_[static_cast<std::size_t>(w)];
      ws.ids.clear();
      for (const ProcessId p : dirty_queue_) {
        if (p >= begin && p < end) ws.ids.push_back(p);
      }
      ws.deltas = refresh_ids(ws.ids);
    });
    for (const WorkerState& ws : worker_states_) fold(ws.deltas);
  } else {
    fold(refresh_ids(dirty_queue_));
  }
  dirty_queue_.clear();
}

std::pair<ProcessId, ProcessId> Engine::worker_range(int worker) const {
  const int n = graph_.num_vertices();
  const int threads = pool_->threads();
  // Rounding the chunk up to a multiple of 64 keeps every worker's range
  // inside its own EnabledSet and covered_ words (and its own probe_dirty_
  // cache lines); trailing workers may get an empty range on small graphs.
  const int chunk = (((n + threads - 1) / threads) + 63) & ~63;
  const ProcessId begin = static_cast<ProcessId>(
      std::min<long long>(n, static_cast<long long>(worker) * chunk));
  const ProcessId end =
      static_cast<ProcessId>(std::min<long long>(n, begin + chunk));
  return {begin, end};
}

void Engine::evaluate_slice(std::size_t begin, std::size_t end,
                            WorkerReadTally* tally) {
  // Phase 1 (invariants 4, 6): the serial slice charges the step counter,
  // or the mux while an external logger listens, and hands probabilistic
  // protocols the model stream (ascending selection order reproduces its
  // scalar consumption bit for bit). A pool worker charges its tally.
  // Every other slice gets a null rng: a kernel asserts on a draw, and
  // the scalar default runs its actions certified.
  const ReadSink sink = tally != nullptr          ? ReadSink(*tally)
                        : external_loggers_ != 0 ? ReadSink(logger_mux_)
                                                 : ReadSink(read_counter_);
  BulkExecContext ctx(
      graph_, config_, sink, staged_rows_.data(),
      static_cast<std::size_t>(config_.stride()),
      tally == nullptr && protocol_.is_probabilistic() ? &rng_ : nullptr);
  const std::span<const ProcessId> selection(selection_);
  if (sweep_mode_ == SweepMode::kForceScalar) {
    protocol_.Protocol::execute_selected(ctx, probe_action_, selection, begin,
                                         end);
  } else {
    protocol_.execute_selected(ctx, probe_action_, selection, begin, end);
  }
}

template <class OnCommit>
void Engine::commit_slice(std::size_t begin, std::size_t end,
                          OnCommit&& on_commit) {
  // Whole-row commit of the staged post-states. A staged row started as a
  // copy of the snapshot row, so comparing the communication prefix
  // detects exactly a written comm slot whose value differs. The refresh
  // recorded which processes fired: phase 1 asserted each re-run agrees.
  const auto stride = static_cast<std::size_t>(config_.stride());
  const auto num_comm = static_cast<std::size_t>(config_.num_comm());
  for (std::size_t i = begin; i < end; ++i) {
    const ProcessId p = selection_[i];
    if (!probe_action_.enabled(p)) continue;
    const Value* row = staged_rows_.data() + i * stride;
    Value* live = config_.raw().data() + static_cast<std::size_t>(p) * stride;
    const bool changed = !std::equal(row, row + num_comm, live);
    std::copy(row, row + stride, live);
    on_commit(p, changed);
  }
}

void Engine::set_parallel_threads(int threads) {
  SSS_REQUIRE(threads >= 1, "parallel thread count must be at least 1");
  if (threads == parallel_threads_) return;
  parallel_threads_ = threads;
  pool_.reset();
  worker_states_.clear();
  if (threads > 1) {
    pool_ = std::make_unique<StepPool>(threads);
    worker_states_.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      worker_states_.emplace_back(read_counter_);
    }
  }
}

bool Engine::verified_self_loop(ProcessId p, int action) {
  // A simulator device like the probes: no read logging, writes discarded
  // before returning. An action that consumes randomness cannot be
  // certified from one sample and is conservatively treated as live.
  if (!execute_certified(graph_, protocol_, config_, p, action, nullptr,
                         frozen_scratch_)) {
    return false;
  }
  for (const PendingWrite& write : frozen_scratch_) {
    const Value current = write.is_comm
                              ? config_.comm(p, write.var)
                              : config_.internal_var(p, write.var);
    if (write.value != current) return false;
  }
  return true;
}

void Engine::set_exclude_frozen(bool on) {
  if (on == exclude_frozen_) return;
  exclude_frozen_ = on;
  if (on) {
    // Classification is refreshed through the probe dirty queue, so force
    // a full pass: clean probes would otherwise keep stale active bits.
    active_.reset(graph_.num_vertices());
    for (ProcessId p = 0; p < graph_.num_vertices(); ++p) {
      mark_probe_dirty(p);
    }
  }
}

bool Engine::is_frozen(ProcessId p) {
  SSS_REQUIRE(p >= 0 && p < graph_.num_vertices(), "process id out of range");
  if (!exclude_frozen_) return false;
  refresh_enabled();
  return enabled_.test(p) && !active_.test(p);
}

bool Engine::is_enabled(ProcessId p) {
  SSS_REQUIRE(p >= 0 && p < graph_.num_vertices(), "process id out of range");
  refresh_enabled();
  return enabled_.test(p);
}

int Engine::num_enabled() {
  refresh_enabled();
  return enabled_.count();
}

bool Engine::solo_writes_comm(ProcessId p) {
  // The solo hook (invariant 3) at the protocol's budget; it leaves
  // config_ as it found it.
  const int budget = graph_.degree(p) + solo_margin_;
  if (sweep_mode_ == SweepMode::kForceScalar) {
    return protocol_.Protocol::solo_writes_comm(graph_, config_, p, budget);
  }
  return protocol_.solo_writes_comm(graph_, config_, p, budget);
}

bool Engine::quiescent() {
  // Every process from scratch, sharing nothing with the cache: this is
  // the check that catches a cache-invalidation bug.
  for (ProcessId p = 0; p < graph_.num_vertices(); ++p) {
    if (solo_writes_comm(p)) return false;
  }
  return true;
}

bool Engine::certified_silent() {
  // Lazy (invariant 3): one clean active entry already proves the
  // configuration is not silent, so probing stops at the first one found
  // and the rest of the queue stays dirty for a later checkpoint.
  while (solo_active_count_ == 0 && !solo_dirty_queue_.empty()) {
    const ProcessId p = solo_dirty_queue_.back();
    solo_dirty_queue_.pop_back();
    solo_dirty_[static_cast<std::size_t>(p)] = 0;
    ++solo_probes_;
    if (solo_writes_comm(p)) {
      solo_active_[static_cast<std::size_t>(p)] = 1;
      ++solo_active_count_;
    }
  }
  if (solo_active_count_ != 0) return false;
  // The one full solo simulation per certification, so a cache bug can
  // never mis-certify.
  SSS_ASSERT(quiescent(),
             "solo-quiescence cache certified a non-silent configuration");
  return true;
}

void Engine::attach_read_logger(ReadLogger* logger) {
  SSS_REQUIRE(!logger_mux_.contains(logger),
              "read logger is already attached");
  logger_mux_.add(logger);
  // An external observer sees reads through the order-sensitive mux, so
  // its presence pins the serial slice and the idle-charge re-runs
  // (invariants 4, 7).
  ++external_loggers_;
}

void Engine::detach_read_logger(ReadLogger* logger) {
  SSS_REQUIRE(logger_mux_.remove(logger), "read logger is not attached");
  --external_loggers_;
}

std::uint64_t Engine::rounds_inclusive() const {
  return rounds_completed_ + (steps_ > steps_at_round_start_ ? 1 : 0);
}

void Engine::reset_round() {
  // Re-establish the between-steps invariant for the fresh round: the
  // processes disabled right now (and, under frozen exclusion, the frozen
  // ones) are covered from its very first step — their enabledness cannot
  // change before the next step's refresh, which is exactly the pre-step
  // view the full-scan engine used. That set is the complement of the
  // set the daemon samples from, one word at a time.
  refresh_enabled();
  covered_.assign_complement(exclude_frozen_ ? active_ : enabled_);
  steps_at_round_start_ = steps_;
}

void Engine::execute_selection(StepInfo& info) {
  const std::size_t selected = selection_.size();
  const auto stride = static_cast<std::size_t>(config_.stride());
  if (staged_rows_.size() < selected * stride) {
    staged_rows_.resize(selected * stride);
  }
  // Phase 1: every selected process evaluates against the gamma_i snapshot
  // through the protocol's execute hook (invariant 6). Phase 2: the
  // simultaneous commit forms gamma_{i+1}. Any fired action may change the
  // process's own state, so its cached enabledness and solo-quiescence
  // answers are stale.
  const auto mark_fired = [&](ProcessId p, bool changed) {
    ++info.fired;
    mark_probe_dirty(p);
    mark_solo_dirty(p);
    if (changed) {
      info.comm_changed = true;
      note_comm_changed(p);
    }
  };
  // Fanning out (invariant 7): probabilistic protocols must consume rng_
  // in ascending selection order, and external read loggers observe reads
  // through the order-sensitive mux — both pin the one serial slice, which
  // reads straight into read_counter_ when nothing else listens.
  if (pool_ == nullptr || selected < 2 || protocol_.is_probabilistic() ||
      external_loggers_ != 0) {
    evaluate_slice(0, selected, /*tally=*/nullptr);
    commit_slice(0, selected, mark_fired);
  } else {
    const auto threads = static_cast<std::size_t>(pool_->threads());
    const std::size_t chunk = (selected + threads - 1) / threads;
    const auto slice = [&](int w) {
      const std::size_t begin =
          std::min(selected, static_cast<std::size_t>(w) * chunk);
      return std::pair<std::size_t, std::size_t>{
          begin, std::min(selected, begin + chunk)};
    };
    // Contiguous selection slices, all against the shared snapshot; each
    // worker writes only its slice's staged slots and its own tally. The
    // barrier keeps any commit from being visible to a still-evaluating
    // worker.
    pool_->run([&](int w) {
      const auto [begin, end] = slice(w);
      WorkerState& ws = worker_states_[static_cast<std::size_t>(w)];
      ws.tally.begin_step();
      evaluate_slice(begin, end, &ws.tally);
    });
    // A process's writes touch only its own configuration row, and the
    // slices partition the (strictly ascending, distinct) selection, so
    // the rows committed in parallel are disjoint.
    pool_->run([&](int w) {
      const auto [begin, end] = slice(w);
      WorkerState& ws = worker_states_[static_cast<std::size_t>(w)];
      ws.commits.clear();
      commit_slice(begin, end, [&](ProcessId p, bool changed) {
        ws.commits.push_back({p, changed});
      });
    });
    // Serial merge in worker order = ascending selection order, so every
    // dirty-queue push lands in exactly the order the serial slice's
    // commit loop produces it.
    for (const WorkerState& ws : worker_states_) {
      read_counter_.absorb(ws.tally.total_reads(), ws.tally.total_bits(),
                           ws.tally.max_reads(), ws.tally.max_bits());
      for (const auto& [p, changed] : ws.commits) mark_fired(p, changed);
    }
  }
}

Engine::StepInfo Engine::step() {
  refresh_enabled();

  selection_.clear();
  // Frozen exclusion: hand the daemon the active subset, unless that
  // would empty a non-empty enabled set (all enabled processes frozen) —
  // selection must stay well-formed, and selecting a frozen self-loop is
  // harmless.
  const EnabledSet& sampled =
      exclude_frozen_ && active_.count() > 0 ? active_ : enabled_;
  daemon_->select(graph_, sampled, rng_, selection_);
  SSS_ASSERT(!selection_.empty(), "daemon selected an empty set");
  // The Daemon contract (strictly ascending, hence distinct) replaces the
  // old per-step sort+unique normalization. The check is always on — a
  // duplicate would double-fire a process and silently corrupt metrics —
  // but O(k), unlike the O(k log k) sort it retired.
  for (std::size_t i = 1; i < selection_.size(); ++i) {
    SSS_ASSERT(selection_[i - 1] < selection_[i],
               "daemon selections must be strictly ascending");
  }

  read_counter_.begin_step();

  const std::size_t selected = selection_.size();
  const bool whole =
      selected == static_cast<std::size_t>(graph_.num_vertices());
  StepInfo info;
  info.selected = static_cast<int>(selected);

  // Idle charge (invariant 4): a whole-network selection with nothing
  // enabled fires nobody, and until the next refresh its n guard re-runs
  // charge exactly what the last such step charged, so they run once and
  // every repetition adds the recorded delta. The repeated step already
  // set the maxima. An external logger must see every read, so it pins
  // the re-runs.
  const bool idle = whole && enabled_.count() == 0;
  const bool charged = idle && idle_charge_valid_ && external_loggers_ == 0;
  if (charged) {
    read_counter_.absorb(idle_reads_, idle_bits_, 0, 0);
    ++idle_charges_;
  } else {
    const std::uint64_t reads_before = read_counter_.total_reads();
    const std::uint64_t bits_before = read_counter_.total_bits();
    execute_selection(info);
    if (idle) {
      idle_reads_ = read_counter_.total_reads() - reads_before;
      idle_bits_ = read_counter_.total_bits() - bits_before;
      idle_charge_valid_ = true;
    }
  }

  ++steps_;

  // The trace reads the fired actions from the refresh before a round
  // boundary's refresh replaces them. A charged idle step fired nobody,
  // and every recorded action is kDisabled then.
  if (trace_ != nullptr) {
    TraceEvent event;
    event.step = steps_;
    event.selected = selection_;
    event.actions.reserve(selected);
    for (const ProcessId p : selection_) {
      event.actions.push_back(probe_action_.action(p));
    }
    event.comm_changed = info.comm_changed;
    trace_->record(std::move(event));
  }

  // Round accounting: selected processes are covered; every process
  // disabled in the pre-step configuration is already covered by the
  // refresh/reset invariant (see file comment in engine.hpp). A
  // whole-network selection covers everyone, so it completes the round
  // without the cover walk: reset_round rewrites every covered_ word.
  if (!whole) {
    for (const ProcessId p : selection_) covered_.assign(p, true);
  }
  if (whole || covered_.count() == graph_.num_vertices()) {
    ++rounds_completed_;
    reset_round();
  }

  if (info.comm_changed) {
    last_comm_change_step_ = steps_;
    rounds_at_last_comm_change_ = rounds_inclusive();
  }

  return info;
}

void Engine::note_comm_changed(ProcessId p) {
  // A changed communication variable can flip the enabledness (and the
  // solo-quiescence answer) of every neighbor: their guards read it.
  for (ProcessId q : graph_.neighbors(p)) {
    mark_probe_dirty(q);
    mark_solo_dirty(q);
  }
}

RunStats Engine::run(const RunOptions& options) {
  RunStats stats;
  const std::uint64_t base_steps = steps_;
  const std::uint64_t base_rounds = rounds_inclusive();
  const std::uint64_t base_reads = read_counter_.total_reads();
  const std::uint64_t base_bits = read_counter_.total_bits();
  const std::uint64_t patience =
      options.quiescence_patience != 0
          ? options.quiescence_patience
          : std::max<std::uint64_t>(
                16, static_cast<std::uint64_t>(graph_.num_vertices()));

  auto relative_silence_point = [&](RunStats& out) {
    out.steps_to_silence = last_comm_change_step_ > base_steps
                               ? last_comm_change_step_ - base_steps
                               : 0;
    out.rounds_to_silence = rounds_at_last_comm_change_ > base_rounds
                                ? rounds_at_last_comm_change_ - base_rounds
                                : 0;
  };

  // First-legitimacy bookkeeping (invariant 8): a local form is tracked
  // incrementally over the steps' selections and its one positive answer
  // re-confirmed by the full predicate; an opaque predicate alone is
  // evaluated after every step.
  std::optional<LegitimacyTracker> tracker;
  if (options.local_legitimacy != nullptr) {
    tracker.emplace(graph_, *options.local_legitimacy, config_);
  }
  auto check_legitimate = [&](bool stepped) {
    if (stats.reached_legitimate) return;
    bool legitimate = false;
    if (tracker) {
      if (stepped) tracker->recheck(config_, selection_);
      legitimate = tracker->legitimate();
      SSS_ASSERT(!legitimate || !options.legitimacy ||
                     options.legitimacy(graph_, config_),
                 "legitimacy tracker reported a configuration the full "
                 "predicate rejects");
    } else {
      legitimate = options.legitimacy && options.legitimacy(graph_, config_);
    }
    if (legitimate) {
      stats.reached_legitimate = true;
      stats.steps_to_legitimate = steps_ - base_steps;
      stats.rounds_to_legitimate = rounds_inclusive() - base_rounds;
    }
  };

  check_legitimate(/*stepped=*/false);
  if (options.stop_on_silence && certified_silent()) {
    stats.silent = true;
    relative_silence_point(stats);
  } else {
    std::uint64_t next_quiescence_check = steps_ + patience;
    while (steps_ - base_steps < options.max_steps) {
      const StepInfo info = step();
      check_legitimate(/*stepped=*/true);
      if (info.comm_changed) {
        next_quiescence_check = steps_ + patience;
      } else if (options.stop_on_silence && steps_ >= next_quiescence_check) {
        if (certified_silent()) {
          stats.silent = true;
          relative_silence_point(stats);
          break;
        }
        next_quiescence_check = steps_ + patience;
      }
    }
    if (!stats.silent && options.stop_on_silence && certified_silent()) {
      stats.silent = true;
      relative_silence_point(stats);
    }
  }

  stats.steps = steps_ - base_steps;
  stats.rounds = rounds_inclusive() - base_rounds;
  stats.total_reads = read_counter_.total_reads() - base_reads;
  stats.total_read_bits = read_counter_.total_bits() - base_bits;
  stats.max_reads_per_process_step = read_counter_.max_reads_per_process_step();
  stats.max_bits_per_process_step = read_counter_.max_bits_per_process_step();
  return stats;
}

}  // namespace sss
