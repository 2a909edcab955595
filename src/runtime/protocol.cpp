#include "runtime/protocol.hpp"

#include "runtime/quiescence.hpp"
#include "support/require.hpp"

namespace sss {

// EnabledBitmap stores actions as int8; its disabled sentinel must be the
// value every scalar-path consumer of the refreshed actions compares
// against.
static_assert(EnabledBitmap::kDisabled == Protocol::kDisabled);

void Protocol::install_constants(const Graph&, Configuration&) const {}

void Protocol::sweep_enabled_ids(BulkGuardContext& ctx, EnabledBitmap& out,
                                 std::span<const ProcessId> ids) const {
  for (const ProcessId p : ids) {
    GuardContext guard(ctx.graph(), ctx.config(), p, /*logger=*/nullptr);
    out.set_action(p, first_enabled(guard));
  }
}

namespace {

/// The scalar contexts log through a ReadLogger; this one charges the
/// execute context's sink.
class SinkLogger final : public ReadLogger {
 public:
  explicit SinkLogger(BulkExecContext& ctx) : ctx_(ctx) {}
  void on_read(ProcessId reader, ProcessId subject, int comm_var) override {
    ctx_.log(reader, subject, comm_var);
  }

 private:
  BulkExecContext& ctx_;
};

}  // namespace

void Protocol::execute_selected(BulkExecContext& ctx,
                                const EnabledBitmap& enabled,
                                std::span<const ProcessId> selection,
                                std::size_t begin, std::size_t end) const {
  SinkLogger logger(ctx);
  // One write arena per thread keeps its capacity across steps, so the
  // steady-state step allocates nothing.
  thread_local std::vector<PendingWrite> writes;
  const auto num_comm = static_cast<std::size_t>(ctx.config().num_comm());
  for (std::size_t i = begin; i < end; ++i) {
    const ProcessId p = selection[i];
    GuardContext guard(ctx.graph(), ctx.config(), p, &logger);
    const int action = first_enabled(guard);
    enabled.expect_rerun(p, action);
    if (action == kDisabled) continue;
    if (ctx.rng() != nullptr) {
      ActionContext act(ctx.graph(), ctx.config(), p, *ctx.rng(), &logger,
                        &writes);
      execute(action, act);
    } else {
      const bool certified = execute_certified(ctx.graph(), *this,
                                               ctx.config(), p, action,
                                               &logger, writes);
      SSS_ASSERT(certified,
                 "execute_selected may draw randomness only with the model "
                 "rng (the serial slice of a protocol declaring "
                 "is_probabilistic())");
    }
    // Pending writes land in commit order, so a slot written twice keeps
    // the last value, as commit_writes would.
    Value* row = ctx.stage(i, p);
    for (const PendingWrite& w : writes) {
      row[w.is_comm ? static_cast<std::size_t>(w.var)
                    : num_comm + static_cast<std::size_t>(w.var)] = w.value;
    }
  }
}

bool Protocol::solo_writes_comm(const Graph& g, Configuration& config,
                                ProcessId p, int budget) const {
  // One arena pair per thread keeps its capacity across probes.
  thread_local ProcessStep scratch;
  thread_local std::vector<Value> saved_row;
  return solo_would_write_comm(g, *this, config, p, scratch, saved_row,
                               budget);
}

bool execute_certified(const Graph& g, const Protocol& protocol,
                       const Configuration& pre, ProcessId p, int action,
                       ReadLogger* logger, std::vector<PendingWrite>& writes) {
  static const std::vector<Value> kNoScript;
  Rng scratch_rng(0x9a7a11e1ULL);
  ActionContext ctx(g, pre, p, scratch_rng, logger, &writes);
  ctx.set_random_script(&kNoScript);
  protocol.execute(action, ctx);
  const bool drew = !ctx.random_draws().empty();
  SSS_ASSERT(!drew || protocol.is_probabilistic(),
             "a protocol declaring is_probabilistic() == false drew "
             "randomness inside a certified execution path");
  return !drew;
}

ProcessStep evaluate_process(const Graph& g, const Protocol& protocol,
                             const Configuration& pre, ProcessId p, Rng& rng,
                             ReadLogger* logger) {
  ProcessStep result;
  GuardContext guard(g, pre, p, logger);
  result.action = protocol.first_enabled(guard);
  if (result.action == Protocol::kDisabled) return result;
  ActionContext action(g, pre, p, rng, logger);
  protocol.execute(result.action, action);
  result.comm_write_attempted = action.comm_write_attempted();
  result.writes = action.writes();
  return result;
}

void evaluate_process_into(const Graph& g, const Protocol& protocol,
                           const Configuration& pre, ProcessId p, Rng& rng,
                           ReadLogger* logger, ProcessStep& out) {
  out.comm_write_attempted = false;
  out.writes.clear();
  GuardContext guard(g, pre, p, logger);
  out.action = protocol.first_enabled(guard);
  if (out.action == Protocol::kDisabled) return;
  ActionContext action(g, pre, p, rng, logger, &out.writes);
  protocol.execute(out.action, action);
  out.comm_write_attempted = action.comm_write_attempted();
}

bool commit_writes(Configuration& config, ProcessId p,
                   const std::vector<PendingWrite>& writes) {
  bool comm_changed = false;
  for (const auto& w : writes) {
    if (w.is_comm) {
      if (config.comm(p, w.var) != w.value) comm_changed = true;
      config.set_comm(p, w.var, w.value);
    } else {
      config.set_internal(p, w.var, w.value);
    }
  }
  return comm_changed;
}

ProcessStep apply_solo_step(const Graph& g, const Protocol& protocol,
                            Configuration& config, ProcessId p, Rng& rng,
                            ReadLogger* logger) {
  ProcessStep step = evaluate_process(g, protocol, config, p, rng, logger);
  if (step.action != Protocol::kDisabled) {
    commit_writes(config, p, step.writes);
  }
  return step;
}

}  // namespace sss
