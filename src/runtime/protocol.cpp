#include "runtime/protocol.hpp"

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

void Protocol::execute_selected(BulkExecContext&, const EnabledBitmap&,
                                std::span<const ProcessId>, std::size_t,
                                std::size_t) const {
  SSS_ASSERT(false,
             "execute_selected called on a protocol without a bulk execute "
             "kernel (has_bulk_execute() gates the call)");
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
