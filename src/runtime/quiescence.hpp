#pragma once
/// \file quiescence.hpp
/// Exact silence detection (Definition 3).
///
/// A configuration is *silent* if no computation from it ever changes a
/// communication variable. Because a process's behaviour depends only on
/// its own state and its neighbors' communication variables, freezing all
/// communication variables decouples the processes: each one evolves solo.
/// For the protocols in this library the internal state (the cur pointer)
/// is periodic within delta.p solo activations, so running each process
/// solo for delta.p + 2 activations either surfaces an attempted
/// communication write (not silent) or proves none is reachable (silent).
/// Write *attempts* are used rather than value changes so that a
/// randomized action redrawing the old value cannot fake silence.
///
/// The per-process question is one Protocol hook, `solo_writes_comm`,
/// and that hook is the single decision procedure behind the Engine's
/// solo-quiescence cache probes and its full `Engine::quiescent` check.
/// Its scalar default is `solo_would_write_comm` below; a rule protocol
/// answers it with its own guard and act inlined (runtime/rule.hpp). The
/// free functions here stay scalar: `is_comm_quiescent` is the oracle
/// that ReferenceEngine, the model checker (verify/) and the
/// impossibility constructions (impossibility/) certify with.

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"
#include "runtime/protocol.hpp"

namespace sss {

struct QuiescenceOptions {
  /// Extra solo activations beyond degree(p); 2 covers the pointer cycling
  /// plus one confirmation activation.
  int margin = 2;
};

/// The margin a check of `protocol` runs: the caller's, or the protocol's
/// own deeper demand (see Protocol::solo_quiescence_margin), whichever is
/// larger — certifying silence with too small a margin would be unsound.
int solo_margin(const Protocol& protocol,
                const QuiescenceOptions& options = {});

/// The scalar solo run behind `Protocol::solo_writes_comm`'s default:
/// would `p`, activated solo against the frozen communication state in
/// `config`, attempt a communication write within `budget` activations?
///
/// `config` is mutated only transiently: p's row is saved into `saved_row`
/// and restored before returning (solo activations write nothing but p's
/// own variables). `scratch` and `saved_row` are reusable buffers so a
/// caller probing many processes allocates nothing in steady state. The
/// internal scratch rng (`kSoloScratchSeed`) only feeds randomized
/// actions, whose outcome never affects *whether* a communication write is
/// attempted.
bool solo_would_write_comm(const Graph& g, const Protocol& protocol,
                           Configuration& config, ProcessId p,
                           ProcessStep& scratch, std::vector<Value>& saved_row,
                           int budget);

/// True iff `config` is a silent configuration of `protocol` on `g`: no
/// process's scalar solo run attempts a communication write within
/// degree(p) + solo_margin activations.
bool is_comm_quiescent(const Graph& g, const Protocol& protocol,
                       const Configuration& config,
                       const QuiescenceOptions& options = {});

}  // namespace sss
