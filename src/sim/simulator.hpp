// The synchronous runs-and-systems simulator (paper §3).
//
// Given an information-exchange protocol E, an action protocol P, a failure
// pattern α and initial preferences, the run is uniquely determined.
// `simulate()` computes it with the paper's round semantics — at each time k
// every agent performs P(s_i), the exchange chooses messages µ(s_i, a_i),
// the adversary filters them, and δ produces the time-(k+1) states — by
// driving the in-place `Stepper` (stepper.hpp) with a `MaterializingSink`,
// recovering the classic fully-materialized `Run<X>` (every agent's state at
// every time). Callers that only need the record should run a bare Stepper
// instead and skip the per-round state copies (sim/drivers.cpp does).
#pragma once

#include <utility>
#include <vector>

#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "failure/pattern.hpp"
#include "sim/stepper.hpp"

namespace eba {

/// A fully materialized run: the protocol-agnostic record plus the typed
/// state of every agent at every time.
template <ExchangeProtocol X>
struct Run {
  RunRecord record;
  /// states[m][i]: local state of agent i at time m, m in 0..record.rounds.
  std::vector<std::vector<typename X::State>> states;
  std::size_t bits_sent = 0;
  std::size_t messages_sent = 0;

  friend bool operator==(const Run&, const Run&) = default;
};

/// simulate() runs a Stepper, so it takes the Stepper's options.
using SimulateOptions = StepperOptions;

/// Runs a stepper that reports to `sink` to its end and collects the
/// materialized run.
template <ExchangeProtocol X, class P>
Run<X> run_to_end(Stepper<X, P>& stepper, MaterializingSink<X>& sink) {
  while (stepper.step()) {
  }
  Run<X> run;
  run.bits_sent = stepper.bits_sent();
  run.messages_sent = stepper.messages_sent();
  run.record = stepper.take_record();
  run.states = std::move(sink.states());
  return run;
}

template <ExchangeProtocol X, class P>
Run<X> simulate(const X& x, const P& act, const FailurePattern& alpha,
                const std::vector<Value>& inits, int t,
                const StepperOptions& opt = {}) {
  MaterializingSink<X> sink;
  Stepper<X, P> stepper(x, act, alpha, inits, t, opt, &sink);
  return run_to_end(stepper, sink);
}

}  // namespace eba
