// Objective evaluators for the worst-case adversary search.
//
// failure/strategy.hpp keeps the searchers protocol-agnostic by maximizing
// an injected PatternEvaluator; this is where the evaluators come from. An
// evaluator runs the chosen protocol on every configured preference vector
// against the candidate pattern and aggregates:
//
//   * decision_round       — max over preferences of the last nonfaulty
//                            decision round (undecided counts as horizon+1);
//   * messages_suppressed  — max over preferences of Σ |sent \ delivered|;
//   * evidence_ambiguity   — max over preferences of Σ_i unattributed
//                            faults in nonfaulty i's final view, via the
//                            POpt/POptGo::evidence_ambiguity accessors
//                            (restricted to the p_opt/p_opt_go kinds).
//
// Worst-case over preferences (not average) because the search certifies a
// guarantee: "no preference vector pushes the protocol past round r". The
// PatternScore side-channels (settled_round, rounds_executed) feed the
// searcher's prunings and are filled for every objective.
#pragma once

#include <vector>

#include "failure/strategy.hpp"
#include "sim/drivers.hpp"

namespace eba {

struct ObjectiveConfig {
  SearchObjective objective = SearchObjective::decision_round;
  ProtocolKind protocol = ProtocolKind::p_opt;
  int n = 0;
  int t = 0;
  /// Preference vectors to maximize over; empty = all 2^n of them.
  std::vector<std::vector<Value>> prefs;
  int max_rounds = 0;  ///< per-run horizon; 0 = t+4 (as the drivers)
};

[[nodiscard]] PatternEvaluator make_pattern_evaluator(ObjectiveConfig cfg);

}  // namespace eba
