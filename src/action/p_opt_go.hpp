// P_opt_go: the paper's optimal-protocol construction instantiated for the
// general-omissions context γ_go(n, t) — the GO analogue of P_opt.
//
// The knowledge-based programs P0/P1 are model-agnostic; what changes under
// general omissions is how their knowledge tests are *implemented* on the
// agent's communication graph, because an absent edge no longer convicts
// its sender:
//
//   * fault attribution is clause reasoning: each definite-absent edge
//     (a → b) contributes the clause "a faulty ∨ b faulty", the consistent
//     fault sets are exactly the <= t vertex covers of the clause set, and
//     an agent *knows* x is faulty iff x lies in every such cover
//     (graph/knowledge.hpp: OmissionEvidence, go_known_faults). In
//     particular an agent can come to know that it is itself faulty (a
//     receive-omitter that misses more senders than the budget explains);
//   * the common-knowledge test pools the candidates' clause evidence
//     instead of unioning per-agent fault sets: C_N(t-faulty) holds one
//     round after the possibly-nonfaulty agents' pooled evidence *forces*
//     exactly t faults (the GO analogue of Lemma A.20 — nonfaulty agents
//     still exchange reliably among themselves, since neither endpoint of a
//     nonfaulty pair may drop);
//   * the decide-1 test must range over the *larger* GO world set: a hidden
//     0-chain may be sustained by receive-faulty agents, and conversely the
//     t budget prunes chains that sending-omissions reasoning would admit
//     (every hidden chain occupant needs its ignorance paid for by some
//     fault). go_cond1_test enumerates the consistent fault sets (the <= t
//     covers of the agent's own evidence) and asks, per fault set, whether
//     a hidden chain assignment exists — a Hall-type counting refined with
//     a "nonfaulty cascade window" (see p_opt_go.cpp for the derivation).
//
//   if decided                                   -> noop
//   if go_common_0                               -> decide(0)
//   if go_common_1                               -> decide(1)
//   if cond_0   (init=0 or a just-received 0-decision, unchanged) -> decide(0)
//   if go_cond_1 (K_i "no agent can be deciding 0" in GO(t))      -> decide(1)
//   otherwise                                    -> noop
//
// As in P_opt, one evaluator decides the agent's own node and every
// inferred node (j, m) of its cone, reading G_{j,m} in place on the owner's
// graph G. The GO evidence recurrence has the same shape as f, so the
// identity of p_opt.hpp carries over row for row: the evidence of k in
// G_{j,m} at time m' is G's at min(m', lh(k)), empty if k was never heard
// (graph/knowledge.hpp: view_row). The state's one evidence table serves
// every node; extract_view is only the test oracle.
//
// tests/test_go.cpp verifies against the semantic machinery that P_opt_go
// implements P1 in γ_go on exhaustively enumerated small contexts, that the
// synthesizer-derived decisions match, and that the EBA spec holds over all
// canonical GO orbits at n = 4 (t = 1, 2).
#pragma once

#include <span>

#include "core/types.hpp"
#include "exchange/fip.hpp"
#include "graph/action_table.hpp"
#include "graph/comm_graph.hpp"
#include "graph/knowledge.hpp"

namespace eba {

class POptGo {
 public:
  /// Ablation switch mirroring POpt's: with `use_common_knowledge = false`
  /// the two common-knowledge lines are skipped, leaving the GO evaluation
  /// of P0 over the full-information exchange — still a correct EBA
  /// protocol in γ_go but no longer optimal.
  enum class CommonKnowledge { enabled, disabled };

  /// Requires n - t >= 2 (as for P_opt).
  POptGo(int n, int t, CommonKnowledge ck = CommonKnowledge::enabled)
      : n_(n), t_(t), use_common_(ck == CommonKnowledge::enabled) {
    EBA_REQUIRE(t >= 0 && n - t >= 2, "P_opt_go requires 0 <= t <= n-2");
  }

  [[nodiscard]] Action operator()(const FipState& s) const;

  // The individual graph tests at the graph owner's node (self, g.time()),
  // exposed for unit tests and for the model-checker cross-validation
  // against P1 in γ_go. Each is a thin wrapper over the in-place test the
  // evaluator uses.

  /// go_common_v: K_i(C_N(t-faulty ∧ no-decided_N(1-v) ∧ ∃v)) at time
  /// g.time(), evaluated with GO fault attribution.
  [[nodiscard]] static bool go_common_test(const CommGraph& g, AgentId self,
                                           Value v, int t,
                                           const ActionTable& known,
                                           KnowledgeCache& cache);

  /// go_cond_0: init=0, or K_i(some agent decided 0 in round time) under GO
  /// semantics. Beyond the direct clause (a delivered message from a
  /// just-decided sender, as in SO), GO adds a budget-forced cascade
  /// inference: once the observer's evidence proves agents y and z
  /// NONfaulty (they lie in no <= t cover — e.g. because the observer has
  /// proven ITSELF receive-faulty), a known 0-decision by y at time m-2
  /// forces the undecided z to have heard it and decided 0 in round m, even
  /// though the observer saw neither the broadcast nor z's decision.
  [[nodiscard]] static bool go_cond0_test(const CommGraph& g, AgentId self,
                                          Value init, int t,
                                          const ActionTable& known,
                                          KnowledgeCache& cache);

  /// go_cond_1: K_i "no agent can be deciding 0 in round time+1" over the
  /// GO(t) worlds consistent with g.
  [[nodiscard]] static bool go_cond1_test(const CommGraph& g, AgentId self,
                                          int t, const ActionTable& known,
                                          KnowledgeCache& cache);

  /// Fills s.inferred with d(j, m) for every node in the hears-from cone of
  /// (s.self, s.time), re-deriving peers' GO decisions from their views.
  void infer_actions(const FipState& s) const;

  /// Strategy-facing accessor (failure/strategy.hpp objectives): agents
  /// whose fault status the agent's clause evidence leaves open at (s.self,
  /// s.time) — possibly faulty but not in every <= t cover. A worst-case GO
  /// adversary maximizes this unresolved set.
  [[nodiscard]] static int evidence_ambiguity(const FipState& s, int t);

  [[nodiscard]] int t() const { return t_; }

 private:
  /// The decision rule at node (j, m) of g, evaluated in place: `cone` is
  /// cone(j, m) in g and `evidence` g's whole GO evidence table.
  [[nodiscard]] static Action decide(
      const CommGraph& g, AgentId j, int m, const Cone& cone,
      std::span<const OmissionEvidence> evidence, Value init, bool decided,
      int t, const ActionTable& known, bool use_common);

  int n_;
  int t_;
  bool use_common_;
};

}  // namespace eba
