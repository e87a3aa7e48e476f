// P_opt: the polynomial-time implementation of the knowledge-based program
// P1 with respect to the full-information exchange (paper §7, Def. A.19,
// Thm A.21, Prop 7.9). This settles the Halpern–Moses–Waarts open problem:
// an optimal EBA protocol for omission failures that is computable in
// polynomial time.
//
//   if decided                              -> noop
//   if common_0 (K_i C_N(t-faulty ∧ no-decided_N(1) ∧ ∃0)) -> decide(0)
//   if common_1 (K_i C_N(t-faulty ∧ no-decided_N(0) ∧ ∃1)) -> decide(1)
//   if cond_0   (init=0 or a just-received 0-decision)     -> decide(0)
//   if cond_1   (K_i "no agent can be deciding 0")         -> decide(1)
//   otherwise                               -> noop
//
// All tests are evaluated on the agent's communication graph using the
// operators f, D, V, d of §A.2.7; the d (inferred action) entries are
// memoized in the state's ActionTable, each node being inferred exactly once
// when it first enters the hears-from cone.
//
// One evaluator decides every node: the agent's own (self, time) and each
// inferred (j, m) of its cone. d(j, m) is the rule applied to j's view
// G_{j,m}, and the evaluator reads that view in place on the owner's graph G
// instead of extracting it. The tests read four things of G_{j,m}: cone(j,
// m), the present senders of (j, m), the preferences at the cone's roots,
// and f rows. The first three are rows of cone nodes, which the view copies
// from G verbatim. For f, every self-loop is present, so k's nodes in
// cone(j, m) are (k, 0..lh(k)); the f recurrence therefore agrees with G's
// up to lh(k) and is flat above it: f(k, m', G_{j,m}) = f(k, min(m', lh(k)),
// G), empty if k was never heard (graph/knowledge.hpp: view_row). Passing m
// explicitly instead of reading g.time() completes the identity, so the
// state's one f table serves every node. extract_view survives only as the
// test oracle for this identity.
#pragma once

#include <span>

#include "core/types.hpp"
#include "exchange/fip.hpp"
#include "graph/action_table.hpp"
#include "graph/comm_graph.hpp"
#include "graph/knowledge.hpp"

namespace eba {

class POpt {
 public:
  /// Ablation switch: with `use_common_knowledge = false` the two
  /// common-knowledge lines are skipped, leaving P0 evaluated over the
  /// full-information exchange — still a correct EBA protocol (Prop 6.1
  /// holds in every EBA context) but no longer optimal: it forfeits the
  /// Example 7.1 round-3 shortcut. bench_ablation quantifies the gap.
  enum class CommonKnowledge { enabled, disabled };

  /// Requires n - t >= 2 (Thm A.21 hypothesis).
  POpt(int n, int t, CommonKnowledge ck = CommonKnowledge::enabled)
      : n_(n), t_(t), use_common_(ck == CommonKnowledge::enabled) {
    EBA_REQUIRE(t >= 0 && n - t >= 2, "P_opt requires 0 <= t <= n-2");
  }

  [[nodiscard]] Action operator()(const FipState& s) const;

  // The individual graph tests at the graph owner's node (self, g.time()),
  // exposed for unit tests and for the model-checker cross-validation of
  // Thm A.21. `known` is an inferred action table valid for every node
  // reachable in `g`; lookups are gated by reachability in `g` internally.
  // Each is a thin wrapper over the in-place test the evaluator uses.

  /// common_v: K_i(C_N(t-faulty ∧ no-decided_N(1-v) ∧ ∃v)) at time g.time().
  /// The cache-less overload builds a throwaway KnowledgeCache; the cached
  /// overload reuses `cache`, which must belong to `g` (see KnowledgeCache).
  [[nodiscard]] static bool common_test(const CommGraph& g, AgentId self,
                                        Value v, int t,
                                        const ActionTable& known);
  [[nodiscard]] static bool common_test(const CommGraph& g, AgentId self,
                                        Value v, int t,
                                        const ActionTable& known,
                                        KnowledgeCache& cache);

  /// cond_0: init=0 at time 0, or a delivered message from an agent that
  /// just decided 0.
  [[nodiscard]] static bool cond0_test(const CommGraph& g, AgentId self,
                                       Value init, const ActionTable& known);
  /// cond_0 at node (j, m) of g, m <= g.time(): reads only the present
  /// senders of (j, m), so it holds on G_{j,m} iff it holds here.
  [[nodiscard]] static bool cond0_test(const CommGraph& g, AgentId j, int m,
                                       Value init, const ActionTable& known);

  /// cond_1: the Hall-type counting test of Prop A.7 — true iff no hidden
  /// 0-chain can reach the present round.
  [[nodiscard]] static bool cond1_test(const CommGraph& g, AgentId self,
                                       const ActionTable& known);
  [[nodiscard]] static bool cond1_test(const CommGraph& g, AgentId self,
                                       const ActionTable& known,
                                       KnowledgeCache& cache);

  /// Fills s.inferred with d(j, m) for every node in the hears-from cone of
  /// (s.self, s.time). Exposed for tests; operator() calls it.
  void infer_actions(const FipState& s) const;

  /// Strategy-facing accessor (failure/strategy.hpp objectives): how much of
  /// the fault budget is still unattributed in the agent's view — t minus
  /// the number of senders its f-table convicts at (s.self, s.time). A
  /// worst-case adversary maximizes this to stay hidden from P_opt's
  /// common-knowledge tests.
  [[nodiscard]] static int evidence_ambiguity(const FipState& s, int t);

  [[nodiscard]] int t() const { return t_; }

 private:
  /// The decision rule at node (j, m) of g, evaluated in place: `cone` is
  /// cone(j, m) in g and `faults` g's whole f table (may be empty when
  /// `use_common` is false — only the common tests read it).
  [[nodiscard]] static Action decide(const CommGraph& g, AgentId j, int m,
                                     const Cone& cone,
                                     std::span<const AgentSet> faults,
                                     Value init, bool decided, int t,
                                     const ActionTable& known,
                                     bool use_common);

  int n_;
  int t_;
  bool use_common_;
};

}  // namespace eba
