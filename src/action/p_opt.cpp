#include "action/p_opt.hpp"

#include <algorithm>

#include "graph/knowledge.hpp"

namespace eba {
namespace {

// The paper's d(j, m, G) oracle — an inferred-action lookup gated by
// reachability in the graph under evaluation — is realized below as whole
// mask intersections: cone.at(m) ∩ ActionTable decider masks enumerate every
// (j, m) with a reachable, known decision in one word op per round.
//
// Every test takes the node (j, m) under evaluation and cone = cone(j, m) in
// g, and reads G_{j,m} in place (see p_opt.hpp).

/// common_v at node (j, m); `faults` is g's whole f table.
bool common_at(const CommGraph& g, AgentId j, int m, const Cone& cone,
               std::span<const AgentSet> faults, Value v, int t,
               const ActionTable& known) {
  if (m < 1) return false;
  const int n = g.n();
  const auto f = [&](AgentId k, int m2) {
    return faults[static_cast<std::size_t>(view_row(cone, k, m2)) *
                      static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(k)];
  };

  const AgentSet candidates = f(j, m).complement(n);

  // (a) The possibly-nonfaulty agents must have had distributed knowledge of
  // exactly t faulty agents at time m-1 (Lemma A.20: equivalent to
  // C_N(t-faulty) holding now).
  AgentSet dist;
  for (AgentId k : candidates) dist = dist.united(f(k, m - 1));
  if (dist.size() != t) return false;

  // (b) No possibly-nonfaulty agent may be known to have decided 1-v
  // (otherwise no-decided_N(1-v) cannot be common knowledge). d(k, m2) is
  // gated by cone membership, so one cone-level ∩ decider-mask ∩ candidates
  // intersection per round covers every (k, m2) probe of the old triple loop.
  const Value other = opposite(v);
  for (int m2 = 0; m2 < m; ++m2) {
    const AgentSet bad = other == Value::zero ? known.deciders0(m2)
                                              : known.deciders1(m2);
    if (!candidates.intersected(cone.at(m2)).intersected(bad).empty())
      return false;
  }

  // (c) Some agent believed nonfaulty at time m-1 must have known ∃v then
  // (Prop A.2(c): C_N(t-faulty ∧ ∃v) ⇔ C_N(t-faulty) ∧ ⊖(∨_{j∈N} K_j ∃v)).
  for (AgentId k : dist.complement(n))
    if (knows_value(g, k, m - 1, cone, v)) return true;
  return false;
}

/// cond_1 at node (·, m) with cone = its cone.
bool cond1_at(int n, int m, const Cone& cone, const ActionTable& known) {
  if (m == 0) return false;

  // len: the longest 0-chain position the agent knows about (-1 if none).
  // d(j, m2) = decide0 iff j is both in the cone level and the decide0 mask.
  int len = -1;
  for (int m2 = 0; m2 < m; ++m2)
    if (!cone.at(m2).intersected(known.deciders0(m2)).empty()) len = m2;

  // Agents known (at some cone node) to have decided. j ∈ cone.at(m2)
  // implies m2 <= last_heard(j), so this union is exactly the complement of
  // the old per-agent undecided_when_last_heard scan.
  AgentSet known_decided;
  for (int m2 = 0; m2 <= m; ++m2)
    known_decided =
        known_decided.united(cone.at(m2).intersected(known.deciders(m2)));

  // The potential extenders at chain position m2 are the agents last heard
  // before m2 and not known decided. Cone levels are per-agent prefixes, so
  // last_heard(j) < m2 iff j ∉ cone.at(m2): the count is one popcount.
  //
  // Prop A.7 (contrapositive): the agent knows no one can be deciding 0 iff
  // for some chain position m2 in (len, m] there are fewer potential
  // extenders than the hidden chain would need. Because the extender sets
  // are nested in m2, this is exactly Hall's condition for the hidden chain.
  const AgentSet undecided = known_decided.complement(n);
  for (int m2 = len + 1; m2 <= m; ++m2)
    if (undecided.minus(cone.at(m2)).size() < m2 - len) return true;
  return false;
}

}  // namespace

bool POpt::common_test(const CommGraph& g, AgentId self, Value v, int t,
                       const ActionTable& known) {
  KnowledgeCache cache;
  return common_test(g, self, v, t, known, cache);
}

bool POpt::common_test(const CommGraph& g, AgentId self, Value v, int t,
                       const ActionTable& known, KnowledgeCache& cache) {
  const int m = g.time();
  if (m < 1) return false;
  const auto faults = cache.fault_table(g);
  return common_at(g, self, m, cache.cone(g, self, m), faults, v, t, known);
}

bool POpt::cond0_test(const CommGraph& g, AgentId self, Value init,
                      const ActionTable& known) {
  return cond0_test(g, self, g.time(), init, known);
}

bool POpt::cond0_test(const CommGraph& g, AgentId j, int m, Value init,
                      const ActionTable& known) {
  if (m == 0) return init == Value::zero;
  // Only senders whose round-m message reached j can have shown it a fresh
  // 0-decision; the packed receiver row enumerates exactly those.
  for (AgentId k : g.present_senders(m - 1, j)) {
    if (k == j) continue;
    if (known.get(k, m - 1) == KnownAction::decide0) return true;
  }
  return false;
}

bool POpt::cond1_test(const CommGraph& g, AgentId self,
                      const ActionTable& known) {
  KnowledgeCache cache;
  return cond1_test(g, self, known, cache);
}

bool POpt::cond1_test(const CommGraph& g, AgentId self,
                      const ActionTable& known, KnowledgeCache& cache) {
  const int m = g.time();
  if (m == 0) return false;
  return cond1_at(g.n(), m, cache.cone(g, self, m), known);
}

Action POpt::decide(const CommGraph& g, AgentId j, int m, const Cone& cone,
                    std::span<const AgentSet> faults, Value init, bool decided,
                    int t, const ActionTable& known, bool use_common) {
  if (decided) return Action::noop();
  if (use_common) {
    if (common_at(g, j, m, cone, faults, Value::zero, t, known))
      return Action::decide(Value::zero);
    if (common_at(g, j, m, cone, faults, Value::one, t, known))
      return Action::decide(Value::one);
  }
  if (cond0_test(g, j, m, init, known)) return Action::decide(Value::zero);
  if (cond1_at(g.n(), m, cone, known)) return Action::decide(Value::one);
  return Action::noop();
}

void POpt::infer_actions(const FipState& s) const {
  s.inferred.ensure(n_, s.time);
  // Only the common tests read f; the ablation never builds the table.
  const auto faults = use_common_ ? s.knowledge.fault_table(s.graph)
                                  : std::span<const AgentSet>{};
  const Cone& cone = s.knowledge.cone(s.graph, s.self, s.time);
  Cone node_cone;
  for (int m = 0; m <= s.time; ++m) {
    for (AgentId j : cone.at(m)) {
      if (j == s.self && m == s.time) continue;  // the action being computed
      if (s.inferred.get(j, m) != KnownAction::unknown) continue;
      // Each (j, m) node is inferred exactly once over the state's lifetime,
      // so its cone is built into one reused buffer rather than memoized.
      node_cone.assign(s.graph, j, m);
      EBA_REQUIRE(s.graph.pref(j) != PrefLabel::unknown,
                  "reachable node with unknown own preference");
      const Value init_j =
          s.graph.pref(j) == PrefLabel::zero ? Value::zero : Value::one;
      const bool decided_before = s.inferred.decided_by(j, m - 1);
      const Action a = decide(s.graph, j, m, node_cone, faults, init_j,
                              decided_before, t_, s.inferred, use_common_);
      s.inferred.set(j, m, to_known(a));
    }
  }
}

Action POpt::operator()(const FipState& s) const {
  EBA_REQUIRE(s.graph.n() == n_, "state from a different system");
  infer_actions(s);
  const auto faults = use_common_ ? s.knowledge.fault_table(s.graph)
                                  : std::span<const AgentSet>{};
  return decide(s.graph, s.self, s.time,
                s.knowledge.cone(s.graph, s.self, s.time), faults, s.init,
                s.decided.has_value(), t_, s.inferred, use_common_);
}

int POpt::evidence_ambiguity(const FipState& s, int t) {
  const AgentSet known =
      s.knowledge.fault_row(s.graph, s.time)[static_cast<std::size_t>(s.self)];
  return std::max(0, t - known.size());
}

}  // namespace eba
