#include "action/p_opt_go.hpp"

#include "action/p_opt.hpp"
#include "graph/knowledge.hpp"

namespace eba {
namespace {

/// True iff S covers every clause of `ev` (every definite-absent edge has a
/// faulty endpoint in S).
bool covers(const OmissionEvidence& ev, AgentSet s) {
  for (AgentId a = 0; a < ev.n(); ++a)
    if (!s.contains(a) && !ev.adj(a).subset_of(s)) return false;
  return true;
}

/// Invokes fn(S) for every S with |S| <= t; stops early when fn returns
/// true. Returns whether any call did.
template <class Fn>
bool any_fault_set(int n, int t, const Fn& fn) {
  AgentSet s;
  auto rec = [&](auto&& self, AgentId next, int left) -> bool {
    if (fn(s)) return true;
    if (left == 0) return false;
    for (AgentId a = next; a < n; ++a) {
      s.insert(a);
      if (self(self, a + 1, left - 1)) return true;
      s.erase(a);
    }
    return false;
  };
  return rec(rec, 0, t);
}

/// Entry k of G_{j,m}'s evidence row m2, read in place from g's whole
/// evidence table (cone = cone(j, m) in g; see view_row).
const OmissionEvidence& evidence_at(std::span<const OmissionEvidence> evidence,
                                    int n, const Cone& cone, AgentId k,
                                    int m2) {
  return evidence[static_cast<std::size_t>(view_row(cone, k, m2)) *
                      static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(k)];
}

// ---------------------------------------------------------------------------
// go_cond1_at — K_i "no agent can be deciding 0 in round m+1" over GO(t).
//
// An agent could be deciding 0 in round m+1 of some consistent world iff a
// chain of fresh 0-decisions runs from an origin (an init-0 agent, or the
// longest 0-decision position `len` the observer already knows about)
// through every position len+1..m, each position m2 held by a distinct
// agent that decides 0 in round m2+1. The observer's graph pins down:
//
//   * the fault sets the world may use: exactly the <= t covers S of the
//     observer's missing-edge evidence (every other drop the world needs is
//     on edges the observer has no definite label for);
//   * which agents may hold position m2: agents not known to have decided,
//     last heard before m2 (otherwise the observer would know their round-
//     (m2+1) action — the classic extender condition);
//   * HOW an occupant can have stayed ignorant of 0 until round m2. A
//     faulty occupant (∈ S) simply receive-drops every earlier 0-broadcast.
//     A NONfaulty occupant hears everything nonfaulty agents send, so it
//     works only if every earlier 0-source is in S — and once one nonfaulty
//     agent holds/decides 0, its broadcast infects every nonfaulty agent
//     one round later. Nonfaulty occupants therefore form a single "cascade
//     window" of at most two consecutive positions (the initiator, then a
//     peer that just heard it), after which the chain must continue inside
//     S. If the observer knows a 0-decider OUTSIDE S at position q, the
//     cascade is already forced at q: the only possible nonfaulty occupant
//     sits at position q+1 (= len+1, since q <= len and a later window
//     would contradict the known decider's broadcast).
//
// Note which consistency checks are NOT coded here because the evidence
// cover already enforces them: a hidden occupant's silence toward every
// visible agent is a set of definite-absent edges (clauses), so a nonfaulty
// occupant automatically forces all late cone members — including the
// observer itself — into S. That is why a nonfaulty window before position
// m exists only for observers that are themselves possibly receive-faulty.
//
// Matching positions to occupants is a Hall-type problem with pools nested
// increasing in m2, so per (S, window) a prefix count decides feasibility.
// ---------------------------------------------------------------------------
bool go_cond1_at(int n, AgentId j, int m, const Cone& cone,
                 std::span<const OmissionEvidence> evidence, int t,
                 const ActionTable& known) {
  if (m == 0) return false;

  // Known 0-deciders per position, the longest known position, and the
  // agents with any known decision (never chain occupants).
  const auto zero_at = [&](int m2) {
    return cone.at(m2).intersected(known.deciders0(m2));
  };
  int len = -1;
  for (int m2 = 0; m2 < m; ++m2)
    if (!zero_at(m2).empty()) len = m2;
  AgentSet known_decided;
  for (int m2 = 0; m2 <= m; ++m2)
    known_decided =
        known_decided.united(cone.at(m2).intersected(known.deciders(m2)));

  const OmissionEvidence& ev = evidence_at(evidence, n, cone, j, m);

  const int first = len + 1;  // chain positions first..m
  // undecided: may occupy a position; position m2 additionally needs
  // last_heard < m2, i.e. absence from cone.at(m2) (cone levels are
  // per-agent prefixes).
  const AgentSet undecided = known_decided.complement(n);

  const auto chain_feasible = [&](AgentSet s) -> bool {
    if (!covers(ev, s)) return false;
    // q: earliest known 0-decision position outside S.
    int q = -1;
    for (int m2 = 0; m2 <= len && q < 0; ++m2)
      if (!zero_at(m2).minus(s).empty()) q = m2;

    // Available occupants of position m2, split by membership in S.
    const AgentSet in_s = undecided.intersected(s);
    const AgentSet out_s = undecided.minus(s);
    const auto savail = [&](int m2) { return in_s.minus(cone.at(m2)).size(); };
    const auto nsavail = [&](int m2) {
      return out_s.minus(cone.at(m2)).size();
    };

    // Can positions first..m be filled when [lo, hi] (lo > hi: none) is the
    // nonfaulty-cascade window held by occupants outside S?
    const auto fits = [&](int lo, int hi) {
      // hi-lo+1 distinct non-S occupants, nested pools.
      for (int p = lo; p <= hi; ++p)
        if (nsavail(p) < p - lo + 1) return false;
      // Remaining positions take distinct S occupants (Hall prefix check).
      int needed = 0;
      for (int m2 = first; m2 <= m; ++m2) {
        if (m2 >= lo && m2 <= hi) continue;
        if (savail(m2) < ++needed) return false;
      }
      return true;
    };

    if (fits(1, 0)) return true;  // no window
    // Forced cascade at q: the only possible non-S occupant is at q+1.
    if (q >= 0) return q + 1 >= first && fits(q + 1, q + 1);
    for (int p = first; p <= m; ++p)
      if (fits(p, p)) return true;
    for (int p = first; p < m; ++p)
      if (fits(p, p + 1)) return true;
    return false;
  };

  // K_i(no deciding 0) fails iff SOME consistent fault set admits a chain.
  return !any_fault_set(n, t, chain_feasible);
}

// ---------------------------------------------------------------------------
// go_common_at — the GO evaluation of K_i(C_N(t-faulty ∧ no-decided_N(1-v)
// ∧ ∃v)), mirroring POpt::common_test with clause-based fault attribution.
//
// (a) Budget exhaustion: the pooled missing-edge evidence the observer
//     knows its possibly-nonfaulty peers had at time m-1 must FORCE exactly
//     t faults (lie in every <= t cover). The pooled evidence is a subset
//     of the observer's own, so when it forces t agents the observer's
//     candidate set equals the true nonfaulty set in every consistent
//     world, every contributor is provably nonfaulty, and — nonfaulty
//     pairs exchanging reliably under GO — the t-fault fact was distributed
//     knowledge of N at m-1 and hence common knowledge at m (the GO
//     analogue of Lemma A.20).
// (b) No possibly-nonfaulty agent may be known to have decided 1-v.
// (c) Some agent outside the forced fault set must have known ∃v at m-1.
// ---------------------------------------------------------------------------
bool go_common_at(const CommGraph& g, AgentId j, int m, const Cone& cone,
                  std::span<const OmissionEvidence> evidence, Value v, int t,
                  const ActionTable& known) {
  if (m < 1) return false;
  const int n = g.n();

  const AgentSet f_self =
      go_known_faults(evidence_at(evidence, n, cone, j, m), t);
  const AgentSet candidates = f_self.complement(n);

  OmissionEvidence pooled(n);
  for (AgentId k : candidates)
    pooled.unite(evidence_at(evidence, n, cone, k, m - 1));
  const AgentSet dist = go_known_faults(pooled, t);
  if (dist.size() != t) return false;

  // (b) as in the SO test: one cone-level ∩ decider-mask ∩ candidates
  // intersection per round covers every (k, m2) probe.
  const Value other = opposite(v);
  for (int m2 = 0; m2 < m; ++m2) {
    const AgentSet bad = other == Value::zero ? known.deciders0(m2)
                                              : known.deciders1(m2);
    if (!candidates.intersected(cone.at(m2)).intersected(bad).empty())
      return false;
  }

  // (c) some agent believed nonfaulty must have known ∃v at time m-1.
  for (AgentId k : dist.complement(n))
    if (knows_value(g, k, m - 1, cone, v)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// go_cond0_at — the GO evaluation of init=0 ∨ K_i(∨_j jdecided_j = 0).
//
// The direct clause is the SO one: a delivered round-m message from a
// sender whose round-m action is an inferred decide(0). GO adds an indirect
// clause. Suppose the observer's evidence leaves some agents in NO <= t
// cover — they are provably nonfaulty in every consistent world (typically
// because the observer has proven itself receive-faulty and exhausted the
// budget). Nonfaulty pairs exchange reliably, so a known 0-decision by a
// provably-nonfaulty y in round m-1 (position m-2) reached every
// provably-nonfaulty z in that round; a z known to be still undecided
// through round m-1 (its actions through time m-2 are inferred noops)
// therefore decides 0 in round m — in EVERY consistent world — even though
// the observer saw neither the broadcast nor the decision. Earlier known
// 0-decisions by provably-nonfaulty agents need no clause: a real run can
// never show a provably-nonfaulty agent still undecided two rounds after
// one (the cascade would already have reached it visibly).
// ---------------------------------------------------------------------------
bool go_cond0_at(const CommGraph& g, AgentId j, int m, const Cone& cone,
                 std::span<const OmissionEvidence> evidence, Value init, int t,
                 const ActionTable& known) {
  if (POpt::cond0_test(g, j, m, init, known)) return true;
  if (m < 2) return false;

  const OmissionEvidence& ev = evidence_at(evidence, g.n(), cone, j, m);
  const AgentSet known_nonfaulty =
      go_possibly_faulty(ev, t).complement(g.n());
  if (known_nonfaulty.empty()) return false;

  if (cone.at(m - 2)
          .intersected(known.deciders0(m - 2))
          .intersected(known_nonfaulty)
          .empty())
    return false;
  for (AgentId z : known_nonfaulty) {
    if (z == j) continue;
    if (cone.last_heard(z) >= m - 2 && !known.decided_by(z, m - 2))
      return true;
  }
  return false;
}

}  // namespace

bool POptGo::go_common_test(const CommGraph& g, AgentId self, Value v, int t,
                            const ActionTable& known, KnowledgeCache& cache) {
  const int m = g.time();
  if (m < 1) return false;
  const auto evidence = cache.go_evidence_table(g);
  return go_common_at(g, self, m, cache.cone(g, self, m), evidence, v, t,
                      known);
}

bool POptGo::go_cond0_test(const CommGraph& g, AgentId self, Value init,
                           int t, const ActionTable& known,
                           KnowledgeCache& cache) {
  const int m = g.time();
  const auto evidence = cache.go_evidence_table(g);
  return go_cond0_at(g, self, m, cache.cone(g, self, m), evidence, init, t,
                     known);
}

bool POptGo::go_cond1_test(const CommGraph& g, AgentId self, int t,
                           const ActionTable& known, KnowledgeCache& cache) {
  const int m = g.time();
  if (m == 0) return false;
  const auto evidence = cache.go_evidence_table(g);
  return go_cond1_at(g.n(), self, m, cache.cone(g, self, m), evidence, t,
                     known);
}

Action POptGo::decide(const CommGraph& g, AgentId j, int m, const Cone& cone,
                      std::span<const OmissionEvidence> evidence, Value init,
                      bool decided, int t, const ActionTable& known,
                      bool use_common) {
  if (decided) return Action::noop();
  if (use_common) {
    if (go_common_at(g, j, m, cone, evidence, Value::zero, t, known))
      return Action::decide(Value::zero);
    if (go_common_at(g, j, m, cone, evidence, Value::one, t, known))
      return Action::decide(Value::one);
  }
  if (go_cond0_at(g, j, m, cone, evidence, init, t, known))
    return Action::decide(Value::zero);
  if (go_cond1_at(g.n(), j, m, cone, evidence, t, known))
    return Action::decide(Value::one);
  return Action::noop();
}

void POptGo::infer_actions(const FipState& s) const {
  s.inferred.ensure(n_, s.time);
  const auto evidence = s.knowledge.go_evidence_table(s.graph);
  const Cone& cone = s.knowledge.cone(s.graph, s.self, s.time);
  Cone node_cone;  // one buffer reused for every inferred node
  for (int m = 0; m <= s.time; ++m) {
    for (AgentId j : cone.at(m)) {
      if (j == s.self && m == s.time) continue;  // the action being computed
      if (s.inferred.get(j, m) != KnownAction::unknown) continue;
      node_cone.assign(s.graph, j, m);
      EBA_REQUIRE(s.graph.pref(j) != PrefLabel::unknown,
                  "reachable node with unknown own preference");
      const Value init_j =
          s.graph.pref(j) == PrefLabel::zero ? Value::zero : Value::one;
      const bool decided_before = s.inferred.decided_by(j, m - 1);
      const Action a = decide(s.graph, j, m, node_cone, evidence, init_j,
                              decided_before, t_, s.inferred, use_common_);
      s.inferred.set(j, m, to_known(a));
    }
  }
}

Action POptGo::operator()(const FipState& s) const {
  EBA_REQUIRE(s.graph.n() == n_, "state from a different system");
  infer_actions(s);
  const auto evidence = s.knowledge.go_evidence_table(s.graph);
  return decide(s.graph, s.self, s.time,
                s.knowledge.cone(s.graph, s.self, s.time), evidence, s.init,
                s.decided.has_value(), t_, s.inferred, use_common_);
}

int POptGo::evidence_ambiguity(const FipState& s, int t) {
  const OmissionEvidence& e = s.knowledge.go_evidence_row(
      s.graph, s.time)[static_cast<std::size_t>(s.self)];
  return go_possibly_faulty(e, t).minus(go_known_faults(e, t)).size();
}

}  // namespace eba
