// Knowledge operators over communication graphs (paper §A.2.7):
//
//   cone         — the hears-from cone of a node (Def. A.1)
//   extract_view — G_{j,m'}: the graph agent j had at time m', reconstructed
//                  from the graph of an agent that heard from (j, m') (the
//                  test oracle; protocols read views in place, see view_row)
//   known_faults — f(j, m', G): faulty agents the graph owner knows that j
//                  knew about at time m' (sending-omissions attribution: an
//                  absent edge convicts its sender)
//   distributed_faults — D(S, m', G)
//   known_values — V(j, m', G): initial values the owner knows j knew
//                  (knows_value: the allocation-free membership query)
//   last_heard   — last_{ij}: the last time m' with (j, m') in the cone
//
// plus the general-omissions fault machinery: under GO an absent edge
// (i → j) only proves "i or j is faulty", so fault knowledge is clause
// (vertex-cover) reasoning instead of direct sender blame:
//
//   OmissionEvidence   — the symmetric missing-edge clause set an agent has
//                        accumulated (one clause {sender, receiver} per
//                        definite-absent edge it knows of)
//   go_evidence / go_evidence_rows — the GO analogue of the f recurrence:
//                        the clause set the owner knows j had at time m'
//   go_cover_exists    — is the evidence explainable by <= budget faults
//                        avoiding a given agent set?
//   go_known_faults    — agents in *every* <= t cover of the evidence (the
//                        faults an agent provably knows under GO(t))
//
// All of these are polynomial-time in the size of the graph for fixed t
// (the cover search branches two ways per spent budget unit, so it costs
// O(2^t · n) word operations per query); they are the machinery behind the
// polynomial-time protocols P_opt (Prop. 7.9) and its GO variant. They
// consume the graph's packed receiver rows word-parallel: a cone frontier
// step is one OR per frontier member and a fault-row or evidence-row update
// one OR per definite-absent row.
//
// KnowledgeCache memoizes cones, the fault table and the GO evidence table
// per graph *revision*, so the P_opt tests — which interrogate the same
// graph several times per round — rebuild derived knowledge only when the
// graph actually changes.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "graph/comm_graph.hpp"

namespace eba {

/// The hears-from cone of (target, m_top): cone.at(m') is the set of agents j
/// with (j, m') ->_r (target, m_top), where the relation follows label-1
/// edges forward in time. Contains (target, m_top) itself.
///
/// Built by backward frontier propagation: the frontier at time m'-1 is the
/// union of the present-sender rows of the frontier members at m', one word
/// OR per member. last_{ij} is precomputed for all j during construction.
///
/// In graphs built by advance_round and merge every self-loop is present,
/// so each agent's nodes in the cone form a prefix: j ∈ at(m') iff m' <=
/// last_heard(j).
class Cone {
 public:
  /// An empty cone (top() == -1) whose storage assign() can reuse.
  Cone() = default;
  Cone(const CommGraph& g, AgentId target, int m_top) {
    assign(g, target, m_top);
  }

  /// Rebuilds this cone as the cone of (target, m_top) in g, reusing its
  /// storage: a loop over many nodes allocates only when a cone outgrows
  /// every earlier one.
  void assign(const CommGraph& g, AgentId target, int m_top);

  [[nodiscard]] bool contains(AgentId j, int m) const {
    return m >= 0 && m <= m_top_ && members_[static_cast<std::size_t>(m)].contains(j);
  }
  [[nodiscard]] AgentSet at(int m) const {
    EBA_REQUIRE(m >= 0 && m <= m_top_, "time out of range");
    return members_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] int top() const { return m_top_; }

  /// last_{ij}: the greatest m with (j, m) in the cone, or -1 if j was never
  /// heard from. O(1): precomputed during construction.
  [[nodiscard]] int last_heard(AgentId j) const {
    EBA_REQUIRE(j >= 0 && static_cast<std::size_t>(j) < last_heard_.size(),
                "agent id out of range");
    return last_heard_[static_cast<std::size_t>(j)];
  }

 private:
  int m_top_ = -1;
  std::vector<AgentSet> members_;  ///< by time 0..m_top
  std::vector<int> last_heard_;    ///< by agent, -1 if absent everywhere
};

/// Symmetric missing-edge evidence under general omissions: one clause
/// {a, b} per definite-absent edge (a → b) the evidence holder knows of,
/// stored as an adjacency mask per agent (adj(a) contains b iff some clause
/// pairs them). The round of the missing edge is deliberately dropped: a
/// fault set explains the evidence iff it covers every clause, regardless
/// of when the drop happened.
class OmissionEvidence {
 public:
  OmissionEvidence() = default;
  explicit OmissionEvidence(int n)
      : adj_(static_cast<std::size_t>(n)) {}

  [[nodiscard]] int n() const { return static_cast<int>(adj_.size()); }
  [[nodiscard]] AgentSet adj(AgentId a) const {
    return adj_[static_cast<std::size_t>(a)];
  }
  /// Agents appearing in at least one clause.
  [[nodiscard]] AgentSet implicated() const {
    AgentSet out;
    for (AgentId a = 0; a < n(); ++a)
      if (!adj_[static_cast<std::size_t>(a)].empty()) out.insert(a);
    return out;
  }
  [[nodiscard]] bool empty() const { return implicated().empty(); }

  void add(AgentId a, AgentId b) {
    adj_[static_cast<std::size_t>(a)].insert(b);
    adj_[static_cast<std::size_t>(b)].insert(a);
  }
  /// Adds the clause {s, receiver} for every s in `senders`.
  void add_senders(AgentSet senders, AgentId receiver) {
    adj_[static_cast<std::size_t>(receiver)] =
        adj_[static_cast<std::size_t>(receiver)].united(senders);
    for (AgentId s : senders) adj_[static_cast<std::size_t>(s)].insert(receiver);
  }
  void unite(const OmissionEvidence& o) {
    for (std::size_t a = 0; a < adj_.size(); ++a)
      adj_[a] = adj_[a].united(o.adj_[a]);
  }

  friend bool operator==(const OmissionEvidence&,
                         const OmissionEvidence&) = default;

 private:
  std::vector<AgentSet> adj_;
};

/// True iff some fault set S with |S| <= budget and S ∩ avoid = ∅ covers
/// every clause of `e` (every missing edge has an endpoint in S). Branches
/// two ways per budget unit: O(2^budget · n) word operations.
[[nodiscard]] bool go_cover_exists(const OmissionEvidence& e, int budget,
                                   AgentSet avoid);

/// The agents contained in EVERY fault set of size <= t that covers `e` —
/// exactly the agents the evidence holder knows to be faulty under GO(t).
/// Precondition: some <= t cover exists (true for evidence drawn from any
/// run of a GO(t) pattern); violating it throws.
[[nodiscard]] AgentSet go_known_faults(const OmissionEvidence& e, int t);

/// The agents contained in SOME fault set of size <= t that covers `e`.
/// The complement is the set of agents the evidence holder knows to be
/// NONFAULTY — nonempty only once the evidence pins faults down (with
/// slack in the budget, any agent might be an additional silent fault).
[[nodiscard]] AgentSet go_possibly_faulty(const OmissionEvidence& e, int t);

/// The GO analogue of the f recurrence: the clause set the owner of g knows
/// agent j had at time m. go_evidence(g, j, 0) is empty; for m > 0 it is
/// the union of j's definite-absent round-m clauses, the evidence of the
/// senders whose round-m messages to j are known delivered, and
/// go_evidence(g, j, m-1). Computes rows 0..m only.
[[nodiscard]] OmissionEvidence go_evidence(const CommGraph& g, AgentId j,
                                           int m);

/// The full evidence table: entry [m][j] = go_evidence(g, j, m).
[[nodiscard]] std::vector<std::vector<OmissionEvidence>> go_evidence_table(
    const CommGraph& g);

/// Revision-keyed memo of the derived knowledge of ONE graph: the f table,
/// the GO evidence table and the last cone requested. Methods take the
/// graph so the cache can detect staleness via CommGraph::revision() and
/// rebuild lazily; a cache must only ever be used with the graph it lives
/// next to (FipState owns one per agent graph).
///
/// Copies start empty: the simulator snapshots agent states every round, and
/// duplicating memoized cones into history would cost more than recomputing
/// the rare entries a copy ever asks for. Moves keep their contents.
class KnowledgeCache {
 public:
  KnowledgeCache() = default;
  KnowledgeCache(const KnowledgeCache&) {}
  KnowledgeCache& operator=(const KnowledgeCache&) {
    graph_ = nullptr;
    have_faults_ = false;
    faults_.clear();
    have_go_evidence_ = false;
    go_evidence_.clear();
    cone_target_ = -1;
    return *this;
  }
  KnowledgeCache(KnowledgeCache&&) = default;
  KnowledgeCache& operator=(KnowledgeCache&&) = default;

  /// The whole f table of `g`: (g.time()+1) rows of n, row-major, entry
  /// [m * n + j] = f(j, m, g). Computed at most once per graph revision,
  /// flat in one allocation.
  [[nodiscard]] std::span<const AgentSet> fault_table(const CommGraph& g);

  /// Row m of the f table of `g` (entry [j] = f(j, m, g)).
  [[nodiscard]] std::span<const AgentSet> fault_row(const CommGraph& g, int m);

  /// The whole GO evidence table of `g`, laid out like fault_table: entry
  /// [m * n + j] = go_evidence(g, j, m). Computed at most once per graph
  /// revision.
  [[nodiscard]] std::span<const OmissionEvidence> go_evidence_table(
      const CommGraph& g);

  /// Row m of the GO evidence table of `g` (entry [j] = go_evidence(g, j,
  /// m)).
  [[nodiscard]] std::span<const OmissionEvidence> go_evidence_row(
      const CommGraph& g, int m);

  /// The cone of (target, m_top) in `g`, memoized until the graph changes.
  /// One slot: the P_opt tests only ever interrogate (self, time), so a
  /// request for another (target, m_top) rebuilds the slot in place and
  /// invalidates any reference returned earlier. The slot's storage is
  /// reused across graph revisions.
  [[nodiscard]] const Cone& cone(const CommGraph& g, AgentId target, int m_top);

 private:
  void sync(const CommGraph& g);

  /// Graph identity + revision at the last sync. The address is only ever
  /// compared, never dereferenced, so a cache outliving its graph is safe
  /// (it just invalidates). Distinct graphs routinely share revision values
  /// (agents mutate in lockstep), so the address check is what catches a
  /// cache handed a different graph than the one it memoized.
  const CommGraph* graph_ = nullptr;
  std::uint64_t revision_ = 0;
  bool have_faults_ = false;
  std::vector<AgentSet> faults_;  ///< (time+1) rows of n, row-major
  bool have_go_evidence_ = false;
  std::vector<OmissionEvidence> go_evidence_;  ///< (time+1) rows of n
  /// The memoized cone, valid per cone_target_. Boxed so that the many
  /// cache-carrying state copies a run or a synthesis keeps stay small.
  std::unique_ptr<Cone> cone_;
  AgentId cone_target_ = -1;  ///< target of *cone_ at this revision, or -1
};

/// Reconstructs G_{j,m'} from `g`. Precondition: (j, m') is in the cone of
/// g's owner (i.e. `owner_cone.contains(j, m')`), so every edge into the
/// extracted cone carries a definite label in `g`.
///
/// The action protocols never build views: they evaluate G_{j,m'} in place
/// on `g` (see view_row). extract_view is the oracle the tests hold that
/// in-place evaluation against.
[[nodiscard]] CommGraph extract_view(const CommGraph& g, AgentId j, int m);

/// In-place view identity. For (j, m) in the owner's cone, G_{j,m} is g
/// restricted to cone(j, m): receiver rows of cone nodes are copied, every
/// other row is blank. Every agent's self-loop is present, so k's nodes in
/// cone(j, m) are exactly (k, 0..lh(k)) with lh(k) = cone.last_heard(k).
/// Hence, by induction on m2, the f recurrence (and its GO evidence twin)
/// agrees on the view and on g up to lh(k) and is flat above it:
///
///   f(k, m2, G_{j,m}) = f(k, min(m2, lh(k)), g),   and = ∅ if lh(k) = -1.
///
/// Row 0 of either table is always empty, so both cases read row
/// max(0, min(m2, lh(k))) of g's table — the value returned here, with
/// `cone` = cone(j, m) in g.
[[nodiscard]] inline int view_row(const Cone& cone, AgentId k, int m2) {
  return std::max(0, std::min(m2, cone.last_heard(k)));
}

/// f(j, m, g): the faulty agents the owner of g knows that j knew about at
/// time m (paper §7). f(j, 0, g) is empty; for m > 0 it is the union of the
/// senders whose round-m messages to j are known omitted, the knowledge of
/// the senders whose round-m messages to j are known delivered, and
/// f(j, m-1, g). Computes only rows 0..m, not the full table.
[[nodiscard]] AgentSet known_faults(const CommGraph& g, AgentId j, int m);

/// The full f table: entry [m][j] = f(j, m, g), for m in 0..g.time().
[[nodiscard]] std::vector<std::vector<AgentSet>> known_faults_table(
    const CommGraph& g);

/// D(S, m, g) = union over k in S of f(k, m, g). Computes rows 0..m only.
[[nodiscard]] AgentSet distributed_faults(const CommGraph& g, AgentSet s, int m);

/// The time-0 level of the cone of (j, m): the agents whose initial values
/// reached (j, m). A plain backward frontier walk — no cone object, no
/// allocations — for callers that only need the roots (known_values).
[[nodiscard]] AgentSet cone_roots(const CommGraph& g, AgentId j, int m);

/// V(j, m, g): the set of initial values the owner knows j knew at time m.
/// Per the paper this is empty unless (j, m) is in the owner's cone; the
/// caller supplies the owner's cone to enforce that.
[[nodiscard]] std::vector<Value> known_values(const CommGraph& g, AgentId j,
                                              int m, const Cone& owner_cone);

/// v ∈ V(j, m, g), without materializing V: one cone_roots walk and a mask
/// test, no allocation.
[[nodiscard]] bool knows_value(const CommGraph& g, AgentId j, int m,
                               const Cone& owner_cone, Value v);

}  // namespace eba
