// Randomized differential test: the bit-packed CommGraph and its
// word-parallel knowledge operators against the retained byte-per-label
// reference implementation (tests/reference_graph.hpp).
//
// Both implementations are driven through the same label-level API calls —
// advance_round / merge exactly as FipExchange::update issues them — on
// seeded random failure patterns, then compared on every label, preference,
// hash, cone membership, last_heard, extracted view, and fault-table entry.
// A second part replays P_opt runs and asserts that the incremental
// cached decision path (persistent FipState knowledge cache + inferred
// table) matches a from-scratch recomputation at every (agent, time).
// A third part holds the in-place evaluation of inferred actions d(j, m)
// by P_opt and P_opt_go against the extract_view oracle: the public graph
// tests run on the materialized view G_{j,m} with a fresh cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "graph/knowledge.hpp"
#include "reference_graph.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

using testref::RefCommGraph;
using testref::RefCone;

struct DualRun {
  std::vector<CommGraph> packed;
  std::vector<RefCommGraph> ref;
};

/// Advances both implementations through one FIP round under `alpha`,
/// mirroring FipExchange::update: advance_round with the delivered set, then
/// merge every delivered peer graph (snapshotted before the round).
void step(DualRun& d, const FailurePattern& alpha, int m) {
  const int n = alpha.n();
  const std::vector<CommGraph> packed_before = d.packed;
  const std::vector<RefCommGraph> ref_before = d.ref;
  for (AgentId i = 0; i < n; ++i) {
    AgentSet received;
    for (AgentId j = 0; j < n; ++j)
      if (alpha.delivered(m, j, i)) received.insert(j);
    d.packed[static_cast<std::size_t>(i)].advance_round(i, received);
    d.ref[static_cast<std::size_t>(i)].advance_round(i, received);
    for (AgentId j : received) {
      if (j == i) continue;
      d.packed[static_cast<std::size_t>(i)].merge(
          packed_before[static_cast<std::size_t>(j)]);
      d.ref[static_cast<std::size_t>(i)].merge(
          ref_before[static_cast<std::size_t>(j)]);
    }
  }
}

void expect_graphs_match(const CommGraph& g, const RefCommGraph& r) {
  ASSERT_EQ(g.n(), r.n());
  ASSERT_EQ(g.time(), r.time());
  for (int m = 0; m < g.time(); ++m)
    for (AgentId from = 0; from < g.n(); ++from)
      for (AgentId to = 0; to < g.n(); ++to)
        ASSERT_EQ(g.label(m, from, to), r.label(m, from, to))
            << "label (" << m << ", " << from << ", " << to << ")";
  for (AgentId j = 0; j < g.n(); ++j) ASSERT_EQ(g.pref(j), r.pref(j));
  // The graph rebuilt label-by-label through the mutation API must be equal
  // to — and hash identically to — the incrementally grown packed graph.
  const CommGraph rebuilt = r.to_packed();
  EXPECT_EQ(rebuilt, g);
  EXPECT_EQ(rebuilt.hash(), g.hash());
}

void expect_knowledge_matches(const CommGraph& g, const RefCommGraph& r,
                              AgentId owner) {
  const int top = g.time();
  const Cone cone(g, owner, top);
  const RefCone ref_cone(r, owner, top);
  for (int m = 0; m <= top; ++m)
    ASSERT_EQ(cone.at(m), ref_cone.at(m)) << "cone level " << m;
  for (AgentId j = 0; j < g.n(); ++j)
    ASSERT_EQ(cone.last_heard(j), ref_cone.last_heard(j)) << "agent " << j;

  const auto table = known_faults_table(g);
  const auto ref_table = testref::ref_known_faults_table(r);
  ASSERT_EQ(table.size(), ref_table.size());
  for (std::size_t m = 0; m < table.size(); ++m)
    for (AgentId j = 0; j < g.n(); ++j) {
      ASSERT_EQ(table[m][static_cast<std::size_t>(j)],
                ref_table[m][static_cast<std::size_t>(j)])
          << "f(" << j << ", " << m << ")";
      // Row-only queries must agree with the full table.
      ASSERT_EQ(known_faults(g, j, static_cast<int>(m)),
                table[m][static_cast<std::size_t>(j)]);
    }

  for (int m = 0; m <= top; ++m)
    for (AgentId j = 0; j < g.n(); ++j) {
      if (!cone.contains(j, m)) continue;
      const CommGraph view = extract_view(g, j, m);
      const CommGraph ref_view = testref::ref_extract_view(r, j, m).to_packed();
      ASSERT_EQ(view, ref_view) << "view (" << j << ", " << m << ")";
      ASSERT_EQ(view.hash(), ref_view.hash());
    }
}

TEST(DifferentialGraph, PackedMatchesReferenceOnRandomRuns) {
  Rng rng(20230717);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(6));  // 3..8
    const int t = 1 + static_cast<int>(rng.below(n - 2 > 0 ? n - 2 : 1));
    const int rounds = t + 2;
    const auto alpha = sample_adversary(n, t, rounds, 0.35, rng);
    const auto prefs = sample_preferences(n, rng);

    DualRun d;
    for (AgentId i = 0; i < n; ++i) {
      d.packed.emplace_back(n, i, prefs[static_cast<std::size_t>(i)]);
      d.ref.emplace_back(n, i, prefs[static_cast<std::size_t>(i)]);
    }
    for (int m = 0; m < rounds; ++m) {
      step(d, alpha, m);
      for (AgentId i = 0; i < n; ++i) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " round " +
                     std::to_string(m + 1) + " agent " + std::to_string(i));
        expect_graphs_match(d.packed[static_cast<std::size_t>(i)],
                            d.ref[static_cast<std::size_t>(i)]);
      }
    }
    // Knowledge operators are compared once per agent at the final time (the
    // richest graphs); earlier times are covered via extract_view recursion.
    for (AgentId i = 0; i < n; ++i) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " agent " +
                   std::to_string(i));
      expect_knowledge_matches(d.packed[static_cast<std::size_t>(i)],
                               d.ref[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(DifferentialGraph, CachedDecisionsMatchFromScratchRecomputation) {
  Rng rng(424242);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(4));  // 4..7
    const int t = 1 + static_cast<int>(rng.below(2));
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);

    const FipExchange x(n);
    const POpt p(n, t);
    SimulateOptions opt;
    opt.max_rounds = t + 3;
    const auto run = simulate(x, p, alpha, prefs, t, opt);

    for (int m = 0; m < run.record.rounds; ++m) {
      for (AgentId i = 0; i < n; ++i) {
        // The recorded action came from the incremental path: a knowledge
        // cache and inferred table carried across rounds. Recompute from a
        // pristine state (same graph, cold caches) and compare.
        FipState fresh = run.states[static_cast<std::size_t>(m)]
                                   [static_cast<std::size_t>(i)];
        fresh.inferred = ActionTable{};
        fresh.knowledge = KnowledgeCache{};
        const Action recomputed = p(fresh);
        EXPECT_EQ(recomputed,
                  run.record.actions[static_cast<std::size_t>(m)]
                                    [static_cast<std::size_t>(i)])
            << "trial " << trial << " time " << m << " agent " << i;
      }
    }
  }
}

TEST(DifferentialGraph, StaticTestsAgreeWithCachedOverloads) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 5;
    const int t = 2;
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    const FipExchange x(n);
    const POpt p(n, t);
    SimulateOptions opt;
    opt.max_rounds = t + 2;
    opt.stop_when_all_decided = false;
    const auto run = simulate(x, p, alpha, prefs, t, opt);
    for (AgentId i = 0; i < n; ++i) {
      const FipState& s = run.states.back()[static_cast<std::size_t>(i)];
      p.infer_actions(s);
      KnowledgeCache cache;
      for (Value v : {Value::zero, Value::one}) {
        const bool plain = POpt::common_test(s.graph, i, v, t, s.inferred);
        // Twice through the same cache: cold then memoized.
        EXPECT_EQ(plain, POpt::common_test(s.graph, i, v, t, s.inferred, cache));
        EXPECT_EQ(plain, POpt::common_test(s.graph, i, v, t, s.inferred, cache));
      }
      const bool plain1 = POpt::cond1_test(s.graph, i, s.inferred);
      EXPECT_EQ(plain1, POpt::cond1_test(s.graph, i, s.inferred, cache));
    }
  }
}

// ---------------------------------------------------------------------------
// In-place view evaluation against the extract_view oracle.
// ---------------------------------------------------------------------------

/// The decision rule on a materialized view through the public graph tests,
/// sharing one cache that starts cold per view: the path the protocols took
/// before they evaluated views in place.
using ViewOracle = std::function<Action(const CommGraph& view, AgentId j,
                                        Value init, const ActionTable& known)>;

ViewOracle so_oracle(int t, bool use_common) {
  return [=](const CommGraph& view, AgentId j, Value init,
             const ActionTable& known) {
    KnowledgeCache cache;
    if (use_common) {
      if (POpt::common_test(view, j, Value::zero, t, known, cache))
        return Action::decide(Value::zero);
      if (POpt::common_test(view, j, Value::one, t, known, cache))
        return Action::decide(Value::one);
    }
    if (POpt::cond0_test(view, j, init, known))
      return Action::decide(Value::zero);
    if (POpt::cond1_test(view, j, known, cache))
      return Action::decide(Value::one);
    return Action::noop();
  };
}

ViewOracle go_oracle(int t, bool use_common) {
  return [=](const CommGraph& view, AgentId j, Value init,
             const ActionTable& known) {
    KnowledgeCache cache;
    if (use_common) {
      if (POptGo::go_common_test(view, j, Value::zero, t, known, cache))
        return Action::decide(Value::zero);
      if (POptGo::go_common_test(view, j, Value::one, t, known, cache))
        return Action::decide(Value::one);
    }
    if (POptGo::go_cond0_test(view, j, init, t, known, cache))
      return Action::decide(Value::zero);
    if (POptGo::go_cond1_test(view, j, t, known, cache))
      return Action::decide(Value::one);
    return Action::noop();
  };
}

struct OracleTally {
  std::uint64_t nodes = 0;  ///< (state, node) pairs compared
  /// Inferred nodes (j, m) where some agent k's unclamped row f(k, m-1, G)
  /// differs from f(k, m-1, G_{j,m}) — the nodes the min(m', lh(k)) clamp
  /// decides.
  std::uint64_t clamped = 0;
};

/// Recomputes the state's action from cold caches (which infers d(j, m) in
/// place for every node of its cone) and checks the own action and every
/// inferred entry against the oracle on extract_view(G, j, m). The oracle
/// reads earlier entries of the same table, but nodes are checked in time
/// order, so the first wrong entry fails before any later check uses it.
template <class Protocol>
void expect_in_place_matches_views(const Protocol& p, const FipState& state,
                                   const ViewOracle& oracle,
                                   OracleTally& tally) {
  FipState s = state;
  s.inferred = ActionTable{};
  s.knowledge = KnowledgeCache{};
  const Action own = p(s);
  const CommGraph& g = s.graph;
  KnowledgeCache owner_cache;
  const Cone cone(g, s.self, s.time);
  for (int m = 0; m <= s.time; ++m) {
    for (AgentId j : cone.at(m)) {
      const CommGraph view = extract_view(g, j, m);
      const Value init = view.pref(j) == PrefLabel::zero ? Value::zero
                                                          : Value::one;
      const bool own_node = j == s.self && m == s.time;
      const bool decided = own_node ? s.decided.has_value()
                                    : s.inferred.decided_by(j, m - 1);
      const Action expected =
          decided ? Action::noop() : oracle(view, j, init, s.inferred);
      ++tally.nodes;
      if (own_node) {
        ASSERT_EQ(own, expected) << "own action at time " << m;
        continue;
      }
      ASSERT_EQ(s.inferred.get(j, m), to_known(expected))
          << "d(" << j << ", " << m << ") of agent " << s.self << " at time "
          << s.time;
      if (m < 1) continue;
      KnowledgeCache view_cache;
      const auto view_prev = view_cache.fault_row(view, m - 1);
      const auto g_prev = owner_cache.fault_row(g, m - 1);
      if (!std::equal(view_prev.begin(), view_prev.end(), g_prev.begin()))
        ++tally.clamped;
    }
  }
}

/// Runs every (pattern, preference vector) world to `horizon` rounds and
/// checks every agent state at every time.
template <class Protocol>
void check_worlds(const Protocol& p, int t, int horizon,
                  const std::vector<std::pair<FailurePattern,
                                              std::vector<Value>>>& worlds,
                  const ViewOracle& oracle, OracleTally& tally) {
  const FipExchange x(worlds.front().first.n());
  SimulateOptions opt;
  opt.max_rounds = horizon;
  opt.stop_when_all_decided = false;
  for (const auto& [alpha, prefs] : worlds) {
    const auto run = simulate(x, p, alpha, prefs, t, opt);
    for (const auto& states : run.states)
      for (const FipState& s : states) {
        expect_in_place_matches_views(p, s, oracle, tally);
        if (::testing::Test::HasFatalFailure()) return;
      }
  }
}

std::vector<std::pair<FailurePattern, std::vector<Value>>> canonical_worlds(
    const EnumerationConfig& cfg) {
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  const auto prefs = all_preference_vectors(cfg.n);
  enumerate_canonical_adversaries(
      cfg, [&](const FailurePattern& alpha, std::uint64_t) {
        for (const auto& v : prefs) worlds.emplace_back(alpha, v);
        return true;
      });
  return worlds;
}

struct OracleShape {
  int n;
  int t;
  int rounds;  ///< drops confined to the first `rounds` rounds
  FailureModel model;
  /// Whether some world of the shape has an inferred node whose view row
  /// f(k, m-1) differs from G's. That needs a faulty k that knew a fault at
  /// time m-1 >= 1 yet is last heard in cone(j, m) before m-1: a second
  /// fault dropping to k in round 1 and k dropping toward j in round 2.
  bool clamp_live;
};

class InPlaceViewOracle : public ::testing::TestWithParam<OracleShape> {};

TEST_P(InPlaceViewOracle, InferredActionsMatchExtractedViews) {
  const auto [n, t, rounds, model, clamp_live] = GetParam();
  const EnumerationConfig cfg{.n = n, .t = t, .rounds = rounds, .model = model};
  const auto worlds = canonical_worlds(cfg);
  // States at time t+1 choose the round-(t+2) actions, the last round in
  // which a P_opt agent of these contexts can still be undecided.
  const int horizon = t + 1;
  for (const bool use_common : {true, false}) {
    SCOPED_TRACE(use_common ? "common knowledge on" : "common knowledge off");
    OracleTally tally;
    if (model == FailureModel::sending) {
      const POpt p(n, t, use_common ? POpt::CommonKnowledge::enabled
                                    : POpt::CommonKnowledge::disabled);
      check_worlds(p, t, horizon, worlds, so_oracle(t, use_common), tally);
    } else {
      const POptGo p(n, t, use_common ? POptGo::CommonKnowledge::enabled
                                      : POptGo::CommonKnowledge::disabled);
      check_worlds(p, t, horizon, worlds, go_oracle(t, use_common), tally);
    }
    EXPECT_GT(tally.nodes, 0u);
    // Where the shape allows it, the identity's clamp is live: some
    // inferred node reads a row of G that differs from the same row of its
    // view.
    if (clamp_live) {
      EXPECT_GT(tally.clamped, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, InPlaceViewOracle,
    ::testing::Values(OracleShape{4, 1, 2, FailureModel::sending, false},
                      OracleShape{4, 2, 2, FailureModel::sending, true},
                      OracleShape{4, 1, 1, FailureModel::general, false}),
    [](const ::testing::TestParamInfo<OracleShape>& info) {
      std::string name =
          info.param.model == FailureModel::sending ? "SO_n" : "GO_n";
      name += std::to_string(info.param.n);
      name += "t";
      name += std::to_string(info.param.t);
      name += "r";
      name += std::to_string(info.param.rounds);
      return name;
    });

/// The hidden 0-chain of the wire mix: agents 0..t-1 are faulty and agent k
/// delivers only to k+1, in round k+1.
FailurePattern hidden_chain(int n, int t, int horizon) {
  AgentSet faulty;
  for (AgentId k = 0; k < t; ++k) faulty.insert(k);
  FailurePattern p(n, faulty.complement(n));
  for (AgentId k = 0; k < t; ++k)
    for (int m = 0; m < horizon; ++m)
      for (AgentId to = 0; to < n; ++to)
        if (to != k && !(m == k && to == k + 1)) p.drop(m, k, to);
  return p;
}

// A seeded sample of the n = 16, t = 4 wire mix: failure-free, sampled
// sending omissions, silent agents with unanimous preference 1, and the
// hidden 0-chain with init_0 = 0.
TEST(InPlaceViewOracleWire, SampledWireMixAtN16) {
  constexpr int n = 16;
  constexpr int t = 4;
  Rng rng(1602);
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  const std::vector<Value> ones(n, Value::one);
  std::vector<Value> one_zero = ones;
  one_zero[0] = Value::zero;
  worlds.emplace_back(FailurePattern::failure_free(n),
                      sample_preferences(n, rng));
  worlds.emplace_back(sample_adversary(n, t, t + 2, 0.3, rng),
                      sample_preferences(n, rng));
  AgentSet silent;
  while (silent.size() < t) silent.insert(static_cast<AgentId>(rng.below(n)));
  worlds.emplace_back(silent_agents_pattern(n, silent, t + 3), ones);
  worlds.emplace_back(hidden_chain(n, t, t + 3), one_zero);
  for (const bool use_common : {true, false}) {
    SCOPED_TRACE(use_common ? "common knowledge on" : "common knowledge off");
    const POpt p(n, t, use_common ? POpt::CommonKnowledge::enabled
                                  : POpt::CommonKnowledge::disabled);
    OracleTally tally;
    check_worlds(p, t, t + 3, worlds, so_oracle(t, use_common), tally);
    EXPECT_GT(tally.nodes, 0u);
    EXPECT_GT(tally.clamped, 0u);
  }
}

/// f and GO evidence rows of every view G_{j,m} of `s` equal the rows of G
/// that view_row selects, for every agent k and time m' <= m. Returns the
/// number of (view, k, m') entries where the unclamped row m' of G differs.
std::uint64_t expect_view_rows_identity(const FipState& s) {
  std::uint64_t differing = 0;
  const CommGraph& g = s.graph;
  const auto n = static_cast<std::size_t>(g.n());
  KnowledgeCache cache;
  const auto faults = cache.fault_table(g);
  const auto evidence = cache.go_evidence_table(g);
  const Cone owner(g, s.self, s.time);
  for (int m = 0; m <= s.time; ++m) {
    for (AgentId j : owner.at(m)) {
      const CommGraph view = extract_view(g, j, m);
      const Cone cone(g, j, m);
      const auto view_faults = known_faults_table(view);
      const auto view_evidence = go_evidence_table(view);
      for (int m2 = 0; m2 <= m; ++m2)
        for (AgentId k = 0; k < g.n(); ++k) {
          const std::size_t at =
              static_cast<std::size_t>(view_row(cone, k, m2)) * n +
              static_cast<std::size_t>(k);
          const auto mm = static_cast<std::size_t>(m2);
          const auto kk = static_cast<std::size_t>(k);
          EXPECT_EQ(view_faults[mm][kk], faults[at])
              << "f(" << k << ", " << m2 << ") in view (" << j << ", " << m
              << ")";
          EXPECT_EQ(view_evidence[mm][kk], evidence[at])
              << "evidence(" << k << ", " << m2 << ") in view (" << j << ", "
              << m << ")";
          if (view_faults[mm][kk] != faults[mm * n + kk]) ++differing;
        }
    }
  }
  return differing;
}

TEST(InPlaceViewIdentity, ViewRowsAreClampedOwnerRows) {
  Rng rng(90210);
  std::uint64_t differing = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(5));  // 4..8
    const int t = 1 + static_cast<int>(rng.below(2));
    const bool go = trial % 2 == 1;
    const auto alpha = go ? sample_go_adversary(n, t, t + 2, 0.35, 0.35, rng)
                          : sample_adversary(n, t, t + 2, 0.35, rng);
    const auto prefs = sample_preferences(n, rng);
    SimulateOptions opt;
    opt.max_rounds = t + 3;
    opt.stop_when_all_decided = false;
    const auto run = go ? simulate(FipExchange(n), POptGo(n, t), alpha, prefs,
                                   t, opt)
                        : simulate(FipExchange(n), POpt(n, t), alpha, prefs,
                                   t, opt);
    for (const FipState& s : run.states.back())
      differing += expect_view_rows_identity(s);
  }
  EXPECT_GT(differing, 0u) << "no sampled view exercises the clamp";
}

}  // namespace
}  // namespace eba
