// KbpSynthesizer scaling tests: (a) the optimizations are invisible —
// synthesis produces bit-identical decision tables and per-world decisions
// with and without world dedup, class/component memoization, and
// parallelism; (b) the optimized synthesizer re-derives the paper's
// protocols at n = 5 (Thm 6.5/6.6 beyond the seed's n <= 4 ceiling) and in
// a γ_fip context at n = 4; (c) the hash-once class grouping behind every
// round partitions states exactly, even when every hash collides; (d) the
// synthesized table, run as an action protocol by simulate(), replays every
// world: the synthesizer reaches exactly the states the Stepper reaches.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "failure/generators.hpp"
#include "kripke/canonical_worlds.hpp"
#include "kripke/synthesis.hpp"

namespace eba {
namespace {

std::vector<std::pair<FailurePattern, std::vector<Value>>> all_worlds(
    const EnumerationConfig& cfg) {
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  const auto prefs = all_preference_vectors(cfg.n);
  enumerate_adversaries(cfg, [&](const FailurePattern& alpha) {
    for (const auto& p : prefs) worlds.emplace_back(alpha, p);
    return true;
  });
  return worlds;
}

/// The option grid: baseline (everything off), each lever alone, all
/// levers, and all levers with oversubscribed parallelism (4 threads even
/// on a 1-core box exercises the pool paths).
std::vector<std::pair<std::string, SynthesisOptions>> option_grid() {
  return {
      {"baseline", {.dedup_worlds = false, .memoize = false, .workers = 1}},
      {"dedup", {.dedup_worlds = true, .memoize = false, .workers = 1}},
      {"memoize", {.dedup_worlds = false, .memoize = true, .workers = 1}},
      {"dedup+memoize", {.dedup_worlds = true, .memoize = true, .workers = 1}},
      {"all+parallel", {.dedup_worlds = true, .memoize = true, .workers = 4}},
      {"parallel-no-memo",
       {.dedup_worlds = false, .memoize = false, .workers = 4}},
      {"dedup+parallel-no-memo",
       {.dedup_worlds = true, .memoize = false, .workers = 4}},
  };
}

template <class X>
void expect_invariant_under_options(X x, int t, KbpProgram program,
                                    const EnumerationConfig& cfg,
                                    int horizon) {
  const auto worlds = all_worlds(cfg);
  KbpSynthesizer<X> baseline_synth(
      x, t, program, {.dedup_worlds = false, .memoize = false, .workers = 1});
  const auto baseline = baseline_synth.run(worlds, horizon);
  EXPECT_EQ(baseline.stats.evaluated_rounds, baseline.stats.world_rounds)
      << "baseline must evaluate every world every round";
  for (const auto& [name, opt] : option_grid()) {
    KbpSynthesizer<X> synth(x, t, program, opt);
    const auto result = synth.run(worlds, horizon);
    EXPECT_EQ(result.table, baseline.table) << name;
    ASSERT_EQ(result.decisions.size(), baseline.decisions.size()) << name;
    for (std::size_t w = 0; w < worlds.size(); ++w) {
      for (AgentId i = 0; i < x.n(); ++i) {
        const auto& got = result.decisions[w][static_cast<std::size_t>(i)];
        const auto& want = baseline.decisions[w][static_cast<std::size_t>(i)];
        ASSERT_EQ(got.has_value(), want.has_value())
            << name << " world " << w << " agent " << i;
        if (want) {
          EXPECT_EQ(got->value, want->value) << name << " world " << w;
          EXPECT_EQ(got->round, want->round) << name << " world " << w;
        }
      }
    }
    if (opt.dedup_worlds) {
      EXPECT_LT(result.stats.evaluated_rounds, result.stats.world_rounds)
          << name << ": dedup found no duplicate joint signatures";
    }
  }
}

// group_equal_states (the grouping inside build_classes) over the FIP states
// of the γ_fip(4, 1) context at times 0..3: with the real hashes, and with
// one hash for every state — so every lookup walks a single chain of all
// classes and only operator== separates them — the partition and its
// first-occurrence numbering equal a reference unordered_map grouping.
TEST(SynthesisClasses, GroupingMatchesReferenceUnderCollisions) {
  const int n = 4;
  const int t = 1;
  const int horizon = 3;
  SimulateOptions opt;
  opt.max_rounds = horizon;
  opt.stop_when_all_decided = false;
  std::vector<std::vector<FipState>> at_time(horizon + 1);
  for (const auto& [alpha, prefs] : all_worlds({.n = n, .t = t, .rounds = 2})) {
    const auto run = simulate(FipExchange(n), POpt(n, t), alpha, prefs, t, opt);
    ASSERT_EQ(run.states.size(), at_time.size());
    for (int m = 0; m <= horizon; ++m)
      for (const FipState& s : run.states[static_cast<std::size_t>(m)])
        at_time[static_cast<std::size_t>(m)].push_back(s);
  }
  for (int m = 0; m <= horizon; ++m) {
    const std::vector<FipState>& states = at_time[static_cast<std::size_t>(m)];
    std::unordered_map<FipState, int> ids;
    std::vector<int> want;
    for (const FipState& s : states)
      want.push_back(
          ids.try_emplace(s, static_cast<int>(ids.size())).first->second);
    std::vector<std::size_t> real;
    for (const FipState& s : states) real.push_back(std::hash<FipState>{}(s));
    std::vector<std::size_t> colliding(states.size(), real.front());
    auto state_at = [&](std::size_t k) -> const FipState& { return states[k]; };
    for (const auto* hashes : {&real, &colliding}) {
      std::vector<int> got(states.size(), -1);
      EXPECT_EQ(group_equal_states(*hashes, state_at, got),
                static_cast<int>(ids.size()))
          << "time " << m;
      EXPECT_EQ(got, want) << "time " << m;
    }
    EXPECT_GT(ids.size(), 1u) << "time " << m;
    EXPECT_LT(ids.size(), states.size()) << "time " << m;
  }
}

TEST(SynthesisOptions, P0MinContextInvariant) {
  expect_invariant_under_options(MinExchange(3), 1, KbpProgram::p0,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

TEST(SynthesisOptions, P0BasicContextInvariant) {
  expect_invariant_under_options(BasicExchange(3), 1, KbpProgram::p0,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

TEST(SynthesisOptions, P1MinContextInvariant) {
  expect_invariant_under_options(MinExchange(3), 1, KbpProgram::p1,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

TEST(SynthesisOptions, P1FipContextInvariant) {
  expect_invariant_under_options(FipExchange(3), 1, KbpProgram::p1,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

// Component memoization must slash the number of C_N traversals, not just
// match results: in the γ_fip n=3 context the baseline runs one BFS per
// (world, peer) test, the memoized path one per component.
TEST(SynthesisOptions, MemoizationCollapsesBfsCount) {
  const auto worlds = all_worlds({.n = 3, .t = 1, .rounds = 2});
  KbpSynthesizer<FipExchange> baseline(
      FipExchange(3), 1, KbpProgram::p1,
      {.dedup_worlds = false, .memoize = false, .workers = 1});
  KbpSynthesizer<FipExchange> memoized(
      FipExchange(3), 1, KbpProgram::p1,
      {.dedup_worlds = true, .memoize = true, .workers = 1});
  const auto slow = baseline.run(worlds, 4);
  const auto fast = memoized.run(worlds, 4);
  EXPECT_GT(slow.stats.common_bfs, 10 * fast.stats.common_bfs);
}

// Thm 6.5 at n = 5: synthesis from P0 over the full γ_min(5, 1) context
// (1281 adversaries × 32 preference vectors = 40992 worlds) re-derives
// exactly P_min on every reachable local state.
TEST(SynthesisScale, P0MinContextYieldsPMinAtN5) {
  const int n = 5;
  const int t = 1;
  const auto worlds = all_worlds({.n = n, .t = t, .rounds = 2});
  ASSERT_EQ(worlds.size(), 40992u);
  KbpSynthesizer<MinExchange> synth(MinExchange(n), t, KbpProgram::p0);
  const auto result = synth.run(worlds, 4);
  const PMin pmin(n, t);
  EXPECT_GT(result.table.size(), 10u);
  for (const auto& [state, action] : result.table)
    EXPECT_EQ(action, pmin(state))
        << "state time=" << state.time << " init=" << to_string(state.init)
        << " jd=" << to_string(state.jd);
  EXPECT_LT(result.stats.evaluated_rounds, result.stats.world_rounds / 50)
      << "dedup should collapse the n=5 context by orders of magnitude";
}

// Thm 6.6 at n = 5: synthesis from P0 over γ_basic(5, 1) re-derives P_basic.
TEST(SynthesisScale, P0BasicContextYieldsPBasicAtN5) {
  const int n = 5;
  const int t = 1;
  const auto worlds = all_worlds({.n = n, .t = t, .rounds = 2});
  KbpSynthesizer<BasicExchange> synth(BasicExchange(n), t, KbpProgram::p0);
  const auto result = synth.run(worlds, 4);
  const PBasic pbasic(n, t);
  EXPECT_GT(result.table.size(), 10u);
  for (const auto& [state, action] : result.table)
    EXPECT_EQ(action, pbasic(state))
        << "state time=" << state.time << " init=" << to_string(state.init)
        << " jd=" << to_string(state.jd) << " #1=" << state.ones;
}

// γ_fip beyond n = 3: P1 synthesized over the full-information context
// (n = 4, drops through round t+1 = 2 so the partial system is
// epistemically adequate wherever decisions happen) reproduces P_opt's runs
// decision-for-decision.
TEST(SynthesisScale, P1FipContextMatchesPOptAtN4) {
  const int n = 4;
  const int t = 1;
  const auto worlds = all_worlds({.n = n, .t = t, .rounds = 2});
  ASSERT_EQ(worlds.size(), 4112u);
  KbpSynthesizer<FipExchange> synth(FipExchange(n), t, KbpProgram::p1);
  const auto result = synth.run(worlds, 4);
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    SimulateOptions opt;
    opt.max_rounds = 4;
    opt.stop_when_all_decided = false;
    const auto run = simulate(FipExchange(n), POpt(n, t), worlds[w].first,
                              worlds[w].second, t, opt);
    for (AgentId i = 0; i < n; ++i) {
      const auto expected = run.record.decision(i);
      const auto& got = result.decisions[w][static_cast<std::size_t>(i)];
      ASSERT_EQ(got.has_value(), expected.has_value()) << "world " << w;
      if (expected) {
        EXPECT_EQ(got->value, expected->value) << "world " << w;
        EXPECT_EQ(got->round, expected->round) << "world " << w;
      }
    }
  }
}

/// A synthesized table run as an action protocol. A state the table does
/// not know is counted and answered with noop.
template <class X>
struct TableProtocol {
  const std::unordered_map<typename X::State, Action>* table;
  std::size_t* misses;

  Action operator()(const typename X::State& s) const {
    const auto it = table->find(s);
    if (it != table->end()) return it->second;
    ++*misses;
    return Action::noop();
  }
};

/// Synthesizes `program` over the canonical n = 3, t = 1 context (plain, or
/// with orbit reuse), then replays every world with simulate() to the same
/// horizon, the table choosing every action: every lookup must hit and every
/// decision must equal the synthesizer's.
template <class X>
void expect_table_replays(X x, KbpProgram program, bool orbit_reuse) {
  const int t = 1;
  const int horizon = 4;
  const CanonicalContext ctx =
      canonical_context_worlds({.n = x.n(), .t = t, .rounds = 2});
  KbpSynthesizer<X> synth(x, t, program);
  const auto result =
      orbit_reuse ? synth.run(ctx.worlds, horizon, ctx.orbits)
                  : synth.run(ctx.worlds, horizon);
  std::size_t misses = 0;
  const TableProtocol<X> table{&result.table, &misses};
  for (std::size_t w = 0; w < ctx.worlds.size(); ++w) {
    const auto run =
        simulate(x, table, ctx.worlds[w].first, ctx.worlds[w].second, t,
                 {.max_rounds = horizon, .stop_when_all_decided = false});
    ASSERT_EQ(misses, 0u) << "world " << w << " reached an unsynthesized state";
    for (AgentId i = 0; i < x.n(); ++i)
      ASSERT_EQ(run.record.decision(i),
                result.decisions[w][static_cast<std::size_t>(i)])
          << "world " << w << " agent " << i;
  }
}

struct ReplayCase {
  const char* name;
  KbpProgram program;
  bool orbit_reuse;

  friend void PrintTo(const ReplayCase& c, std::ostream* os) { *os << c.name; }
};

class SynthesisReplay : public testing::TestWithParam<ReplayCase> {};

TEST_P(SynthesisReplay, TableReplaysEveryWorld) {
  const ReplayCase& c = GetParam();
  const int n = 3;
  if (c.program == KbpProgram::p1) {
    expect_table_replays(FipExchange(n), c.program, c.orbit_reuse);
  } else {
    expect_table_replays(MinExchange(n), c.program, c.orbit_reuse);
    expect_table_replays(BasicExchange(n), c.program, c.orbit_reuse);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Contexts, SynthesisReplay,
    testing::Values(ReplayCase{"P0MinBasic", KbpProgram::p0, false},
                    ReplayCase{"P0MinBasicOrbits", KbpProgram::p0, true},
                    ReplayCase{"P1Fip", KbpProgram::p1, false},
                    ReplayCase{"P1FipOrbits", KbpProgram::p1, true}),
    [](const testing::TestParamInfo<ReplayCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace eba
