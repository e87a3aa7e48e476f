// Equivalence suite for the instance-oriented run engine.
//
// The refactor's correctness oracle is RunRecord equality: the in-place
// Stepper behind simulate(), the opt-in trace-sink materialization, the
// single-instance run_cluster wrapper, the legacy thread-per-agent cluster,
// and the many-instance worker-pool workload must all reproduce the seed
// simulator's semantics (tests/reference_simulator.hpp, kept verbatim)
// for seeded (pattern, preferences) sweeps across P_min / P_basic / P_opt —
// including the early-decide and max_rounds-truncation edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "net/cluster.hpp"
#include "net/workload.hpp"
#include "reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

void expect_records_equal(const RunRecord& got, const RunRecord& want,
                          const std::string& what) {
  EXPECT_EQ(got.n, want.n) << what;
  EXPECT_EQ(got.t, want.t) << what;
  ASSERT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.inits, want.inits) << what;
  EXPECT_EQ(got.nonfaulty, want.nonfaulty) << what;
  EXPECT_EQ(got.actions, want.actions) << what;
  EXPECT_EQ(got.sent, want.sent) << what;
  EXPECT_EQ(got.delivered, want.delivered) << what;
}

template <class X, class P>
void expect_engine_matches_reference(const X& x, const P& p,
                                     const FailurePattern& alpha,
                                     const std::vector<Value>& inits, int t,
                                     const SimulateOptions& opt,
                                     const std::string& what) {
  const auto want = testing::reference_simulate(x, p, alpha, inits, t, opt);

  // simulate(): Stepper + MaterializingSink, byte-compatible Run<X>.
  const auto got = simulate(x, p, alpha, inits, t, opt);
  expect_records_equal(got.record, want.record, what + " [simulate]");
  EXPECT_EQ(got.bits_sent, want.bits_sent) << what;
  EXPECT_EQ(got.messages_sent, want.messages_sent) << what;
  ASSERT_EQ(got.states.size(), want.states.size()) << what;
  for (std::size_t m = 0; m < want.states.size(); ++m)
    EXPECT_EQ(got.states[m], want.states[m]) << what << " states at time " << m;

  // A bare Stepper (no sink): identical record, identical final states.
  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;
  sopt.stop_when_all_decided = opt.stop_when_all_decided;
  Stepper<X, P> stepper(x, p, alpha, inits, t, sopt);
  while (stepper.step()) {
  }
  EXPECT_EQ(stepper.bits_sent(), want.bits_sent) << what;
  EXPECT_EQ(stepper.messages_sent(), want.messages_sent) << what;
  expect_records_equal(stepper.record(), want.record, what + " [stepper]");
  EXPECT_EQ(stepper.states(), want.states.back()) << what << " final states";
}

template <class MakeX, class MakeP>
void sweep_protocol(MakeX make_x, MakeP make_p, int n, int t,
                    std::uint64_t seed, int iterations,
                    const std::string& name) {
  const auto x = make_x(n);
  const auto p = make_p(n, t);
  Rng rng(seed);
  for (int k = 0; k < iterations; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    const std::string what = name + " seed=" + std::to_string(seed) +
                             " iter=" + std::to_string(k);
    // Default early-stopping semantics.
    expect_engine_matches_reference(x, p, alpha, prefs, t, SimulateOptions{},
                                    what);
    // max_rounds truncation: a horizon so short runs are cut mid-protocol.
    SimulateOptions truncated;
    truncated.max_rounds = 2;
    expect_engine_matches_reference(x, p, alpha, prefs, t, truncated,
                                    what + " truncated");
    // No early stop: the run must cover the whole horizon even after
    // every agent decided.
    SimulateOptions full;
    full.max_rounds = t + 3;
    full.stop_when_all_decided = false;
    expect_engine_matches_reference(x, p, alpha, prefs, t, full,
                                    what + " no-early-stop");
  }
}

TEST(StepperEquivalence, PMinMatchesSeedSemantics) {
  sweep_protocol([](int n) { return MinExchange(n); },
                 [](int n, int t) { return PMin(n, t); }, 5, 2, 101, 12,
                 "P_min");
}

TEST(StepperEquivalence, PBasicMatchesSeedSemantics) {
  sweep_protocol([](int n) { return BasicExchange(n); },
                 [](int n, int t) { return PBasic(n, t); }, 5, 2, 102, 12,
                 "P_basic");
}

TEST(StepperEquivalence, POptMatchesSeedSemantics) {
  // Exercises the borrowed-round δ (one graph union per distinct received
  // set, copied into each receiver's graph) against the seed's per-receiver
  // shared_ptr message semantics.
  sweep_protocol([](int n) { return FipExchange(n); },
                 [](int n, int t) { return POpt(n, t); }, 4, 2, 103, 8,
                 "P_opt");
}

TEST(StepperEquivalence, EarlyDecideStopsLikeSeed) {
  // Failure-free with a zero preference: everyone decides 0 in round 1 and
  // the early-stop kicks in identically (the Stepper's running undecided
  // counter vs the seed's per-round rescan).
  const int n = 6;
  const int t = 2;
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[0] = Value::zero;
  expect_engine_matches_reference(MinExchange(n), PMin(n, t),
                                  FailurePattern::failure_free(n), prefs, t,
                                  SimulateOptions{}, "early-decide");
}

// The stepper borrows its exchange and action protocol, so temporaries
// (which would dangle once the declaration ends) must not compile, on
// either constructor; lvalues must.
using MinStepper = Stepper<MinExchange, PMin>;
static_assert(std::is_constructible_v<MinStepper, const MinExchange&,
                                      const PMin&, FailurePattern,
                                      std::vector<Value>, int>);
static_assert(!std::is_constructible_v<MinStepper, MinExchange, const PMin&,
                                       FailurePattern, std::vector<Value>,
                                       int>);
static_assert(!std::is_constructible_v<MinStepper, const MinExchange&, PMin,
                                       FailurePattern, std::vector<Value>,
                                       int>);
static_assert(!std::is_constructible_v<MinStepper, MinExchange, PMin,
                                       FailurePattern, std::vector<Value>,
                                       int>);
static_assert(std::is_constructible_v<MinStepper, const MinExchange&,
                                      const PMin&, FailurePattern,
                                      ResumePoint<MinExchange>&&, int>);
static_assert(!std::is_constructible_v<MinStepper, MinExchange, const PMin&,
                                       FailurePattern,
                                       ResumePoint<MinExchange>&&, int>);
static_assert(!std::is_constructible_v<MinStepper, const MinExchange&, PMin,
                                       FailurePattern,
                                       ResumePoint<MinExchange>&&, int>);

TEST(StepperTest, UndecidedCounterTracksDecisions) {
  const int n = 4;
  const int t = 2;
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[0] = Value::zero;
  // The stepper borrows the exchange and the action protocol.
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(x, p, FailurePattern::failure_free(n),
                                     prefs, t);
  EXPECT_EQ(stepper.undecided(), n);
  ASSERT_TRUE(stepper.step());  // round 1: agent 0 decides 0, announces
  EXPECT_EQ(stepper.undecided(), n - 1);
  ASSERT_TRUE(stepper.step());  // round 2: everyone else hears and decides
  EXPECT_EQ(stepper.undecided(), 0);
  EXPECT_TRUE(stepper.done());
  EXPECT_FALSE(stepper.step());
}

TEST(StepperTest, TraceSinkSeesEveryTime) {
  const int n = 4;
  const int t = 1;
  MaterializingSink<MinExchange> sink;
  StepperOptions opt;
  opt.max_rounds = 3;
  opt.stop_when_all_decided = false;
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(
      x, p, FailurePattern::failure_free(n),
      std::vector<Value>(static_cast<std::size_t>(n), Value::one), t, opt,
      &sink);
  while (stepper.step()) {
  }
  ASSERT_EQ(sink.states().size(), 4u) << "times 0..3";
  for (const auto& states : sink.states())
    EXPECT_EQ(states.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(sink.states().back(), stepper.states());
}

/// A sink that records every (time, states) callback verbatim, so tests can
/// pin WHEN the stepper publishes, not just what ended up materialized.
template <class X>
class RecordingSink final : public TraceSink<X> {
 public:
  void on_states(int time,
                 std::span<const typename X::State> states) override {
    times.push_back(time);
    snapshots.emplace_back(states.begin(), states.end());
  }
  std::vector<int> times;
  std::vector<std::vector<typename X::State>> snapshots;
};

/// The sink contract: exactly one callback per round boundary — time 0 at
/// construction, then time m after round m completes — and each snapshot
/// equal to the reference simulator's states[m]. Checked for both halting
/// modes the driver exercises: early decide and max_rounds truncation.
template <class X, class P>
void expect_sink_pins_reference(const X& x, const P& p,
                                const FailurePattern& alpha,
                                const std::vector<Value>& inits, int t,
                                const SimulateOptions& opt,
                                const std::string& what) {
  const auto want = testing::reference_simulate(x, p, alpha, inits, t, opt);

  RecordingSink<X> sink;
  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;
  sopt.stop_when_all_decided = opt.stop_when_all_decided;
  Stepper<X, P> stepper(x, p, alpha, inits, t, sopt, &sink);
  while (stepper.step()) {
  }

  ASSERT_EQ(sink.times.size(),
            static_cast<std::size_t>(want.record.rounds) + 1)
      << what << ": one callback per time 0..rounds";
  for (std::size_t m = 0; m < sink.times.size(); ++m)
    EXPECT_EQ(sink.times[m], static_cast<int>(m))
        << what << ": boundary callbacks in round order";
  ASSERT_EQ(sink.snapshots.size(), want.states.size()) << what;
  for (std::size_t m = 0; m < want.states.size(); ++m)
    EXPECT_EQ(sink.snapshots[m], want.states[m])
        << what << " states at time " << m;

  // MaterializingSink is the same stream, stored: rerun and compare.
  MaterializingSink<X> mat;
  Stepper<X, P> again(x, p, alpha, inits, t, sopt, &mat);
  while (again.step()) {
  }
  EXPECT_EQ(mat.states(), want.states) << what << " [materializing]";
}

TEST(StepperTest, SinkBoundariesUnderEarlyDecideMatchReference) {
  // Failure-free with one zero preference: P_min decides early and the
  // stepper halts before the horizon. The sink must stop with it — no
  // phantom boundary for rounds that never ran.
  const int n = 5;
  const int t = 2;
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[1] = Value::zero;
  expect_sink_pins_reference(MinExchange(n), PMin(n, t),
                             FailurePattern::failure_free(n), prefs, t,
                             SimulateOptions{}, "sink early-decide p_min");

  Rng rng(404);
  for (int k = 0; k < 3; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    expect_sink_pins_reference(FipExchange(n), POpt(n, t), alpha,
                               sample_preferences(n, rng), t,
                               SimulateOptions{},
                               "sink early-decide p_opt iter=" +
                                   std::to_string(k));
  }
}

TEST(StepperTest, SinkBoundariesUnderMaxRoundsTruncationMatchReference) {
  const int n = 5;
  const int t = 2;
  Rng rng(405);
  for (int max_rounds : {1, 2}) {
    SimulateOptions opt;
    opt.max_rounds = max_rounds;
    opt.stop_when_all_decided = false;
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_sink_pins_reference(
        MinExchange(n), PMin(n, t), alpha, prefs, t, opt,
        "sink truncated p_min R=" + std::to_string(max_rounds));
    expect_sink_pins_reference(
        FipExchange(n), POpt(n, t), alpha, prefs, t, opt,
        "sink truncated p_opt R=" + std::to_string(max_rounds));
  }
}

TEST(BusPoolTest, AcquireReleaseAndExhaustion) {
  BusPool pool(2);
  EXPECT_EQ(pool.capacity(), 2u);
  const auto a = pool.acquire(FailurePattern::failure_free(3));
  const auto b = pool.acquire(FailurePattern::failure_free(3));
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_THROW((void)pool.acquire(FailurePattern::failure_free(3)),
               std::logic_error);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 1u);
  const auto c = pool.acquire(FailurePattern::failure_free(4));
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_THROW(pool.release(c), std::logic_error) << "double release";
}

TEST(BusPoolTest, ExchangeRoundFiltersLikeThePattern) {
  const int n = 3;
  FailurePattern alpha(n, AgentSet{0, 1});
  alpha.drop(0, 2, 0);
  BusPool pool(1);
  const auto slot = pool.acquire(alpha);

  std::vector<std::optional<Bytes>> outbox;
  for (AgentId i = 0; i < n; ++i)
    outbox.push_back(Bytes{static_cast<std::uint8_t>(i)});
  const auto res = pool.exchange_round(slot, std::move(outbox));
  EXPECT_EQ(res.round, 0);
  EXPECT_FALSE(res.inbox[0][2].has_value()) << "dropped by the adversary";
  EXPECT_TRUE(res.inbox[1][2].has_value());
  EXPECT_TRUE(res.inbox[2][2].has_value()) << "self-delivery";
  EXPECT_EQ((*res.inbox[1][2])[0], 2);
  EXPECT_EQ(res.sent[2], (AgentSet{0, 1}));
  EXPECT_EQ(res.delivered[2], AgentSet{1});
  EXPECT_EQ(pool.completed_rounds(slot), 1);

  // The copy-free filter underneath reports the same round as sender sets.
  BusPool filter_pool(1);
  const auto filter_slot = filter_pool.acquire(alpha);
  std::vector<std::optional<Bytes>> payloads(static_cast<std::size_t>(n),
                                             Bytes{7});
  const auto heard = filter_pool.filter_round(filter_slot, payloads);
  EXPECT_EQ(heard.round, 0);
  EXPECT_EQ(heard.received[0], (AgentSet{0, 1})) << "2 -> 0 dropped";
  EXPECT_EQ(heard.received[1], (AgentSet{0, 1, 2}));
  EXPECT_EQ(heard.received[2], (AgentSet{0, 1, 2}));
  EXPECT_EQ(heard.sent, res.sent);
  EXPECT_EQ(heard.delivered, res.delivered);
  filter_pool.release(filter_slot);

  // ⊥ payloads are not delivered anywhere.
  std::vector<std::optional<Bytes>> silent(static_cast<std::size_t>(n));
  const auto res2 = pool.exchange_round(slot, std::move(silent));
  EXPECT_EQ(res2.round, 1);
  for (AgentId to = 0; to < n; ++to)
    for (AgentId from = 0; from < n; ++from)
      EXPECT_FALSE(res2.inbox[static_cast<std::size_t>(to)]
                             [static_cast<std::size_t>(from)]
                                 .has_value());
  pool.release(slot);
}

template <class X, class P>
std::vector<InstanceSpec> seeded_specs(const X& x, int t, int count,
                                       std::uint64_t seed) {
  std::vector<InstanceSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (int k = 0; k < count; ++k)
    specs.push_back({sample_adversary(x.n(), t, t + 2, 0.4, rng),
                     sample_preferences(x.n(), rng)});
  return specs;
}

template <class X, class P>
void expect_workload_matches_reference(const X& x, const P& p, int t,
                                       int count, std::uint64_t seed,
                                       int workers,
                                       const std::string& name) {
  const auto specs = seeded_specs<X, P>(x, t, count, seed);
  WorkloadOptions opt;
  opt.workers = workers;
  const auto result = run_workload(x, p, std::span(specs), t, opt);
  ASSERT_EQ(result.instances.size(), specs.size());
  ASSERT_EQ(result.latency_us.size(), specs.size());
  EXPECT_EQ(result.concurrent_instances, specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto want = testing::reference_simulate(
        x, p, specs[k].alpha, specs[k].inits, t, SimulateOptions{});
    expect_records_equal(result.instances[k].record, want.record,
                         name + " instance " + std::to_string(k));
    EXPECT_EQ(result.instances[k].final_states, want.states.back())
        << name << " instance " << k;
    EXPECT_GT(result.latency_us[k], 0.0) << name << " instance " << k;
    EXPECT_TRUE(check_eba(result.instances[k].record).ok())
        << name << " instance " << k;
  }
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePMin) {
  expect_workload_matches_reference(MinExchange(5), PMin(5, 2), 2, 48, 201, 4,
                                    "P_min");
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePBasic) {
  expect_workload_matches_reference(BasicExchange(5), PBasic(5, 2), 2, 48,
                                    202, 4, "P_basic");
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePOptOverTheWire) {
  expect_workload_matches_reference(FipExchange(4), POpt(4, 2), 2, 24, 203, 4,
                                    "P_opt");
}

TEST(WorkloadTest, SingleWorkerMatchesManyWorkers) {
  const FipExchange x(4);
  const POpt p(4, 2);
  const auto specs = seeded_specs<FipExchange, POpt>(x, 2, 16, 204);
  WorkloadOptions one;
  one.workers = 1;
  WorkloadOptions many;
  many.workers = 4;
  const auto a = run_workload(x, p, std::span(specs), 2, one);
  const auto b = run_workload(x, p, std::span(specs), 2, many);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    expect_records_equal(a.instances[k].record, b.instances[k].record,
                         "instance " + std::to_string(k));
    EXPECT_EQ(a.instances[k].final_states, b.instances[k].final_states);
  }
}

TEST(WorkloadTest, MaxRoundsTruncatesEveryInstance) {
  const MinExchange x(4);
  const PMin p(4, 2);
  // All-ones preferences, failure-free: P_min normally decides in round
  // t+2; a horizon of 1 truncates it.
  std::vector<InstanceSpec> specs(
      8, {FailurePattern::failure_free(4),
          std::vector<Value>(4, Value::one)});
  WorkloadOptions opt;
  opt.workers = 3;
  opt.max_rounds = 1;
  const auto result = run_workload(x, p, std::span(specs), 2, opt);
  for (const auto& inst : result.instances) EXPECT_EQ(inst.record.rounds, 1);
}

TEST(AdaptiveWorkloadTest, ThreeEnginesAgreeOnSeededStrategies) {
  // The adaptive differential: a fresh same-seeded strategy driven through
  // (a) the bare Stepper (run_adaptive), (b) simulate_adaptive and (c) the
  // wire-path worker pool must produce identical RunRecords and identical
  // realized patterns. Strategy RNG consumption is observation-independent,
  // so the seed pins the whole run; any divergence means one engine shows
  // the strategy a different world (or applies its drops differently).
  const int n = 4;
  const int t = 2;
  const FipExchange x(n);
  const POpt p(n, t);
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[static_cast<std::size_t>(n - 1)] = Value::zero;

  for (const auto& factory : shipped_strategies(n, t, FailureModel::general)) {
    for (std::uint64_t seed : {5ull, 6ull}) {
      const std::string what = factory.name + " seed " + std::to_string(seed);

      auto bare_strat = factory.make(seed);
      const AdaptiveOutcome bare = run_adaptive(x, p, *bare_strat, prefs, t);

      auto sim_strat = factory.make(seed);
      FailurePattern sim_realized = FailurePattern::failure_free(1);
      const auto sim = simulate_adaptive(x, p, *sim_strat, prefs, t,
                                         SimulateOptions{}, &sim_realized);

      std::vector<AdaptiveInstanceSpec> specs;
      specs.push_back({factory.make(seed), prefs});
      WorkloadOptions wopt;
      wopt.workers = 2;
      const auto pooled = run_adaptive_workload(x, p, std::span(specs), t, wopt);
      ASSERT_EQ(pooled.instances.size(), 1u) << what;

      expect_records_equal(sim.record, bare.summary.record, what + " [sim]");
      expect_records_equal(pooled.instances[0].record, bare.summary.record,
                           what + " [pool]");
      EXPECT_TRUE(sim_realized == bare.realized) << what;
    }
  }
}

TEST(AdaptiveWorkloadTest, ManyInstancesUnderManyWorkers) {
  // A batch of seeded random-budget instances over the pool equals the bare
  // runs instance-for-instance, regardless of worker interleaving.
  const int n = 5;
  const int t = 2;
  const MinExchange x(n);
  const PMin p(n, t);
  Rng rng(301);
  std::vector<AdaptiveInstanceSpec> specs;
  std::vector<std::vector<Value>> all_prefs;
  for (int k = 0; k < 24; ++k) {
    const auto prefs = sample_preferences(n, rng);
    specs.push_back({make_random_budget_strategy(
                         n, t, FailureModel::general,
                         static_cast<std::uint64_t>(k)),
                     prefs});
    all_prefs.push_back(prefs);
  }
  WorkloadOptions wopt;
  wopt.workers = 4;
  const auto pooled = run_adaptive_workload(x, p, std::span(specs), t, wopt);
  ASSERT_EQ(pooled.instances.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto strat = make_random_budget_strategy(n, t, FailureModel::general,
                                             static_cast<std::uint64_t>(k));
    const AdaptiveOutcome want = run_adaptive(x, p, *strat, all_prefs[k], t);
    expect_records_equal(pooled.instances[k].record, want.summary.record,
                         "instance " + std::to_string(k));
  }
}

// -- E_fip union δ ------------------------------------------------------------
//
// E_fip's δ builds U_R = ∪_{i ∈ R} G_i once per distinct received set R and
// copies it into every receiver with that set. Oracle: the seed's
// per-receiver FipExchange::update (tests/reference_simulator.hpp) — every
// agent's state after every round must match under simulate(), a stepper
// with a materializing sink, and run_workload at 1 and 4 workers; and each
// round must cost exactly Σ_R (|R| - 1) merges.

/// Receiver j's round sender set from a delivered log: j plus every sender
/// whose message reached j.
std::vector<AgentSet> received_sets(const std::vector<AgentSet>& delivered) {
  const auto n = delivered.size();
  std::vector<AgentSet> received(n);
  for (std::size_t j = 0; j < n; ++j) {
    received[j].insert(static_cast<AgentId>(j));
    for (std::size_t i = 0; i < n; ++i)
      if (delivered[i].contains(static_cast<AgentId>(j)))
        received[j].insert(static_cast<AgentId>(i));
  }
  return received;
}

std::vector<AgentSet> distinct_sets(const std::vector<AgentSet>& sets) {
  std::vector<AgentSet> out;
  for (AgentSet r : sets)
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  return out;
}

/// Σ_R (|R| - 1) over one round's distinct received sets.
std::uint64_t union_merges(const std::vector<AgentSet>& delivered) {
  std::uint64_t merges = 0;
  for (AgentSet r : distinct_sets(received_sets(delivered)))
    merges += static_cast<std::uint64_t>(r.size() - 1);
  return merges;
}

/// Materializes every state and reads the exchange's merge counter at each
/// state boundary.
class MergeCountingSink final : public TraceSink<FipExchange> {
 public:
  explicit MergeCountingSink(const FipExchange& x) : x_(&x) {}
  void on_states(int time, std::span<const FipState> states) override {
    states_.on_states(time, states);
    merges_.push_back(x_->graph_merges());
  }
  [[nodiscard]] std::vector<std::vector<FipState>>& states() {
    return states_.states();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& merges() const {
    return merges_;
  }

 private:
  const FipExchange* x_;
  MaterializingSink<FipExchange> states_;
  std::vector<std::uint64_t> merges_;
};

/// What the union δ exploits, tallied over the reference runs.
struct ReceivedSetTally {
  std::size_t rounds = 0;
  std::size_t distinct = 0;      ///< Σ over rounds of the distinct-set count
  std::size_t split_rounds = 0;  ///< rounds with more than one distinct set
  std::size_t shared_rounds = 0; ///< rounds where some set has 2+ receivers
};

template <class P>
void expect_union_delta_matches_reference(
    const P& p, int t,
    const std::vector<std::pair<FailurePattern, std::vector<Value>>>& worlds,
    const std::string& name, ReceivedSetTally& tally) {
  const FipExchange x(worlds.front().first.n());
  std::vector<InstanceSpec> specs;
  std::vector<eba::Run<FipExchange>> refs;
  std::uint64_t want_merges = 0;
  for (std::size_t k = 0; k < worlds.size(); ++k) {
    const auto& [alpha, inits] = worlds[k];
    const std::string what = name + " world " + std::to_string(k);
    auto want = testing::reference_simulate(x, p, alpha, inits, t);

    const auto sim = simulate(x, p, alpha, inits, t);
    expect_records_equal(sim.record, want.record, what + " [simulate]");
    EXPECT_EQ(sim.states, want.states) << what << " [simulate]";

    MergeCountingSink sink(x);
    Stepper<FipExchange, P> stepper(x, p, alpha, inits, t, {}, &sink);
    while (stepper.step()) {
    }
    ASSERT_EQ(sink.states().size(), want.states.size()) << what;
    for (std::size_t m = 1; m < want.states.size(); ++m) {
      EXPECT_EQ(sink.states()[m], want.states[m])
          << what << " [stepper] states at time " << m;
      const auto& delivered = want.record.delivered[m - 1];
      const std::uint64_t round_merges = union_merges(delivered);
      EXPECT_EQ(sink.merges()[m] - sink.merges()[m - 1], round_merges)
          << what << " merges in round " << m;
      want_merges += round_merges;
      const auto received = received_sets(delivered);
      const auto sets = distinct_sets(received);
      tally.rounds += 1;
      tally.distinct += sets.size();
      if (sets.size() > 1) tally.split_rounds += 1;
      if (sets.size() < received.size()) tally.shared_rounds += 1;
    }
    specs.push_back({alpha, inits});
    refs.push_back(std::move(want));
  }

  for (const int workers : {1, 4}) {
    WorkloadOptions opt;
    opt.workers = workers;
    const std::uint64_t before = x.graph_merges();
    const auto result = run_workload(x, p, std::span(specs), t, opt);
    EXPECT_EQ(x.graph_merges() - before, want_merges)
        << name << " [run_workload, " << workers << " workers]";
    ASSERT_EQ(result.instances.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::string what = name + " world " + std::to_string(k) +
                               " [run_workload, " + std::to_string(workers) +
                               " workers]";
      expect_records_equal(result.instances[k].record, refs[k].record, what);
      EXPECT_EQ(result.instances[k].final_states, refs[k].states.back())
          << what;
    }
  }
}

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

TEST(UnionDeltaTest, WireMixAtN16MatchesPerReceiverUpdate) {
  // The four wire-mix kinds: failure-free, sampled sending omissions,
  // silent agents with unanimous preference 1, and the hidden 0-chain with
  // init_0 = 0.
  constexpr int n = 16;
  constexpr int t = 4;
  Rng rng(1301);
  const std::vector<Value> ones(n, Value::one);
  std::vector<Value> one_zero = ones;
  one_zero[0] = Value::zero;
  AgentSet silent;
  while (silent.size() < t) silent.insert(static_cast<AgentId>(rng.below(n)));
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  worlds.emplace_back(FailurePattern::failure_free(n),
                      sample_preferences(n, rng));
  for (int k = 0; k < 2; ++k)
    worlds.emplace_back(sample_adversary(n, t, t + 2, 0.3, rng),
                        sample_preferences(n, rng));
  worlds.emplace_back(silent_agents_pattern(n, silent, t + 3), ones);
  worlds.emplace_back(hidden_chain(n, t, t + 3), one_zero);
  ReceivedSetTally tally;
  expect_union_delta_matches_reference(POpt(n, t), t, worlds, "wire mix",
                                       tally);
  EXPECT_GT(tally.split_rounds, 0u);
  EXPECT_GT(tally.shared_rounds, 0u);
}

TEST(UnionDeltaTest, GoReceiveDropsGiveDistinctReceivedSets) {
  // GO(t) receive drops make receivers hear different sender sets, so the
  // δ builds several unions per round; P_opt_go runs on the result.
  constexpr int n = 6;
  constexpr int t = 2;
  Rng rng(1302);
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  for (int k = 0; k < 8; ++k)
    worlds.emplace_back(sample_go_adversary(n, t, t + 3, 0.3, 0.5, rng),
                        sample_preferences(n, rng));
  ReceivedSetTally tally;
  expect_union_delta_matches_reference(POptGo(n, t), t, worlds, "GO(t)",
                                       tally);
  EXPECT_GT(tally.split_rounds, 0u);
  EXPECT_GT(tally.shared_rounds, 0u);
  EXPECT_GT(tally.distinct, tally.rounds) << "some round must split";
}

TEST(UnionDeltaTest, AdaptiveStrategyOverTheWireMatchesPerReceiverUpdate) {
  // Seeded strategies through run_adaptive_workload: each instance's final
  // states equal the per-receiver reference on its realized pattern, at 1
  // and 4 workers, and the batch costs exactly Σ_R (|R| - 1) merges.
  constexpr int n = 6;
  constexpr int t = 2;
  const FipExchange x(n);
  const POpt p(n, t);
  Rng rng(1303);
  constexpr int kInstances = 8;
  std::vector<std::vector<Value>> prefs;
  std::vector<eba::Run<FipExchange>> refs;
  std::uint64_t want_merges = 0;
  for (int k = 0; k < kInstances; ++k) {
    prefs.push_back(sample_preferences(n, rng));
    auto strat = make_random_budget_strategy(n, t, FailureModel::general,
                                             static_cast<std::uint64_t>(k));
    const AdaptiveOutcome bare = run_adaptive(x, p, *strat, prefs.back(), t);
    refs.push_back(
        testing::reference_simulate(x, p, bare.realized, prefs.back(), t));
    expect_records_equal(refs.back().record, bare.summary.record,
                         "reference on the realized pattern");
    for (const auto& delivered : refs.back().record.delivered)
      want_merges += union_merges(delivered);
  }
  for (const int workers : {1, 4}) {
    std::vector<AdaptiveInstanceSpec> specs;
    for (int k = 0; k < kInstances; ++k)
      specs.push_back({make_random_budget_strategy(
                           n, t, FailureModel::general,
                           static_cast<std::uint64_t>(k)),
                       prefs[static_cast<std::size_t>(k)]});
    WorkloadOptions opt;
    opt.workers = workers;
    const std::uint64_t before = x.graph_merges();
    const auto pooled = run_adaptive_workload(x, p, std::span(specs), t, opt);
    EXPECT_EQ(x.graph_merges() - before, want_merges) << workers << " workers";
    ASSERT_EQ(pooled.instances.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::string what = "instance " + std::to_string(k) + ", " +
                               std::to_string(workers) + " workers";
      expect_records_equal(pooled.instances[k].record, refs[k].record, what);
      EXPECT_EQ(pooled.instances[k].final_states, refs[k].states.back())
          << what;
    }
  }
}

TEST(ClusterWrapperTest, RunClusterEqualsThreadPerAgent) {
  // The new single-instance wrapper and the legacy thread-per-agent model
  // must agree record-for-record (both are also pinned against simulate()
  // in test_net.cpp).
  Rng rng(205);
  for (int k = 0; k < 5; ++k) {
    const auto alpha = sample_adversary(4, 2, 4, 0.4, rng);
    const auto prefs = sample_preferences(4, rng);
    const auto pooled = run_cluster(FipExchange(4), POpt(4, 2), alpha, prefs, 2);
    const auto threaded = run_cluster_thread_per_agent(FipExchange(4),
                                                       POpt(4, 2), alpha,
                                                       prefs, 2);
    expect_records_equal(pooled.record, threaded.record,
                         "iter " + std::to_string(k));
    EXPECT_EQ(pooled.final_states, threaded.final_states);
  }
}

}  // namespace
}  // namespace eba
