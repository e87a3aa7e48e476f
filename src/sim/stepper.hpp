// The instance-oriented run engine (paper §3).
//
// `Stepper<X, P>` advances the n agent states of ONE agreement instance
// round by round, **in place**: no per-round snapshot of all states is
// materialized unless a `TraceSink` opts in. `simulate()` (simulator.hpp)
// is a thin wrapper that attaches a materializing sink to recover the
// classic fully-materialized `Run<X>`; the drivers and the net-layer
// workload engine run the stepper bare, so a run costs O(n) state, not
// O(rounds · n).
//
// A round has three phases: `begin_round()` computes every agent's action
// and the decide bookkeeping, something moves the messages and applies δ,
// and the stepper appends the round to the record. The middle phase comes
// in two forms:
//
//  * `step()` — `run_round()`, the one in-memory round of the library: µ,
//    adversary filtering per the instance's failure pattern, δ. This is the
//    §3 semantics verbatim; `simulate()`, the drivers and KBP synthesis
//    (kripke/synthesis.hpp) all advance through it.
//  * `finish_round()` — for external transports: the caller reads the
//    round's actions and states, moves the messages through a real
//    messaging layer (net/ serializes them as byte payloads through a bus
//    slot), and hands back the filtered inboxes plus the sent/delivered
//    logs. One instance = one stepper + one bus slot in the net-layer
//    workload engine.
//
// Exchanges may opt into two fast paths, honoured by both forms:
//
//  * `X::kBroadcast` — µ is destination-independent, so run_round computes
//    each sender's message once and fans it out. Exchanges without the
//    marker get a correct per-destination µ loop instead (see message()
//    docs in exchange.hpp).
//  * `BorrowedRoundExchange` — the exchange runs δ for the whole round
//    from borrowed per-sender snapshots plus each receiver's received
//    set. E_fip groups receivers by received set R, builds the union of
//    the senders' graphs once per distinct R and copies it into each
//    receiver's graph storage: Σ_R (|R| − 1) merges a round instead of
//    one per delivered edge, and no shared_ptr inbox. The same δ serves
//    run_round (snapshots borrowed from the states), the wire path's
//    snapshot finish_round() (graphs decoded once per sender; net/
//    workload.hpp) and the inbox finish_round() (each sender's graph read
//    through its message).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "failure/pattern.hpp"

namespace eba {

/// What an adaptive adversary observes when a round is staged: the actions
/// every agent is about to perform, plus the decide bookkeeping derived from
/// them. `round` is the pattern round index m (= the stepper's current
/// time), so drops recorded at round m filter exactly the messages staged
/// here — the broadcasts of protocol round m+1.
struct StagedRound {
  int round = 0;
  int t = 0;
  /// actions[i]: agent i's staged action this round.
  std::span<const Action> actions;
  /// Agents staging their *first* decide this round.
  AgentSet deciding_now;
  /// Agents decided in any round up to and including this one.
  AgentSet decided;
};

/// Online adversary callback, invoked by `Stepper::begin_round()` after the
/// round's actions are fixed and before any message moves. The hook may add
/// drops to the instance's pattern at rounds >= staged.round; both
/// run_round() and external transports (which must re-read
/// `pattern()` after begin_round — see net/workload.hpp) then filter the
/// staged messages with the updated pattern. sim/adaptive.hpp wraps
/// `AdversaryStrategy` objects into hooks and enforces the SO(t)/GO(t)
/// budget after every invocation.
using AdversaryHook = std::function<void(const StagedRound&, FailurePattern&)>;

/// Exchanges whose µ is destination-independent declare
/// `static constexpr bool kBroadcast = true`. The engine then computes one
/// message per sender per round; for every other exchange it evaluates
/// µ(s, a, dest) per destination, so a future non-broadcast exchange cannot
/// silently inherit broadcast fan-out.
template <class X>
concept BroadcastExchange = requires {
  { X::kBroadcast } -> std::convertible_to<bool>;
} && bool(X::kBroadcast);

/// Optional whole-round δ over borrowed snapshots. An exchange models it by
/// declaring a `Snapshot` type plus:
///
///   const Snapshot& snapshot(const State&) — the broadcast-relevant part of
///     the state, borrowed; µ(s, a, dest) is a copy of it. The exchange must
///     broadcast every round (µ never ⊥) for this path.
///   const Snapshot& message_snapshot(const Message&) — the snapshot a
///     received message carries.
///   std::size_t snapshot_bits(const Snapshot&) — Prop 8.1 accounting,
///     equal to message_bits(µ(s, a, dest)) on the same state.
///   void update_round(std::span<State>, std::span<const Action>,
///     std::span<const Snapshot* const> graphs, std::span<const AgentSet>
///     received) — δ for every agent at once: graphs[i] is sender i's round
///     snapshot (possibly agent i's own state's), received[j] the senders
///     whose message reached j (j included). Must produce the same states as
///     update() on the equivalent inboxes (tests/test_workload.cpp enforces
///     this).
template <class X>
concept BorrowedRoundExchange = requires(
    const X x, const typename X::State& s, const typename X::Message& msg,
    std::span<typename X::State> states, std::span<const Action> actions,
    std::span<const typename X::Snapshot* const> graphs,
    std::span<const AgentSet> received) {
  typename X::Snapshot;
  { x.snapshot(s) } -> std::same_as<const typename X::Snapshot&>;
  { x.message_snapshot(msg) } -> std::same_as<const typename X::Snapshot&>;
  { x.snapshot_bits(x.snapshot(s)) } -> std::convertible_to<std::size_t>;
  x.update_round(states, actions, graphs, received);
};

namespace detail {
/// X::Snapshot where the exchange declares one, void otherwise, so Stepper
/// can name it in member signatures that only borrowed-round exchanges use.
template <class X>
struct SnapshotOf {
  using type = void;
};
template <class X>
  requires requires { typename X::Snapshot; }
struct SnapshotOf<X> {
  using type = typename X::Snapshot;
};
}  // namespace detail

/// Opt-in observer of the in-place engine: receives the state vector at
/// time 0 and after every completed round. `MaterializingSink` recovers the
/// seed simulator's full `states[m][i]` history for tests and examples.
template <ExchangeProtocol X>
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// `states[i]` is agent i's state at `time` (0 = initial).
  virtual void on_states(int time,
                         std::span<const typename X::State> states) = 0;
};

template <ExchangeProtocol X>
class MaterializingSink final : public TraceSink<X> {
 public:
  void on_states(int /*time*/,
                 std::span<const typename X::State> states) override {
    states_.emplace_back(states.begin(), states.end());
  }

  /// states()[m][i]: agent i's state at time m, exactly as the seed
  /// simulator materialized it.
  [[nodiscard]] std::vector<std::vector<typename X::State>>& states() {
    return states_;
  }

 private:
  std::vector<std::vector<typename X::State>> states_;
};

struct StepperOptions {
  int max_rounds = 0;                 ///< 0 = use t+4
  bool stop_when_all_decided = true;  ///< stop early once every agent decided
};

/// A mid-run cut of one instance, sufficient to resume it exactly where it
/// stopped: the completed-round count, every agent's state at that time, the
/// record accumulated so far and the wire accounting. Produced/consumed by
/// net/checkpoint.hpp; the decide bookkeeping (decided set, undecided
/// counter) is recomputed from the record, not stored.
template <ExchangeProtocol X>
struct ResumePoint {
  int time = 0;
  std::vector<typename X::State> states;
  RunRecord record;
  std::size_t bits_sent = 0;
  std::size_t messages_sent = 0;
};

/// One round's traffic and wire accounting: sent[i] the agents i
/// addressed a message to (i excluded), delivered[i] the subset the
/// adversary delivered, and the bits and messages put on the wire.
struct RoundTraffic {
  std::vector<AgentSet> sent;
  std::vector<AgentSet> delivered;
  std::size_t bits = 0;
  std::size_t messages = 0;
};

/// The one in-memory round (paper §3): agents holding `states` perform
/// `actions`, µ chooses the messages, α filters them at pattern round m and
/// δ advances `states` in place. Borrowed-round exchanges get their
/// whole-round δ over snapshots borrowed from the states; otherwise µ runs
/// once per sender for broadcast exchanges and once per (sender,
/// destination) for the rest, and δ once per receiver. Stepper::step() and
/// KbpSynthesizer (kripke/synthesis.hpp) both advance through it.
template <ExchangeProtocol X>
RoundTraffic run_round(const X& x, std::span<typename X::State> states,
                       std::span<const Action> actions,
                       const FailurePattern& alpha, int m) {
  using Message = typename X::Message;
  const int n = x.n();
  const auto un = static_cast<std::size_t>(n);
  EBA_REQUIRE(states.size() == un && actions.size() == un,
              "round size mismatch");
  RoundTraffic traffic{.sent = std::vector<AgentSet>(un),
                       .delivered = std::vector<AgentSet>(un)};
  // The agents α lets sender i's message reach this round, i included.
  auto reach = [&](AgentId i) {
    AgentSet r;
    for (AgentId j = 0; j < n; ++j)
      if (alpha.delivered(m, i, j)) r.insert(j);
    return r;
  };
  // Logs sender i's broadcast of a `bits`-bit message to everyone else.
  auto log_broadcast = [&](AgentId i, AgentSet r, std::size_t bits) {
    const auto ui = static_cast<std::size_t>(i);
    traffic.sent[ui] = AgentSet::all(n).minus(AgentSet{i});
    traffic.delivered[ui] = r.minus(AgentSet{i});
    traffic.bits += (un - 1) * bits;
    traffic.messages += un - 1;
  };

  if constexpr (BorrowedRoundExchange<X>) {
    std::vector<const typename X::Snapshot*> graphs(un);
    std::vector<AgentSet> received(un);
    for (AgentId i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      graphs[ui] = &x.snapshot(states[ui]);
      const AgentSet r = reach(i);
      log_broadcast(i, r, x.snapshot_bits(*graphs[ui]));
      for (AgentId j : r) received[static_cast<std::size_t>(j)].insert(i);
    }
    x.update_round(states, actions,
                   std::span<const typename X::Snapshot* const>(graphs),
                   received);
  } else {
    std::vector<std::vector<std::optional<Message>>> inbox(
        un, std::vector<std::optional<Message>>(un));
    for (AgentId i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const AgentSet r = reach(i);
      if constexpr (BroadcastExchange<X>) {
        const std::optional<Message> out =
            x.message(states[ui], actions[ui], /*dest=*/0);
        if (!out) continue;
        log_broadcast(i, r, x.message_bits(*out));
        for (AgentId j : r) inbox[static_cast<std::size_t>(j)][ui] = *out;
      } else {
        // µ(s, a, self) always reaches its sender and is not wire traffic.
        for (AgentId j = 0; j < n; ++j) {
          std::optional<Message> out = x.message(states[ui], actions[ui], j);
          if (!out) continue;
          if (j != i) {
            traffic.sent[ui].insert(j);
            if (r.contains(j)) traffic.delivered[ui].insert(j);
            traffic.bits += x.message_bits(*out);
            traffic.messages += 1;
          }
          if (r.contains(j))
            inbox[static_cast<std::size_t>(j)][ui] = std::move(*out);
        }
      }
    }
    for (std::size_t j = 0; j < un; ++j)
      x.update(states[j], actions[j],
               std::span<const std::optional<Message>>(inbox[j]));
  }
  return traffic;
}

template <ExchangeProtocol X, class P>
class Stepper {
 public:
  using State = typename X::State;
  using Message = typename X::Message;
  using Snapshot = typename detail::SnapshotOf<X>::type;

  /// `x` and `act` are borrowed and must outlive the stepper; the pattern
  /// and preferences are copied so an instance owns its inputs (the
  /// workload engine keeps thousands of steppers alive at once). A fresh
  /// instance is the time-0 resume point: every agent's initial state.
  Stepper(const X& x, const P& act, const FailurePattern& alpha,
          std::vector<Value> inits, int t, const StepperOptions& opt = {},
          TraceSink<X>* sink = nullptr)
      : Stepper(x, act, alpha, start_point(x, alpha, std::move(inits), t), t,
                opt, sink) {}

  /// Both constructors borrow `x` and `act`, so a temporary exchange or
  /// action protocol would dangle as soon as the full-expression ends.
  template <class... Rest>
  Stepper(X&&, const P&, Rest&&...) = delete;
  template <class... Rest>
  Stepper(const X&, P&&, Rest&&...) = delete;
  template <class... Rest>
  Stepper(X&&, P&&, Rest&&...) = delete;

  /// Resumes an instance from a mid-run cut (see ResumePoint): the stepper
  /// continues from `resume.time` exactly as if it had executed the recorded
  /// rounds itself — the differential tests in tests/test_recovery.cpp pin
  /// restored-and-continued runs record-for-record against uninterrupted
  /// ones. The decide bookkeeping is rebuilt by scanning the record for
  /// first decides, so a resume point cannot smuggle in inconsistent
  /// counters.
  Stepper(const X& x, const P& act, FailurePattern alpha,
          ResumePoint<X>&& resume, int t, const StepperOptions& opt = {},
          TraceSink<X>* sink = nullptr)
      : x_(&x),
        act_(&act),
        alpha_(std::move(alpha)),
        t_(t),
        max_rounds_(opt.max_rounds > 0 ? opt.max_rounds : t + 4),
        stop_when_all_decided_(opt.stop_when_all_decided),
        sink_(sink),
        n_(x.n()),
        time_(resume.time),
        start_time_(resume.time),
        undecided_(x.n()),
        decided_(static_cast<std::size_t>(x.n()), false),
        states_(std::move(resume.states)),
        record_(std::move(resume.record)),
        bits_sent_(resume.bits_sent),
        messages_sent_(resume.messages_sent) {
    EBA_REQUIRE(alpha_.n() == n_, "pattern/exchange agent count mismatch");
    EBA_REQUIRE(record_.n == n_ && record_.t == t_,
                "resume record does not match the context");
    EBA_REQUIRE(record_.rounds == time_ && time_ >= 0 && time_ <= max_rounds_,
                "resume time does not match the recorded rounds");
    EBA_REQUIRE(static_cast<int>(states_.size()) == n_,
                "resume states must cover every agent");
    EBA_REQUIRE(static_cast<int>(record_.inits.size()) == n_,
                "resume record inits size mismatch");
    for (int m = 0; m < time_; ++m)
      for (AgentId i = 0; i < n_; ++i)
        if (record_.actions[static_cast<std::size_t>(m)]
                           [static_cast<std::size_t>(i)]
                               .is_decide() &&
            !decided_[static_cast<std::size_t>(i)]) {
          decided_[static_cast<std::size_t>(i)] = true;
          decided_set_.insert(i);
          --undecided_;
        }
    if (sink_) sink_->on_states(time_, states_);
  }

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }
  /// Rounds completed so far (= the current time).
  [[nodiscard]] int time() const { return time_; }
  [[nodiscard]] int max_rounds() const { return max_rounds_; }
  [[nodiscard]] bool stop_when_all_decided() const {
    return stop_when_all_decided_;
  }
  /// The time this stepper started at: 0 for a fresh instance, the resume
  /// point's time for a restored one.
  [[nodiscard]] int start_time() const { return start_time_; }
  /// Running count of agents that have not yet decided; maintained
  /// incrementally instead of rescanning all n agents every round.
  [[nodiscard]] int undecided() const { return undecided_; }
  [[nodiscard]] std::size_t bits_sent() const { return bits_sent_; }
  [[nodiscard]] std::size_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] const std::vector<State>& states() const { return states_; }
  [[nodiscard]] const FailurePattern& pattern() const { return alpha_; }

  /// Installs an online adversary (see AdversaryHook above). Must be set
  /// before the stepper runs its first round — time 0 for a fresh instance,
  /// the resume time for a restored one (crash recovery reinstalls the hook
  /// from the rolled-back strategy; net/workload.hpp) — because replacing it
  /// mid-run would make the realized pattern unattributable to one strategy.
  void set_adversary_hook(AdversaryHook hook) {
    EBA_REQUIRE(time_ == start_time_ && !in_round_,
                "adversary hook must be installed before the first round");
    adversary_ = std::move(hook);
  }

  /// True between begin_round() and finish_round(). Checkpoints may only be
  /// cut at round boundaries (net/checkpoint.hpp asserts this).
  [[nodiscard]] bool in_round() const { return in_round_; }

  /// True when the instance will run no further round: the horizon is
  /// exhausted or (under early stopping) every agent has decided.
  [[nodiscard]] bool done() const {
    if (in_round_) return false;
    if (time_ >= max_rounds_) return true;
    return stop_when_all_decided_ && undecided_ == 0;
  }

  /// Runs one full round in memory. Returns false (and does nothing) when
  /// the instance is done.
  bool step() {
    if (!begin_round()) return false;
    complete_round(run_round(*x_, std::span<State>(states_),
                             std::span<const Action>(actions_), alpha_, time_));
    return true;
  }

  // -- Split-phase interface (external transports) --------------------------

  /// Starts a round: computes every agent's action and the decide
  /// bookkeeping. Returns nullptr when the instance is done. After a
  /// non-null return the caller must complete the round with
  /// finish_round() before anything else; a step() in between re-enters
  /// begin_round and fails its precondition (phases must not be mixed).
  [[nodiscard]] const std::vector<Action>* begin_round() {
    EBA_REQUIRE(!in_round_, "begin_round called twice without finish_round");
    if (done()) return nullptr;
    actions_.assign(static_cast<std::size_t>(n_), Action::noop());
    AgentSet deciding_now;
    for (AgentId i = 0; i < n_; ++i) {
      const Action a = (*act_)(states_[static_cast<std::size_t>(i)]);
      actions_[static_cast<std::size_t>(i)] = a;
      if (a.is_decide() && !decided_[static_cast<std::size_t>(i)]) {
        decided_[static_cast<std::size_t>(i)] = true;
        decided_set_.insert(i);
        deciding_now.insert(i);
        --undecided_;
      }
    }
    if (adversary_)
      adversary_(StagedRound{.round = time_,
                             .t = t_,
                             .actions = actions_,
                             .deciding_now = deciding_now,
                             .decided = decided_set_},
                 alpha_);
    in_round_ = true;
    return &actions_;
  }

  /// Completes a round whose messages were moved by an external transport:
  /// applies δ with the filtered inboxes and appends the transport's
  /// sent/delivered logs and accounting to the record. Borrowed-round
  /// exchanges read each sender's snapshot through its message and run
  /// their one whole-round δ; a broadcast must then reach every receiver
  /// unchanged.
  void finish_round(
      std::span<const std::vector<std::optional<Message>>> inbox,
      std::vector<AgentSet> sent, std::vector<AgentSet> delivered,
      std::size_t bits, std::size_t messages) {
    EBA_REQUIRE(in_round_, "finish_round without begin_round");
    EBA_REQUIRE(static_cast<int>(inbox.size()) == n_, "inbox size mismatch");
    if constexpr (BorrowedRoundExchange<X>) {
      const std::size_t un = static_cast<std::size_t>(n_);
      std::vector<const Snapshot*> graphs(un, nullptr);
      std::vector<AgentSet> received(un);
      for (std::size_t j = 0; j < un; ++j) {
        EBA_REQUIRE(inbox[j].size() == un, "inbox row size mismatch");
        received[j].insert(static_cast<AgentId>(j));
        for (std::size_t i = 0; i < un; ++i) {
          if (!inbox[j][i]) continue;
          received[j].insert(static_cast<AgentId>(i));
          const Snapshot* g = &x_->message_snapshot(*inbox[j][i]);
          if (!graphs[i]) graphs[i] = g;
          EBA_REQUIRE(g == graphs[i] || *g == *graphs[i],
                      "a broadcast reached its receivers with different "
                      "contents");
        }
      }
      finish_round(graphs, received, std::move(sent), std::move(delivered),
                   bits, messages);
    } else {
      for (AgentId i = 0; i < n_; ++i)
        x_->update(states_[static_cast<std::size_t>(i)],
                   actions_[static_cast<std::size_t>(i)],
                   std::span<const std::optional<Message>>(
                       inbox[static_cast<std::size_t>(i)]));
      complete_round({std::move(sent), std::move(delivered), bits, messages});
    }
  }

  /// Completes a borrowed-round exchange's round from per-sender snapshots:
  /// `graphs[i]` is sender i's decoded snapshot, or null when i's broadcast
  /// reached no other agent (its own state's snapshot then stands in), and
  /// `received[j]` the senders whose broadcast reached j (j included). The
  /// snapshots are only borrowed for the call. Otherwise as the inbox
  /// overload.
  void finish_round(std::span<const Snapshot* const> graphs,
                    std::span<const AgentSet> received,
                    std::vector<AgentSet> sent, std::vector<AgentSet> delivered,
                    std::size_t bits, std::size_t messages)
    requires BorrowedRoundExchange<X>
  {
    EBA_REQUIRE(in_round_, "finish_round without begin_round");
    EBA_REQUIRE(static_cast<int>(graphs.size()) == n_ &&
                    static_cast<int>(received.size()) == n_,
                "round size mismatch");
    std::vector<const Snapshot*> own(graphs.begin(), graphs.end());
    for (std::size_t i = 0; i < own.size(); ++i)
      if (!own[i]) own[i] = &x_->snapshot(states_[i]);
    x_->update_round(std::span<State>(states_),
                     std::span<const Action>(actions_),
                     std::span<const Snapshot* const>(own), received);
    complete_round({std::move(sent), std::move(delivered), bits, messages});
  }

  /// The record accumulated so far; `record().rounds` is kept in sync after
  /// every completed round, so this is valid mid-run too.
  [[nodiscard]] const RunRecord& record() const { return record_; }
  [[nodiscard]] RunRecord take_record() {
    EBA_REQUIRE(!in_round_, "take_record mid-round");
    return std::move(record_);
  }
  [[nodiscard]] std::vector<State> take_states() {
    EBA_REQUIRE(!in_round_, "take_states mid-round");
    return std::move(states_);
  }

 private:
  /// The time-0 cut of a fresh instance.
  static ResumePoint<X> start_point(const X& x, const FailurePattern& alpha,
                                    std::vector<Value> inits, int t) {
    EBA_REQUIRE(static_cast<int>(inits.size()) == x.n(),
                "inits size mismatch");
    ResumePoint<X> start;
    start.states.reserve(inits.size());
    for (AgentId i = 0; i < x.n(); ++i)
      start.states.push_back(
          x.initial_state(i, inits[static_cast<std::size_t>(i)]));
    start.record.n = x.n();
    start.record.t = t;
    start.record.inits = std::move(inits);
    start.record.nonfaulty = alpha.nonfaulty();
    return start;
  }

  /// Appends the round's traffic and accounting, then closes the round.
  void complete_round(RoundTraffic round) {
    bits_sent_ += round.bits;
    messages_sent_ += round.messages;
    record_.sent.push_back(std::move(round.sent));
    record_.delivered.push_back(std::move(round.delivered));
    record_.actions.push_back(std::move(actions_));
    actions_.clear();
    time_ += 1;
    record_.rounds = time_;
    in_round_ = false;
    if (sink_) sink_->on_states(time_, states_);
  }

  const X* x_;
  const P* act_;
  FailurePattern alpha_;
  int t_;
  int max_rounds_;
  bool stop_when_all_decided_;
  TraceSink<X>* sink_;
  int n_;
  int time_ = 0;
  int start_time_ = 0;  ///< construction time (nonzero for restored instances)
  int undecided_;
  bool in_round_ = false;
  AdversaryHook adversary_;
  AgentSet decided_set_;  ///< same info as decided_, in the hook's currency
  std::vector<bool> decided_;
  std::vector<State> states_;
  std::vector<Action> actions_;  ///< the in-flight round's actions
  RunRecord record_;
  std::size_t bits_sent_ = 0;
  std::size_t messages_sent_ = 0;
};

}  // namespace eba
