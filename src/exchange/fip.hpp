// E_fip(n): the full-information exchange (paper §7, §A.2.7).
//
// Local states are ⟨time, init, G⟩ where G is the agent's communication
// graph; every round every agent broadcasts its current graph. Per §7 the
// decision history is *not* part of the local state (so corresponding runs
// of different action protocols have identical states); `FipState` carries a
// cached `decided` flag and an inferred-action table for the action
// protocol's convenience, but equality and hashing ignore both.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "core/types.hpp"
#include "graph/action_table.hpp"
#include "graph/comm_graph.hpp"
#include "graph/knowledge.hpp"

namespace eba {

struct FipState {
  int time = 0;
  AgentId self = 0;
  Value init = Value::zero;
  CommGraph graph;

  /// Cached decision status (derived information; excluded from equality).
  std::optional<Value> decided;
  /// Lazily filled inferred-action cache, owned by POpt (excluded from
  /// equality). Mutable so the action protocol, a pure function of the
  /// state, can memoize.
  mutable ActionTable inferred;
  /// Memoized cones and fault table of `graph`, keyed on its address and
  /// graph.revision(): FipExchange::update and update_round mutate the graph
  /// (merges or a union copy, then advance_round), which moves the revision
  /// strictly past every revision this graph carried before and lazily
  /// invalidates this. Excluded from equality; mutable for the same reason
  /// as `inferred`.
  mutable KnowledgeCache knowledge;

  friend bool operator==(const FipState& a, const FipState& b) {
    return a.time == b.time && a.self == b.self && a.init == b.init &&
           a.graph == b.graph;
  }
};

[[nodiscard]] inline std::size_t hash_value(const FipState& s) {
  std::size_t h = static_cast<std::size_t>(s.time);
  h = h * 31 + static_cast<std::size_t>(s.self);
  h = h * 31 + static_cast<std::size_t>(to_int(s.init));
  h = h * 31 + s.graph.hash();
  return h;
}

class FipExchange {
 public:
  using State = FipState;
  /// Graphs are immutable once sent; sharing avoids n copies per broadcast.
  using Message = std::shared_ptr<const CommGraph>;
  /// µ ignores the destination: the graph is broadcast to everyone.
  static constexpr bool kBroadcast = true;
  /// Borrowed-round δ (see sim/stepper.hpp): the engine hands update_round()
  /// bare graphs instead of shared_ptr messages.
  using Snapshot = CommGraph;

  explicit FipExchange(int n) : n_(n) {
    EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
  }
  /// Copies carry the agent count; the merge counter starts at zero.
  FipExchange(const FipExchange& other) : n_(other.n_) {}
  FipExchange& operator=(const FipExchange& other) {
    n_ = other.n_;
    merges_.store(0);
    return *this;
  }

  [[nodiscard]] int n() const { return n_; }

  [[nodiscard]] State initial_state(AgentId i, Value init) const {
    return State{.time = 0,
                 .self = i,
                 .init = init,
                 .graph = CommGraph(n_, i, init),
                 .decided = {},
                 .inferred = {},
                 .knowledge = {}};
  }

  /// µ: broadcast the full graph every round. The EBA-context constraint on
  /// µ is met because a receiver reconstructs the sender's state and infers
  /// its action, so decide(0)/decide(1)/other messages are distinguishable.
  [[nodiscard]] std::optional<Message> message(const State& s,
                                               const Action& /*a*/,
                                               AgentId /*dest*/) const {
    return std::make_shared<const CommGraph>(s.graph);
  }

  [[nodiscard]] std::size_t message_bits(const Message& m) const {
    return m->bit_size();
  }

  void update(State& s, const Action& a,
              std::span<const std::optional<Message>> inbox) const;

  // -- Borrowed-round δ (sim/stepper.hpp) ----------------------------------
  // E_fip broadcasts its graph every round, and δ is the union of the
  // received graphs plus the receiver's own new row. Every receiver that
  // heard the same sender set R computes the same union, so the engine hands
  // the whole round to update_round(), which builds U_R = ∪_{i ∈ R} G_i once
  // per distinct R. update_round() must stay observably identical to
  // update() on the equivalent inboxes; tests/test_workload.cpp checks every
  // agent's state after every round against the per-receiver reference.

  /// The broadcast-relevant part of a state, borrowed: µ(s, a, dest) is a
  /// copy of exactly this graph.
  [[nodiscard]] const Snapshot& snapshot(const State& s) const {
    return s.graph;
  }

  /// The graph a received message carries (the wire path decodes one
  /// message per sender and borrows its graph for every receiver).
  [[nodiscard]] const Snapshot& message_snapshot(const Message& m) const {
    return *m;
  }

  /// Prop 8.1 accounting; equals message_bits() on the copied message.
  [[nodiscard]] std::size_t snapshot_bits(const Snapshot& g) const {
    return g.bit_size();
  }

  /// δ for one whole round. `graphs[i]` is sender i's round graph;
  /// `received[j]` the senders whose round message reached j, j itself
  /// included. Receivers are grouped by received set R: U_R is built once
  /// (|R| - 1 merges, with merge()'s conflict checks), then every j with
  /// received set R copies U_R into its own graph storage and adds its own
  /// round row. All unions are built before any state is written, so
  /// `graphs[i]` may point at agent i's own state graph; it must not point
  /// into any other agent's state.
  void update_round(std::span<State> states, std::span<const Action> actions,
                    std::span<const Snapshot* const> graphs,
                    std::span<const AgentSet> received) const;

  /// CommGraph::merge calls made by update_round() through this exchange
  /// object so far, summed over every thread using it. An exact work count:
  /// a round costs Σ_R (|R| - 1) merges over its distinct received sets R.
  [[nodiscard]] std::uint64_t graph_merges() const {
    return merges_.load();
  }

 private:
  int n_;
  mutable std::atomic<std::uint64_t> merges_{0};
};

}  // namespace eba

// Deliberately not noexcept: libstdc++ then stores each node's hash code in
// unordered containers keyed on FipState, so bucket walks and rehashes
// compare cached codes instead of rehashing whole communication graphs.
template <>
struct std::hash<eba::FipState> {
  std::size_t operator()(const eba::FipState& s) const {
    return eba::hash_value(s);
  }
};
