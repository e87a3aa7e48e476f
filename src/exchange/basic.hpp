// E_basic(n): the basic information-exchange protocol (paper §6).
//
// Like E_min, but an undecided agent with initial preference 1 and jd = ⊥
// additionally broadcasts (init, 1) every round, and local states carry
// #1 — the number of (init, 1) messages received in the last round
// (including the agent's own; see the "Self-delivery" row of
// docs/FAILURE_MODELS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "core/types.hpp"

namespace eba {

/// Message alphabet: M0 = {decide0}, M1 = {decide1}, M2 = {init1, ⊥}.
enum class BasicMsg : std::uint8_t { decide0, decide1, init1 };

struct BasicState {
  int time = 0;
  Value init = Value::zero;
  std::optional<Value> decided;
  std::optional<Value> jd;
  int ones = 0;  ///< "#1": (init,1) messages received in the last round

  friend bool operator==(const BasicState&, const BasicState&) = default;
};

[[nodiscard]] std::size_t hash_value(const BasicState& s);

class BasicExchange {
 public:
  using State = BasicState;
  using Message = BasicMsg;
  /// µ ignores the destination: both message kinds are broadcast.
  static constexpr bool kBroadcast = true;

  explicit BasicExchange(int n) : n_(n) {
    EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
  }

  [[nodiscard]] int n() const { return n_; }

  [[nodiscard]] State initial_state(AgentId /*i*/, Value init) const {
    return State{.time = 0, .init = init, .decided = {}, .jd = {}, .ones = 0};
  }

  [[nodiscard]] std::optional<Message> message(const State& s, const Action& a,
                                               AgentId /*dest*/) const {
    if (a.is_decide())
      return a.value() == Value::zero ? BasicMsg::decide0 : BasicMsg::decide1;
    if (s.init == Value::one && !s.decided && !s.jd) return BasicMsg::init1;
    return std::nullopt;
  }

  /// Three-letter alphabet; 2 bits is the natural fixed-width encoding.
  [[nodiscard]] std::size_t message_bits(const Message& /*m*/) const { return 2; }

  void update(State& s, const Action& a,
              std::span<const std::optional<Message>> inbox) const;

 private:
  int n_;
};

}  // namespace eba

template <>
struct std::hash<eba::BasicState> {
  std::size_t operator()(const eba::BasicState& s) const noexcept {
    return eba::hash_value(s);
  }
};
