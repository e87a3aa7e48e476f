#include "net/bus.hpp"

namespace eba {

BusPool::BusPool(std::size_t capacity) : slots_(capacity) {
  EBA_REQUIRE(capacity >= 1, "bus pool needs at least one slot");
  free_.reserve(capacity);
  // Stack of free ids, lowest id on top: deterministic slot assignment for
  // single-threaded callers.
  for (std::size_t id = capacity; id > 0; --id) free_.push_back(id - 1);
}

BusPool::SlotId BusPool::acquire(FailurePattern alpha, int resume_round) {
  std::lock_guard lock(mu_);
  EBA_REQUIRE(resume_round >= 0, "resume round cannot be negative");
  EBA_REQUIRE(!free_.empty(), "bus pool exhausted");
  const SlotId id = free_.back();
  free_.pop_back();
  Slot& slot = slots_[id];
  slot.busy = true;
  slot.round = resume_round;
  slot.alpha = std::move(alpha);
  return id;
}

void BusPool::release(SlotId id) {
  std::lock_guard lock(mu_);
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "releasing a slot that is not in use");
  slots_[id].busy = false;
  slots_[id].alpha.reset();
  free_.push_back(id);
}

std::size_t BusPool::in_use() const {
  std::lock_guard lock(mu_);
  return slots_.size() - free_.size();
}

BusPool::BroadcastRound BusPool::filter_round(
    SlotId id, std::span<const std::optional<Bytes>> outbox) {
  // No lock: a slot is driven by exactly one worker at a time (the pool
  // mutex in acquire/release orders successive owners), and this touches
  // only per-slot state.
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "filter_round on a slot that is not in use");
  Slot& slot = slots_[id];
  const FailurePattern& alpha = *slot.alpha;
  const int n = alpha.n();
  EBA_REQUIRE(static_cast<int>(outbox.size()) == n, "outbox size mismatch");

  BroadcastRound res;
  res.round = slot.round;
  res.received.assign(static_cast<std::size_t>(n), AgentSet{});
  res.sent.assign(static_cast<std::size_t>(n), AgentSet{});
  res.delivered.assign(static_cast<std::size_t>(n), AgentSet{});
  for (AgentId from = 0; from < n; ++from) {
    if (!outbox[static_cast<std::size_t>(from)]) continue;
    res.sent[static_cast<std::size_t>(from)] =
        AgentSet::all(n).minus(AgentSet{from});
    for (AgentId to = 0; to < n; ++to) {
      if (!alpha.delivered(slot.round, from, to)) continue;
      res.received[static_cast<std::size_t>(to)].insert(from);
      if (to != from) res.delivered[static_cast<std::size_t>(from)].insert(to);
    }
  }
  slot.round += 1;
  return res;
}

BusPool::RoundResult BusPool::exchange_round(
    SlotId id, std::vector<std::optional<Bytes>> outbox) {
  BroadcastRound filtered = filter_round(id, outbox);
  const std::size_t n = outbox.size();
  RoundResult res;
  res.round = filtered.round;
  res.inbox.assign(n, std::vector<std::optional<Bytes>>(n));
  for (std::size_t to = 0; to < n; ++to)
    for (AgentId from : filtered.received[to])
      res.inbox[to][static_cast<std::size_t>(from)] =
          outbox[static_cast<std::size_t>(from)];
  res.sent = std::move(filtered.sent);
  res.delivered = std::move(filtered.delivered);
  return res;
}

BusPool::RoundResult BusPool::exchange_round(
    SlotId id, std::vector<std::vector<std::optional<Bytes>>> outbox) {
  // Same threading contract as filter_round: no lock, one worker per slot at
  // a time.
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "exchange_round on a slot that is not in use");
  Slot& slot = slots_[id];
  const FailurePattern& alpha = *slot.alpha;
  const int n = alpha.n();
  EBA_REQUIRE(static_cast<int>(outbox.size()) == n, "outbox size mismatch");

  RoundResult res;
  res.round = slot.round;
  res.inbox.assign(
      static_cast<std::size_t>(n),
      std::vector<std::optional<Bytes>>(static_cast<std::size_t>(n)));
  res.sent.assign(static_cast<std::size_t>(n), AgentSet{});
  res.delivered.assign(static_cast<std::size_t>(n), AgentSet{});
  for (AgentId from = 0; from < n; ++from) {
    auto& row = outbox[static_cast<std::size_t>(from)];
    EBA_REQUIRE(static_cast<int>(row.size()) == n, "outbox row size mismatch");
    for (AgentId to = 0; to < n; ++to) {
      auto& payload = row[static_cast<std::size_t>(to)];
      if (!payload) continue;
      if (to != from) res.sent[static_cast<std::size_t>(from)].insert(to);
      if (!alpha.delivered(slot.round, from, to)) continue;
      res.inbox[static_cast<std::size_t>(to)][static_cast<std::size_t>(from)] =
          std::move(*payload);
      if (to != from) res.delivered[static_cast<std::size_t>(from)].insert(to);
    }
  }
  slot.round += 1;
  return res;
}

void BusPool::update_pattern(SlotId id, const FailurePattern& alpha) {
  // No lock, as in exchange_round: only the slot's current worker calls in.
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "update_pattern on a slot that is not in use");
  Slot& slot = slots_[id];
  EBA_REQUIRE(slot.alpha && slot.alpha->n() == alpha.n(),
              "update_pattern must keep the agent count");
  slot.alpha = alpha;
}

int BusPool::completed_rounds(SlotId id) const {
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "completed_rounds on a slot that is not in use");
  return slots_[id].round;
}

RoundBus::RoundBus(int n, FailurePattern alpha)
    : n_(n),
      alpha_(std::move(alpha)),
      outbox_(static_cast<std::size_t>(n)),
      decided_(static_cast<std::size_t>(n), 0),
      results_(static_cast<std::size_t>(n)) {
  EBA_REQUIRE(alpha_.n() == n, "pattern/bus agent count mismatch");
}

RoundBus::RoundResult RoundBus::exchange(AgentId i,
                                         std::optional<Bytes> broadcast,
                                         bool decided) {
  std::unique_lock lock(mu_);
  EBA_REQUIRE(i >= 0 && i < n_, "agent id out of range");
  outbox_[static_cast<std::size_t>(i)] = std::move(broadcast);
  decided_[static_cast<std::size_t>(i)] = decided ? 1 : 0;
  ++submitted_;
  const std::uint64_t gen = generation_;

  if (submitted_ == n_) {
    bool all = true;
    for (char d : decided_) all = all && d != 0;

    std::vector<AgentSet> sent(static_cast<std::size_t>(n_));
    std::vector<AgentSet> delivered(static_cast<std::size_t>(n_));
    for (AgentId j = 0; j < n_; ++j) {
      auto& res = results_[static_cast<std::size_t>(j)];
      res.round = round_;
      res.all_decided = all;
      res.inbox.assign(static_cast<std::size_t>(n_), std::nullopt);
    }
    for (AgentId from = 0; from < n_; ++from) {
      const auto& payload = outbox_[static_cast<std::size_t>(from)];
      if (!payload) continue;
      sent[static_cast<std::size_t>(from)] =
          AgentSet::all(n_).minus(AgentSet{from});
      for (AgentId to = 0; to < n_; ++to) {
        if (!alpha_.delivered(round_, from, to)) continue;
        results_[static_cast<std::size_t>(to)]
            .inbox[static_cast<std::size_t>(from)] = *payload;
        if (to != from) delivered[static_cast<std::size_t>(from)].insert(to);
      }
    }
    sent_log_.push_back(std::move(sent));
    delivered_log_.push_back(std::move(delivered));

    for (auto& slot : outbox_) slot.reset();
    submitted_ = 0;
    ++round_;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return generation_ != gen; });
  }
  return std::move(results_[static_cast<std::size_t>(i)]);
}

std::vector<AgentSet> RoundBus::delivered_log(int round) const {
  std::lock_guard lock(mu_);
  EBA_REQUIRE(round >= 0 && round < static_cast<int>(delivered_log_.size()),
              "round not completed");
  return delivered_log_[static_cast<std::size_t>(round)];
}

std::vector<AgentSet> RoundBus::sent_log(int round) const {
  std::lock_guard lock(mu_);
  EBA_REQUIRE(round >= 0 && round < static_cast<int>(sent_log_.size()),
              "round not completed");
  return sent_log_[static_cast<std::size_t>(round)];
}

int RoundBus::completed_rounds() const {
  std::lock_guard lock(mu_);
  return static_cast<int>(delivered_log_.size());
}

}  // namespace eba
