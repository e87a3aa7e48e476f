// Byte-level message buses with omission fault injection.
//
// Two realizations of the paper's synchronous round structure over real
// byte payloads:
//
//  * `BusPool` — the instance-oriented bus. A pool of slots, each hosting
//    one agreement instance's rounds: the slot owns the instance's failure
//    pattern and round counter, and `filter_round()` passes one full round
//    of broadcasts through the adversary filter synchronously. It reports
//    who heard whom and leaves the payloads in the caller's outbox, so a
//    broadcast round costs O(n) payload work, not one copy per delivered
//    edge; `exchange_round()` adds per-receiver inbox copies for callers
//    that want them, and routes per-destination payloads. Slots
//    own no threads; whichever worker is currently advancing the instance
//    (net/workload.hpp multiplexes thousands of instances over a fixed
//    worker pool) drives the slot. Distinct slots may be driven
//    concurrently; one slot must be driven by one worker at a time.
//  * `RoundBus` — the thread-per-agent bus kept for the legacy cluster
//    runtime and barrier tests: each of n agent threads calls exchange()
//    once per round, the call blocks until every agent submitted, and each
//    thread gets its filtered inbox back.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "failure/pattern.hpp"
#include "net/serialize.hpp"

namespace eba {

/// A pool of threadless bus slots for concurrent agreement instances.
class BusPool {
 public:
  using SlotId = std::size_t;

  /// One completed round as seen by the whole instance.
  struct RoundResult {
    int round = 0;  ///< the round index that was just exchanged (0-based)
    /// inbox[to][from]: payload received (self-delivery included).
    std::vector<std::vector<std::optional<Bytes>>> inbox;
    /// sent[from]: receivers (excluding `from`) addressed by a non-⊥ payload.
    std::vector<AgentSet> sent;
    /// delivered[from]: subset of sent[from] the adversary delivered.
    std::vector<AgentSet> delivered;
  };

  explicit BusPool(std::size_t capacity);

  /// Claims a free slot for an instance governed by `alpha`. Throws when the
  /// pool is exhausted — admission control is the caller's job.
  /// `resume_round` seeds the slot's round counter: a crashed instance that
  /// is restored from a round-`m` checkpoint re-acquires a slot with
  /// resume_round = m so the wire path filters with the right round index.
  [[nodiscard]] SlotId acquire(FailurePattern alpha, int resume_round = 0);
  /// Returns a slot to the pool; the slot's round counter resets.
  void release(SlotId id);

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t in_use() const;

  /// One broadcast round as the adversary filter sees it: who heard whom.
  /// The payloads never move; they stay in the caller's outbox.
  struct BroadcastRound {
    int round = 0;  ///< the round index that was just exchanged (0-based)
    /// received[to]: senders whose payload reached `to` (self included when
    /// `to` sent a non-⊥ payload).
    std::vector<AgentSet> received;
    /// sent[from]: receivers (excluding `from`) addressed by a non-⊥ payload.
    std::vector<AgentSet> sent;
    /// delivered[from]: subset of sent[from] the adversary delivered.
    std::vector<AgentSet> delivered;
  };

  /// Moves one round of broadcast payloads (outbox[i] = agent i's payload,
  /// nullopt = ⊥) through the slot's failure pattern. O(n) payload work:
  /// nothing is copied, every receiver of sender i reads outbox[i].
  /// Synchronous: the caller is the instance's current worker and submits
  /// all n payloads at once.
  [[nodiscard]] BroadcastRound filter_round(
      SlotId id, std::span<const std::optional<Bytes>> outbox);

  /// filter_round() plus a per-receiver copy of every delivered payload:
  /// inbox[to][from] = outbox[from] iff from ∈ received[to]. For callers
  /// that want one inbox per receiver.
  [[nodiscard]] RoundResult exchange_round(
      SlotId id, std::vector<std::optional<Bytes>> outbox);

  /// Per-destination variant for non-broadcast exchanges (outbox[from][to] =
  /// the payload `from` addresses to `to`, nullopt = ⊥). sent[from] collects
  /// the receivers (excluding `from`) with a non-⊥ payload; delivery is
  /// filtered per (from, to) edge, and a payload addressed to self always
  /// arrives — the semantics of the stepper's per-destination µ loop
  /// (sim/stepper.hpp run_round), which the wire path must mirror
  /// bit-for-bit.
  [[nodiscard]] RoundResult exchange_round(
      SlotId id, std::vector<std::vector<std::optional<Bytes>>> outbox);

  /// Replaces the slot's failure pattern mid-instance. The adaptive
  /// workload driver (net/workload.hpp run_adaptive_workload) mirrors each
  /// stepper's online drops into the slot after begin_round(), before the
  /// round's payloads move — without this the byte-level filter would run
  /// on the strategy's base pattern. Same threading contract as
  /// exchange_round: the caller is the slot's current worker.
  void update_pattern(SlotId id, const FailurePattern& alpha);

  /// Rounds completed by the instance currently occupying the slot.
  [[nodiscard]] int completed_rounds(SlotId id) const;

 private:
  struct Slot {
    bool busy = false;
    int round = 0;
    std::optional<FailurePattern> alpha;
  };

  mutable std::mutex mu_;  ///< guards acquire/release bookkeeping only
  std::vector<Slot> slots_;
  std::vector<SlotId> free_;
};

class RoundBus {
 public:
  struct RoundResult {
    int round = 0;
    /// inbox[j]: payload received from agent j (self-delivery included).
    std::vector<std::optional<Bytes>> inbox;
    /// True iff every agent reported `decided` when submitting this round.
    bool all_decided = false;
  };

  RoundBus(int n, FailurePattern alpha);

  /// Submits agent `i`'s broadcast for the current round (nullopt = ⊥) and
  /// its decision status, blocks for the round barrier, and returns the
  /// filtered inbox. Every agent must call this exactly once per round.
  [[nodiscard]] RoundResult exchange(AgentId i, std::optional<Bytes> broadcast,
                                     bool decided);

  /// Delivery log: delivered(m)[i] = receivers (other than i) that got i's
  /// round-(m+1) payload. A round's log exists only once the round has
  /// completed (all n agents returned from exchange()); asking for a round
  /// that has not completed throws, it never returns a partial log.
  [[nodiscard]] std::vector<AgentSet> delivered_log(int round) const;
  /// Same completion contract as delivered_log().
  [[nodiscard]] std::vector<AgentSet> sent_log(int round) const;
  [[nodiscard]] int completed_rounds() const;

 private:
  const int n_;
  const FailurePattern alpha_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  int round_ = 0;
  int submitted_ = 0;
  std::vector<std::optional<Bytes>> outbox_;
  std::vector<char> decided_;
  std::vector<RoundResult> results_;  ///< per receiver, for the finished round
  std::vector<std::vector<AgentSet>> sent_log_;
  std::vector<std::vector<AgentSet>> delivered_log_;
};

}  // namespace eba
