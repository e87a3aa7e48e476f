#include "exchange/fip.hpp"

#include <array>
#include <vector>

namespace eba {

void FipExchange::update(State& s, const Action& a,
                         std::span<const std::optional<Message>> inbox) const {
  EBA_REQUIRE(static_cast<int>(inbox.size()) == n_, "inbox size mismatch");
  AgentSet received;
  for (AgentId j = 0; j < n_; ++j)
    if (inbox[static_cast<std::size_t>(j)]) received.insert(j);

  s.graph.advance_round(s.self, received);
  for (AgentId j = 0; j < n_; ++j) {
    const auto& m = inbox[static_cast<std::size_t>(j)];
    if (m && j != s.self) s.graph.merge(**m);
  }

  s.time += 1;
  if (a.is_decide()) {
    EBA_REQUIRE(!s.decided, "double decision reached the exchange");
    s.decided = a.value();
  }
}

void FipExchange::update_round(std::span<State> states,
                               std::span<const Action> actions,
                               std::span<const Snapshot* const> graphs,
                               std::span<const AgentSet> received) const {
  const auto un = static_cast<std::size_t>(n_);
  EBA_REQUIRE(states.size() == un && actions.size() == un &&
                  graphs.size() == un && received.size() == un,
              "round size mismatch");

  // Distinct received sets in first-receiver order; group[j] indexes
  // receiver j's.
  std::array<AgentSet, kMaxAgents> sets;
  std::array<std::size_t, kMaxAgents> group;
  std::size_t distinct = 0;
  for (std::size_t j = 0; j < un; ++j) {
    EBA_REQUIRE(received[j].contains(static_cast<AgentId>(j)),
                "a receiver always hears its own broadcast");
    std::size_t g = 0;
    while (g < distinct && sets[g] != received[j]) ++g;
    if (g == distinct) sets[distinct++] = received[j];
    group[j] = g;
  }

  // U_R for every distinct R, before any state is written. A singleton R
  // (the receiver heard only itself) borrows its sender's graph as is.
  std::array<const CommGraph*, kMaxAgents> unions;
  std::vector<CommGraph> built;
  built.reserve(distinct);
  std::uint64_t merges = 0;
  for (std::size_t g = 0; g < distinct; ++g) {
    auto it = sets[g].begin();
    const CommGraph* first = graphs[static_cast<std::size_t>(*it)];
    if (sets[g].size() == 1) {
      unions[g] = first;
      continue;
    }
    CommGraph& u = built.emplace_back(*first);
    for (++it; it != sets[g].end(); ++it) {
      u.merge(*graphs[static_cast<std::size_t>(*it)]);
      ++merges;
    }
    unions[g] = &u;
  }
  merges_.fetch_add(merges);

  for (std::size_t j = 0; j < un; ++j) {
    State& s = states[j];
    const std::uint64_t before = s.graph.revision();
    const CommGraph& u = *unions[group[j]];
    if (&u != &s.graph) s.graph.assign(u);
    s.graph.advance_round(s.self, received[j]);
    // KnowledgeCache keys on (graph address, revision): a revision this
    // storage already carried would serve a stale fault table.
    EBA_REQUIRE(s.graph.revision() > before,
                "round δ must advance the graph revision");
    s.time += 1;
    if (actions[j].is_decide()) {
      EBA_REQUIRE(!s.decided, "double decision reached the exchange");
      s.decided = actions[j].value();
    }
  }
}

}  // namespace eba
