#include "sim/drivers.hpp"

#include "action/authenticated.hpp"
#include "action/early_stop.hpp"
#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "exchange/authenticated.hpp"
#include "exchange/basic.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "exchange/report.hpp"
#include "sim/stepper.hpp"

namespace eba {

int RunSummary::last_nonfaulty_round() const {
  int worst = 0;
  for (AgentId i : record.nonfaulty) {
    const auto& d = decisions[static_cast<std::size_t>(i)];
    if (!d) return -1;
    worst = std::max(worst, d->round);
  }
  return worst;
}

int RunSummary::round_of(AgentId i) const {
  const auto& d = decisions[static_cast<std::size_t>(i)];
  return d ? d->round : -1;
}

RunSummary summarize(RunRecord record, std::size_t bits_sent,
                     std::size_t messages_sent) {
  RunSummary s;
  s.n = record.n;
  s.rounds = record.rounds;
  s.bits_sent = bits_sent;
  s.messages_sent = messages_sent;
  s.decisions.reserve(static_cast<std::size_t>(s.n));
  for (AgentId i = 0; i < s.n; ++i) s.decisions.push_back(record.decision(i));
  s.record = std::move(record);
  return s;
}

namespace {

template <class X, class P>
RunSummary drive(const X& x, const P& p, const FailurePattern& alpha,
                 const std::vector<Value>& inits, int t, int max_rounds) {
  // A bare stepper: the drivers never read intermediate states, so the run
  // advances in place with no per-round state materialization.
  Stepper<X, P> stepper(x, p, alpha, inits, t, {.max_rounds = max_rounds});
  while (stepper.step()) {
  }
  return summarize(stepper.take_record(), stepper.bits_sent(),
                   stepper.messages_sent());
}

}  // namespace

RunDriver make_min_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(MinExchange(n), PMin(n, t), alpha, inits, t, max_rounds);
  };
}

RunDriver make_basic_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(BasicExchange(n), PBasic(n, t), alpha, inits, t, max_rounds);
  };
}

RunDriver make_fip_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(FipExchange(n), POpt(n, t), alpha, inits, t, max_rounds);
  };
}

RunDriver make_fip_p0_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(FipExchange(n), POpt(n, t, POpt::CommonKnowledge::disabled),
                 alpha, inits, t, max_rounds);
  };
}

RunDriver make_go_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(FipExchange(n), POptGo(n, t), alpha, inits, t, max_rounds);
  };
}

RunDriver make_go_p0_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(FipExchange(n),
                 POptGo(n, t, POptGo::CommonKnowledge::disabled), alpha, inits,
                 t, max_rounds);
  };
}

RunDriver make_early_stop_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(ReportExchange(n, t), PEarlyStop(n, t), alpha, inits, t,
                 max_rounds);
  };
}

RunDriver make_auth_driver(int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return drive(AuthExchange(n, t, kDefaultAuthKey), PAuth(n, t), alpha,
                 inits, t, max_rounds);
  };
}

const char* to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::p_min:
      return "P_min";
    case ProtocolKind::p_basic:
      return "P_basic";
    case ProtocolKind::p_opt:
      return "P_opt";
    case ProtocolKind::p_opt_p0:
      return "P_opt_p0";
    case ProtocolKind::p_opt_go:
      return "P_opt_go";
    case ProtocolKind::p_opt_go_p0:
      return "P_opt_go_p0";
    case ProtocolKind::early_stop:
      return "P_es";
    case ProtocolKind::authenticated:
      return "P_auth";
  }
  return "?";
}

FailureModel model_of(ProtocolKind k) {
  return k == ProtocolKind::p_opt_go || k == ProtocolKind::p_opt_go_p0
             ? FailureModel::general
             : FailureModel::sending;
}

RunDriver make_driver(ProtocolKind k, int n, int t, int max_rounds) {
  switch (k) {
    case ProtocolKind::p_min:
      return make_min_driver(n, t, max_rounds);
    case ProtocolKind::p_basic:
      return make_basic_driver(n, t, max_rounds);
    case ProtocolKind::p_opt:
      return make_fip_driver(n, t, max_rounds);
    case ProtocolKind::p_opt_p0:
      return make_fip_p0_driver(n, t, max_rounds);
    case ProtocolKind::p_opt_go:
      return make_go_driver(n, t, max_rounds);
    case ProtocolKind::p_opt_go_p0:
      return make_go_p0_driver(n, t, max_rounds);
    case ProtocolKind::early_stop:
      return make_early_stop_driver(n, t, max_rounds);
    case ProtocolKind::authenticated:
      return make_auth_driver(n, t, max_rounds);
  }
  EBA_REQUIRE(false, "unknown protocol kind");
  return {};
}

std::vector<NamedDriver> paper_drivers(int n, int t, int max_rounds) {
  return {{"P_min", make_min_driver(n, t, max_rounds)},
          {"P_basic", make_basic_driver(n, t, max_rounds)},
          {"P_fip", make_fip_driver(n, t, max_rounds)}};
}

}  // namespace eba
