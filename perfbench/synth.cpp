// synth_kbp: KBP P1 synthesis over canonical_context_worlds({n=5, t=1,
// rounds=2}), horizon 4, orbit reuse on — the only workload that exercises
// kripke/: class dedup, the common-knowledge BFS memo, relabeling and the
// net/pool fan-out. Every job's decisions must equal a direct P_opt
// simulate() of every world.
//
// The inputs are the context itself, so the seed changes nothing here; it
// is stamped into the output like everywhere else.
#include <optional>
#include <vector>

#include "action/p_opt.hpp"
#include "core/spec.hpp"
#include "exchange/fip.hpp"
#include "kripke/canonical_worlds.hpp"
#include "kripke/synthesis.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace eba;

constexpr int kN = 5;
constexpr int kT = 1;
constexpr int kRounds = 2;
constexpr int kHorizon = 4;

using Decisions = std::vector<std::vector<std::optional<Decision>>>;

CanonicalContext make_context() {
  return canonical_context_worlds({.n = kN, .t = kT, .rounds = kRounds});
}

struct Job {
  SynthesisResult<FipExchange> result;
  double seconds = 0;
};

Job synthesize(const CanonicalContext& ctx, int workers) {
  KbpSynthesizer<FipExchange> synth(
      FipExchange(kN), kT, KbpProgram::p1,
      {.dedup_worlds = true, .memoize = true, .workers = workers});
  Job job;
  const Clock::time_point start = Clock::now();
  job.result = synth.run(ctx.worlds, kHorizon, ctx.orbits);
  job.seconds = seconds_since(start);
  return job;
}

/// P_opt simulated directly on every world: the reference decisions. Each
/// reference run must itself satisfy the EBA specification strictly.
Decisions reference_decisions(Report& rep, const CanonicalContext& ctx) {
  const FipExchange x(kN);
  const POpt act(kN, kT);
  SimulateOptions opt;
  opt.max_rounds = kHorizon;
  opt.stop_when_all_decided = false;
  Decisions out;
  out.reserve(ctx.worlds.size());
  std::size_t bad = 0;
  for (const auto& [alpha, prefs] : ctx.worlds) {
    const auto run = simulate(x, act, alpha, prefs, kT, opt);
    bad += !check_eba(run.record).ok_strict();
    auto& d = out.emplace_back();
    for (AgentId i = 0; i < kN; ++i) d.push_back(run.record.decision(i));
  }
  rep.check("reference_runs_strict_eba", out.size(), bad);
  return out;
}

/// Worlds whose synthesized decisions differ from the reference.
std::size_t mismatches(const Decisions& got, const Decisions& ref) {
  std::size_t bad = got.size() != ref.size() ? ref.size() : 0;
  for (std::size_t w = 0; w < ref.size() && w < got.size(); ++w)
    bad += got[w] != ref[w];
  return bad;
}

double decision_round_mean(const CanonicalContext& ctx, const Decisions& d) {
  double sum = 0;
  for (std::size_t w = 0; w < ctx.worlds.size(); ++w) {
    int worst = 0;
    for (AgentId i : ctx.worlds[w].first.nonfaulty())
      if (const auto& dec = d[w][static_cast<std::size_t>(i)])
        worst = std::max(worst, dec->round);
    sum += worst;
  }
  return sum / static_cast<double>(ctx.worlds.size());
}

}  // namespace

Report run_synth_kbp(const Args& args) {
  Report rep;
  CanonicalContext ctx;
  rep.metric("setup_s", setup_seconds([&] { ctx = make_context(); }));
  const Decisions ref = reference_decisions(rep, ctx);
  const double worlds = static_cast<double>(ctx.worlds.size());

  if (!args.trace) {
    std::vector<double> rate;
    std::vector<double> decided_rate;
    Decisions first;
    std::size_t synthesized = 0;
    std::size_t bad = 0;
    double longest = 0;
    CpuRotation cpus;
    const Clock::time_point start = Clock::now();
    // Jobs back to back while another whole job fits the window.
    while (rate.size() < 3 || seconds_since(start) + longest <= args.seconds) {
      cpus.next();
      const Job job = synthesize(ctx, args.workers);
      const std::size_t wrong = mismatches(job.result.decisions, ref);
      longest = std::max(longest, job.seconds);
      rate.push_back(worlds / job.seconds);
      decided_rate.push_back((worlds - static_cast<double>(wrong)) /
                             job.seconds);
      synthesized += ctx.worlds.size();
      bad += wrong;
      if (first.empty()) first = job.result.decisions;
    }
    rep.check("synthesized_equals_p_opt", synthesized, bad);
    rep.metric("worlds_per_s", median(rate));
    rate_samples(rep, rate);
    rep.metric("decided_per_s", median(decided_rate));
    rep.counter("decision_round_mean", decision_round_mean(ctx, first));
    return rep;
  }

  Tracer tr;
  const Clock::time_point traced_start = Clock::now();
  CanonicalContext traced_ctx = [&] {
    auto sp = tr.span(Layer::kripke_context);
    return make_context();
  }();
  Job traced_job = [&] {
    auto sp = tr.span(Layer::kripke_synth);
    return synthesize(traced_ctx, 1);
  }();
  const double traced_wall = seconds_since(traced_start);
  const LayerTotals lt = tr.totals();
  rep.check("traced_context_equals_untraced", 1,
            traced_ctx.worlds != ctx.worlds ||
                traced_ctx.representatives != ctx.representatives);

  std::vector<double> t1;
  std::vector<double> tw;
  std::size_t synthesized = ctx.worlds.size();
  std::size_t bad = mismatches(traced_job.result.decisions, ref);
  const Clock::time_point start = Clock::now();
  while (t1.empty() || seconds_since(start) < args.seconds) {
    for (int workers : {1, args.scale_workers}) {
      const Job job = synthesize(ctx, workers);
      (workers == 1 ? t1 : tw).push_back(job.seconds);
      synthesized += ctx.worlds.size();
      bad += mismatches(job.result.decisions, ref);
      bad += job.result.stats.evaluated_rounds !=
             traced_job.result.stats.evaluated_rounds;
    }
  }
  rep.check("synthesized_equals_p_opt", synthesized, bad);

  const SynthesisStats& st = traced_job.result.stats;
  const double context_s = lt.self(Layer::kripke_context);
  const double synth_s = lt.self(Layer::kripke_synth);
  rep.metric("kripke.context_s", context_s);
  rep.metric("kripke.context.share", context_s / traced_wall);
  rep.metric("kripke.synth_s", synth_s);
  rep.metric("kripke.synth.share", synth_s / traced_wall);
  rep.counter("kripke.evaluated_rounds",
              static_cast<double>(st.evaluated_rounds));
  rep.counter("kripke.world_rounds", static_cast<double>(st.world_rounds));
  rep.counter("kripke.common_bfs", static_cast<double>(st.common_bfs));
  rep.counter("kripke.eval_frac", static_cast<double>(st.evaluated_rounds) /
                                      static_cast<double>(st.world_rounds));
  rep.metric("kripke.scaling_eff",
             median(t1) / (args.scale_workers * median(tw)));
  rep.metric("trace.overhead_frac", 1.0 - median(t1) / synth_s);
  rep.metric("trace.unattributed_frac",
             1.0 - (context_s + synth_s) / traced_wall);
  rep.info("worlds", worlds);
  rep.info("representatives", static_cast<double>(ctx.representatives));
  write_spans(rep, args, tr.spans());
  return rep;
}

}  // namespace perfbench
