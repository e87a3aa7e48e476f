// sweep_go: one exhaustive representative-world spec sweep of P_opt_go over
// go_config(5, 2, 1), in memory on one thread — the paper's verification
// workload. Every representative world runs through the GO driver and
// check_eba strict, and the orbit weights must cover the whole space.
//
// The inputs are the configuration itself, so the seed changes nothing
// here; it is stamped into the output like everywhere else.
#include <cstdint>
#include <vector>

#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "failure/orbit_sweep.hpp"
#include "sim/drivers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace eba;

constexpr int kN = 5;
constexpr int kT = 2;
constexpr int kRounds = 1;
/// Worlds between two CPU steps of the measured sweeps (about 0.1 s).
constexpr std::uint64_t kWorldsPerCpuStep = 4096;

struct Context {
  EnumerationConfig cfg;
  std::uint64_t space = 0;  ///< every (adversary, preference vector) world
  RunDriver drive;
};

Context make_context() {
  Context c;
  c.cfg = go_config(kN, kT, kRounds);
  c.space = count_go_adversaries(c.cfg) << kN;
  c.drive = make_go_driver(kN, kT);
  return c;
}

struct Sweep {
  double seconds = 0;
  std::uint64_t worlds = 0;    ///< representative worlds visited
  std::uint64_t passed = 0;    ///< ... that pass check_eba strict
  std::uint64_t covered = 0;   ///< total orbit weight visited
  double weighted_round = 0;   ///< Σ weight × last nonfaulty decision round
  double rounds = 0;           ///< Σ simulated rounds over visited worlds
};

/// One full sweep; with a tracer, spans around the callback, the RunDriver
/// call and the spec check; with a rotation, a CPU step every
/// kWorldsPerCpuStep worlds.
Sweep sweep(const Context& c, Tracer* tr, CpuRotation* cpus = nullptr) {
  Sweep s;
  const Clock::time_point start = Clock::now();
  s.covered = for_each_representative_world(
      c.cfg, [&](const FailurePattern& alpha, const std::vector<Value>& prefs,
                 std::uint64_t weight) {
        const auto world = static_cast<std::uint32_t>(s.worlds);
        if (cpus && s.worlds % kWorldsPerCpuStep == 0) cpus->next();
        in_span(tr, Layer::sweep_world, world, [&] {
          const RunSummary run = in_span(tr, Layer::sim_drive, world,
                                         [&] { return c.drive(alpha, prefs); });
          const bool ok = in_span(tr, Layer::core_spec, world, [&] {
            return check_eba(run.record).ok_strict();
          });
          s.worlds += 1;
          s.passed += ok;
          s.rounds += run.rounds;
          s.weighted_round += static_cast<double>(weight) *
                              static_cast<double>(run.last_nonfaulty_round());
        });
        return true;
      });
  s.seconds = seconds_since(start);
  return s;
}

void check_sweep(Report& rep, const Context& c, const Sweep& s) {
  rep.check("worlds_strict_eba", s.worlds, s.worlds - s.passed);
  rep.check("covered_equals_space", 1, s.covered != c.space);
}

}  // namespace

Report run_sweep_go(const Args& args) {
  Report rep;
  Context ctx;
  rep.metric("setup_s", setup_seconds([&] { ctx = make_context(); }));

  if (!args.trace) {
    std::vector<double> world_rate;
    std::vector<double> decided_rate;
    double weighted_round = 0;
    const Clock::time_point start = Clock::now();
    double longest = 0;
    CpuRotation cpus;
    // Sweep back to back while another whole sweep fits the window.
    while (world_rate.empty() ||
           seconds_since(start) + longest <= args.seconds) {
      const Sweep s = sweep(ctx, nullptr, &cpus);
      check_sweep(rep, ctx, s);
      longest = std::max(longest, s.seconds);
      world_rate.push_back(static_cast<double>(s.worlds) / s.seconds);
      decided_rate.push_back(static_cast<double>(s.passed) / s.seconds);
      weighted_round = s.weighted_round / static_cast<double>(s.covered);
    }
    rep.metric("worlds_per_s", median(world_rate));
    rate_samples(rep, world_rate);
    rep.metric("decided_per_s", median(decided_rate));
    rep.counter("decision_round_mean", weighted_round);
    return rep;
  }

  const Sweep plain = sweep(ctx, nullptr);
  check_sweep(rep, ctx, plain);
  Tracer tr;
  tr.reserve(3 * plain.worlds);
  const Sweep traced = sweep(ctx, &tr);
  check_sweep(rep, ctx, traced);
  rep.check("traced_sweep_equals_untraced", 1,
            traced.worlds != plain.worlds || traced.covered != plain.covered ||
                traced.rounds != plain.rounds ||
                traced.weighted_round != plain.weighted_round);

  const LayerTotals lt = tr.totals();
  const double worlds = static_cast<double>(traced.worlds);
  const double wall = traced.seconds;
  const double enumeration = wall - lt.total(Layer::sweep_world);
  rep.metric("failure.enum_us_per_world", enumeration * 1e6 / worlds);
  rep.metric("failure.enum.share", enumeration / wall);
  rep.metric("sim.drive_us_per_world",
             lt.self(Layer::sim_drive) * 1e6 / worlds);
  rep.metric("sim.drive.share", lt.self(Layer::sim_drive) / wall);
  rep.metric("core.spec_us_per_world",
             lt.self(Layer::core_spec) * 1e6 / worlds);
  rep.metric("core.spec.share", lt.self(Layer::core_spec) / wall);
  rep.counter("failure.worlds", worlds);
  rep.counter("failure.covered", static_cast<double>(traced.covered));
  rep.counter("sim.rounds_per_world", traced.rounds / worlds);
  rep.metric("trace.overhead_frac", 1.0 - plain.seconds / traced.seconds);
  // What no layer span covers: the callback's own glue.
  rep.metric("trace.unattributed_frac", lt.self(Layer::sweep_world) / wall);
  rep.info("space", static_cast<double>(ctx.space));
  write_spans(rep, args, tr.spans());
  return rep;
}

}  // namespace perfbench
