// The two wire workloads: closed-loop batches of concurrent agreement
// instances through `run_workload`, n = 16, t = 4.
//
//   wire_fip      P_opt over E_fip, durability off — the knowledge tests,
//                 CommGraph merges and whole-graph codecs carry the load.
//   wire_durable  P_es over E_report with a durable store on a fresh MemVfs
//                 per batch, one checkpoint per round, EBTR traces and one
//                 seeded mid-round crash per instance — the journal,
//                 checkpoint and audit layers carry the load.
//
// The traced pass re-drives the same batch on one worker through the same
// public calls run_workload makes (net/workload.hpp drive_workload), with a
// span around each, and must reproduce run_workload's records and traces.
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "action/early_stop.hpp"
#include "action/p_opt.hpp"
#include "audit/trace_file.hpp"
#include "bench_util.hpp"
#include "core/spec.hpp"
#include "exchange/fip.hpp"
#include "exchange/report.hpp"
#include "failure/generators.hpp"
#include "net/workload.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "store/run_log.hpp"
#include "store/vfs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace eba;

constexpr int kN = 16;
constexpr int kT = 4;
constexpr std::size_t kBatch = 1024;     ///< instances per run_workload call
constexpr std::size_t kPoolBatches = 4;  ///< distinct batches cycled through
constexpr std::size_t kSampleChecks = 64;
constexpr std::uint32_t kPageSize = 256;  ///< as in the repo's crash storms
const char* const kStoreRoot = "bench";

struct Batch {
  std::vector<InstanceSpec> specs;
  CrashSchedule crashes;  ///< empty unless durable
};

/// One batch of the four-part adversary mix, interleaved so every worker
/// sees every kind: failure-free; sampled SO(t) drops; f in [0, t] silent
/// agents with unanimous preference 1; the hidden 0-chain with init_0 = 0.
Batch make_batch(std::uint64_t seed, bool durable) {
  Rng rng(seed);
  Batch b;
  b.specs.reserve(kBatch);
  for (std::size_t k = 0; k < kBatch; ++k) {
    switch (k % 4) {
      case 0:
        b.specs.push_back(
            {FailurePattern::failure_free(kN), sample_preferences(kN, rng)});
        break;
      case 1: {
        FailurePattern alpha = sample_adversary(kN, kT, kT + 2, 0.3, rng);
        b.specs.push_back({std::move(alpha), sample_preferences(kN, rng)});
        break;
      }
      case 2: {
        const int f = rng.below(kT + 1);
        AgentSet silent;
        while (silent.size() < f) silent.insert(rng.below(kN));
        b.specs.push_back({silent_agents_pattern(kN, silent, kT + 3),
                           bench::all_ones(kN)});
        break;
      }
      default:
        b.specs.push_back({bench::hidden_chain_pattern(kN, kT, kT + 3),
                           bench::one_zero(kN)});
    }
  }
  if (durable)
    b.crashes = CrashSchedule::seeded_mid_round(kBatch, kT + 2,
                                                seed ^ 0x9e3779b97f4a7c15ull);
  return b;
}

std::vector<Batch> make_pool(std::uint64_t seed, bool durable) {
  std::vector<Batch> pool;
  for (std::size_t b = 0; b < kPoolBatches; ++b)
    pool.push_back(make_batch(seed * 1000003ull + b, durable));
  return pool;
}

bool nonfaulty_decided(const RunRecord& r) {
  for (AgentId i : r.nonfaulty)
    if (!r.decision(i)) return false;
  return true;
}

int last_nonfaulty_round(const RunRecord& r) {
  int worst = 0;
  for (AgentId i : r.nonfaulty)
    if (const auto d = r.decision(i)) worst = std::max(worst, d->round);
  return worst;
}

template <class X>
struct BatchRun {
  WorkloadResult<X> result;
  double seconds = 0;
};

/// One closed-loop call: the whole batch admitted at once, `workers`
/// threads, durability as the workload prescribes.
template <class X, class P>
BatchRun<X> run_batch(const X& x, const P& act, const Batch& batch,
                      int workers, bool durable) {
  MemVfs vfs;
  DurableStoreOptions store;
  store.vfs = &vfs;
  store.root = kStoreRoot;
  store.journal.page_size = kPageSize;
  WorkloadOptions opt;
  opt.workers = workers;
  if (durable) {
    opt.snapshot_every = 1;
    opt.crashes = &batch.crashes;
    opt.record_traces = true;
    opt.store = &store;
  }
  BatchRun<X> out;
  const Clock::time_point start = Clock::now();
  out.result = run_workload(x, act, std::span(batch.specs), kT, opt);
  out.seconds = seconds_since(start);
  return out;
}

/// Instances whose nonfaulty agents all decided and whose record passes
/// check_eba strict.
template <class X>
std::size_t count_decided(const WorkloadResult<X>& r) {
  std::size_t ok = 0;
  for (const auto& inst : r.instances)
    ok += nonfaulty_decided(inst.record) && check_eba(inst.record).ok_strict();
  return ok;
}

template <class X>
std::size_t count_mismatches(const WorkloadResult<X>& r,
                             const std::vector<RunRecord>& ref) {
  std::size_t bad = 0;
  for (std::size_t k = 0; k < ref.size(); ++k)
    bad += !(k < r.instances.size() && r.instances[k].record == ref[k]);
  return bad;
}

template <class X>
std::vector<RunRecord> records_of(const WorkloadResult<X>& r) {
  std::vector<RunRecord> out;
  out.reserve(r.instances.size());
  for (const auto& inst : r.instances) out.push_back(inst.record);
  return out;
}

// ---------------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------------

/// Exact work counts of one traced pass.
struct PassCounts {
  double bits = 0;
  double messages = 0;
  double encode_bytes = 0;
  double decode_calls = 0;
  double sent_edges = 0;
  double delivered_edges = 0;
  double checkpoint_bytes = 0;
  double store_records = 0;
  double store_bytes = 0;
  double syncs = 0;
  double crashes = 0;
  double trace_bytes = 0;

  friend bool operator==(const PassCounts&, const PassCounts&) = default;
};

template <class X>
struct TracedPass {
  std::vector<RunRecord> records;
  std::vector<Bytes> traces;
  PassCounts counts;
  LayerTotals totals;
  double seconds = 0;
};

template <class X, class P>
struct TracedInstance {
  TracedInstance(Stepper<X, P> s, BusPool::SlotId sl)
      : stepper(std::move(s)), slot(sl) {}

  Stepper<X, P> stepper;
  BusPool::SlotId slot = 0;
  std::optional<TraceWriter> trace;
  std::optional<RunLog> log;
  std::string dir;
  std::span<const int> mid_crashes;
  std::size_t next_mid_crash = 0;
};

/// Drives `batch` on one worker with run_workload's schedule (FIFO,
/// one round per visit) and its exact sequence of public calls, each
/// inside a span.
template <class X, class P>
TracedPass<X> traced_pass(const X& x, const P& act, const Batch& batch,
                          bool durable, Tracer& tr) {
  using Message = typename X::Message;
  using Inst = TracedInstance<X, P>;
  const int n = x.n();
  const std::size_t count = batch.specs.size();
  TracedPass<X> out;
  out.records.resize(count);
  if (durable) out.traces.resize(count);
  PassCounts& c = out.counts;

  MemVfs vfs;
  JournalOptions jopt;
  jopt.page_size = kPageSize;
  const auto u32 = [](std::size_t k) { return static_cast<std::uint32_t>(k); };

  const Clock::time_point start = Clock::now();
  BusPool pool(count);
  std::vector<Inst> insts;
  insts.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const InstanceSpec& spec = batch.specs[k];
    Stepper<X, P> s(x, act, spec.alpha, spec.inits, kT);
    BusPool::SlotId slot = 0;
    {
      auto sp = tr.span(Layer::net_bus, u32(k));
      slot = pool.acquire(spec.alpha);
    }
    insts.emplace_back(std::move(s), slot);
  }

  const auto log_checkpoint = [&](Inst& inst, std::size_t k) {
    Bytes ckpt;
    {
      auto sp = tr.span(Layer::net_checkpoint, u32(k));
      ckpt = checkpoint_stepper(inst.stepper);
    }
    c.checkpoint_bytes += static_cast<double>(ckpt.size());
    return ckpt;
  };

  if (durable) {
    for (std::size_t k = 0; k < count; ++k) {
      const RunRecord& rec = insts[k].stepper.record();
      auto sp = tr.span(Layer::audit, u32(k));
      insts[k].trace.emplace(k, rec.n, rec.t, rec.nonfaulty, rec.inits);
    }
    std::vector<Bytes> ckpts;
    ckpts.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      insts[k].mid_crashes = batch.crashes.mid_rounds[k];
      ckpts.push_back(log_checkpoint(insts[k], k));
    }
    for (std::size_t k = 0; k < count; ++k) {
      Inst& inst = insts[k];
      inst.dir = std::string(kStoreRoot) + "/inst-" + std::to_string(k);
      auto sp = tr.span(Layer::store_append, u32(k));
      inst.log.emplace(RunLog::create(vfs, inst.dir, jopt));
      inst.log->log_checkpoint(ckpts[k]);
      c.store_records += 1;
    }
  }

  const auto restore = [&](Inst& inst, std::size_t k) {
    {
      auto sp = tr.span(Layer::store_recover, u32(k));
      vfs.power_cut(inst.dir + "/");
      inst.log.emplace(RunLog::open(vfs, inst.dir, jopt));
      RecoveredRun<X, P> rec =
          recover_run<X, P>(x, act, inst.log->journal().records());
      if (rec.finished_intent) {
        auto sp2 = tr.span(Layer::store_append, u32(k));
        inst.log->log_delta(
            delta_of_record(rec.stepper.record(), rec.stepper.time() - 1));
        c.store_records += 1;
      }
      inst.stepper = std::move(rec.stepper);
    }
    {
      auto sp = tr.span(Layer::net_bus, u32(k));
      inst.slot = pool.acquire(inst.stepper.pattern(), inst.stepper.time());
    }
    auto sp = tr.span(Layer::audit, u32(k));
    const RunRecord& rec = inst.stepper.record();
    inst.trace.emplace(k, rec.n, rec.t, rec.nonfaulty, rec.inits);
    inst.trace->add_record_rounds(rec);
  };

  // One visit: advance instance k by one round; true once it completed.
  const auto step_one = [&](std::size_t k) -> bool {
    Inst& inst = insts[k];
    const int before = inst.stepper.time();
    const std::vector<Action>* actions = nullptr;
    {
      auto sp = tr.span(Layer::action, u32(k));
      actions = inst.stepper.begin_round();
    }
    if (actions) {
      if (inst.log) {
        IntentPayload intent;
        intent.round = before;
        intent.actions = *actions;
        const FailurePattern& alpha = inst.stepper.pattern();
        for (AgentId i = 0; i < n; ++i) {
          intent.dropped_send.push_back(alpha.dropped(before, i));
          intent.dropped_receive.push_back(alpha.dropped_receive(before, i));
        }
        {
          auto sp = tr.span(Layer::store_append, u32(k));
          inst.log->log_intent(intent);
        }
        c.store_records += 1;
        if (inst.next_mid_crash < inst.mid_crashes.size() &&
            before + 1 == inst.mid_crashes[inst.next_mid_crash]) {
          inst.next_mid_crash += 1;
          c.crashes += 1;
          {
            auto sp = tr.span(Layer::net_bus, u32(k));
            pool.release(inst.slot);
          }
          restore(inst, k);
          return false;
        }
      }

      std::size_t bits = 0;
      std::size_t messages = 0;
      std::vector<std::optional<Bytes>> outbox(static_cast<std::size_t>(n));
      for (AgentId i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        std::optional<Message> m;
        {
          auto sp = tr.span(Layer::exchange_mu, u32(k));
          m = x.message(inst.stepper.states()[ui], (*actions)[ui], 0);
          if (m) bits += static_cast<std::size_t>(n - 1) * x.message_bits(*m);
        }
        if (!m) continue;
        messages += static_cast<std::size_t>(n - 1);
        {
          auto sp = tr.span(Layer::net_encode, u32(k));
          outbox[ui] = to_bytes(*m);
        }
        c.encode_bytes += static_cast<double>(outbox[ui]->size());
      }
      BusPool::RoundResult res;
      {
        auto sp = tr.span(Layer::net_bus, u32(k));
        res = pool.exchange_round(inst.slot, std::move(outbox));
      }
      for (AgentId i = 0; i < n; ++i) {
        c.sent_edges += res.sent[static_cast<std::size_t>(i)].size();
        c.delivered_edges += res.delivered[static_cast<std::size_t>(i)].size();
      }
      std::vector<std::vector<std::optional<Message>>> inbox(
          static_cast<std::size_t>(n),
          std::vector<std::optional<Message>>(static_cast<std::size_t>(n)));
      for (std::size_t from = 0; from < static_cast<std::size_t>(n); ++from) {
        std::optional<Message> decoded;
        for (std::size_t to = 0; to < static_cast<std::size_t>(n); ++to) {
          const auto& payload = res.inbox[to][from];
          if (!payload) continue;
          if (!decoded) {
            auto sp = tr.span(Layer::net_decode, u32(k));
            decoded = from_bytes<Message>(*payload);
            c.decode_calls += 1;
          }
          inbox[to][from] = *decoded;
        }
      }
      {
        auto sp = tr.span(Layer::exchange_delta, u32(k));
        inst.stepper.finish_round(inbox, std::move(res.sent),
                                  std::move(res.delivered), bits, messages);
      }
    }
    const bool finished = inst.stepper.done();
    const bool advanced = inst.stepper.time() > before;
    if (advanced && inst.log) {
      auto sp = tr.span(Layer::store_append, u32(k));
      inst.log->log_delta(delta_of_record(inst.stepper.record(), before));
      c.store_records += 1;
    }
    if (advanced && inst.trace) {
      const RunRecord& rec = inst.stepper.record();
      auto sp = tr.span(Layer::audit, u32(k));
      inst.trace->add_round(rec.actions.back(), rec.sent.back(),
                            rec.delivered.back());
    }
    if (!finished) {
      if (durable && advanced) {
        const Bytes ckpt = log_checkpoint(inst, k);
        auto sp = tr.span(Layer::store_append, u32(k));
        inst.log->log_checkpoint(ckpt);
        inst.log->gc_keep_checkpoints(1);
        c.store_records += 1;
      }
      return false;
    }
    c.bits += static_cast<double>(inst.stepper.bits_sent());
    c.messages += static_cast<double>(inst.stepper.messages_sent());
    RunRecord record = inst.stepper.take_record();
    if (inst.trace) {
      auto sp = tr.span(Layer::audit, u32(k));
      out.traces[k] = inst.trace->finish(build_certificate(record, k));
    }
    out.records[k] = std::move(record);
    auto sp = tr.span(Layer::net_bus, u32(k));
    pool.release(inst.slot);
    return true;
  };

  std::deque<std::size_t> ready;
  for (std::size_t k = 0; k < count; ++k) ready.push_back(k);
  while (!ready.empty()) {
    const std::size_t k = ready.front();
    ready.pop_front();
    if (!step_one(k)) ready.push_back(k);
  }
  out.seconds = seconds_since(start);

  out.totals = tr.totals();
  for (const Bytes& t : out.traces)
    c.trace_bytes += static_cast<double>(t.size());
  c.syncs = static_cast<double>(vfs.sync_count());
  for (const std::string& path : vfs.list(""))
    c.store_bytes += static_cast<double>(vfs.read(path).size());
  return out;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

template <class X, class P>
void output_checks(Report& rep, const X& x, const P& act, const Batch& batch,
                   const WorkloadResult<X>& res, bool durable,
                   std::uint64_t seed) {
  // run_workload == simulate() on a seeded sample of the batch.
  Rng rng(seed ^ 0x5eedull);
  std::size_t bad = 0;
  for (std::size_t s = 0; s < kSampleChecks; ++s) {
    const std::size_t k = static_cast<std::size_t>(rng.below(kBatch));
    const InstanceSpec& spec = batch.specs[k];
    bad += !(simulate(x, act, spec.alpha, spec.inits, kT).record ==
             res.instances[k].record);
  }
  rep.check("run_workload_equals_simulate", kSampleChecks, bad);
  if (durable) {
    bad = 0;
    for (std::size_t k = 0; k < kSampleChecks; ++k)
      bad += !replay_verify(res.traces[k]).ok;
    rep.check("traces_replay_verify", kSampleChecks, bad);
  }
}

template <class X, class P>
void untraced_run(Report& rep, const Args& args, const X& x, const P& act,
                  const std::vector<Batch>& pool, bool durable) {
  const BatchRun<X> warm =
      run_batch(x, act, pool.front(), args.workers, durable);
  output_checks(rep, x, act, pool.front(), warm.result, durable, args.seed);

  std::vector<std::vector<RunRecord>> first_pass;
  std::vector<double> decided_rate;
  std::vector<double> world_rate;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t repeated = 0;
  std::size_t diverged = 0;
  double rounds_sum = 0;
  double crashes = 0;
  CpuRotation cpus;
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0;
       b < pool.size() || seconds_since(start) < args.seconds; ++b) {
    const Batch& batch = pool[b % pool.size()];
    cpus.next();
    const BatchRun<X> run = run_batch(x, act, batch, args.workers, durable);
    const std::size_t decided = count_decided(run.result);
    decided_rate.push_back(static_cast<double>(decided) / run.seconds);
    world_rate.push_back(static_cast<double>(batch.specs.size()) /
                         run.seconds);
    attempted += batch.specs.size();
    failed += batch.specs.size() - decided;
    if (b < pool.size()) {
      first_pass.push_back(records_of(run.result));
      for (const RunRecord& r : first_pass.back())
        rounds_sum += last_nonfaulty_round(r);
      crashes += static_cast<double>(run.result.crashes_injected);
    } else {
      repeated += batch.specs.size();
      diverged += count_mismatches(run.result, first_pass[b % pool.size()]);
    }
  }
  rep.check("instances_decided_and_strict_eba", attempted, failed);
  rep.check("repeated_batches_reproduce_records", repeated, diverged);

  const double instances =
      static_cast<double>(pool.size() * pool.front().specs.size());
  rep.metric("decided_per_s", median(decided_rate));
  rep.metric("worlds_per_s", median(world_rate));
  rate_samples(rep, world_rate);
  rep.counter("decision_round_mean", rounds_sum / instances);
  rep.info("instances_per_batch", static_cast<double>(kBatch));
  if (durable) rep.info("crashes_first_pass", crashes);
}

template <class X, class P>
void traced_run(Report& rep, const Args& args, const X& x, const P& act,
                const std::vector<Batch>& pool, bool durable) {
  const Batch& batch = pool.front();
  const double count = static_cast<double>(batch.specs.size());
  const BatchRun<X> ref = run_batch(x, act, batch, args.workers, durable);
  const std::vector<RunRecord> ref_records = records_of(ref.result);
  output_checks(rep, x, act, batch, ref.result, durable, args.seed);

  Tracer tr;
  std::vector<Span> kept;
  std::vector<TracedPass<X>> passes;
  std::vector<double> rate1;
  std::vector<double> rate_w;
  std::size_t bad = 0;
  std::size_t compared = 0;
  const Clock::time_point start = Clock::now();
  while (passes.size() < 3 || seconds_since(start) < args.seconds) {
    const BatchRun<X> one = run_batch(x, act, batch, 1, durable);
    rate1.push_back(static_cast<double>(count_decided(one.result)) /
                    one.seconds);
    bad += count_mismatches(one.result, ref_records);

    tr.clear();
    tr.reserve(1u << 18);
    TracedPass<X> pass = traced_pass(x, act, batch, durable, tr);
    if (kept.empty()) kept = tr.spans();
    for (std::size_t k = 0; k < ref_records.size(); ++k) {
      bad += !(pass.records[k] == ref_records[k]);
      if (durable) bad += !(pass.traces[k] == ref.result.traces[k]);
    }
    if (!passes.empty()) bad += !(pass.counts == passes.front().counts);
    pass.records.clear();
    pass.traces.clear();
    passes.push_back(std::move(pass));

    const BatchRun<X> many =
        run_batch(x, act, batch, args.scale_workers, durable);
    rate_w.push_back(static_cast<double>(count_decided(many.result)) /
                     many.seconds);
    bad += count_mismatches(many.result, ref_records);
    compared += 3 * ref_records.size();
  }
  rep.check("traced_and_pooled_records_equal_run_workload", compared, bad);

  // Per-layer self time per instance and as a share of traced wall time,
  // each the median over the traced passes.
  const auto layer_metric = [&](const std::string& name, Layer l,
                                double per) {
    std::vector<double> us;
    std::vector<double> share;
    for (const auto& p : passes) {
      us.push_back(p.totals.self(l) * 1e6 / per);
      share.push_back(p.totals.self(l) / p.seconds);
    }
    rep.metric(name, median(us));
    rep.metric(share_name(name), median(share));
  };
  const PassCounts& c = passes.front().counts;
  layer_metric("action.us_per_instance", Layer::action, count);
  layer_metric("exchange.mu_us_per_instance", Layer::exchange_mu, count);
  layer_metric("net.encode_us_per_instance", Layer::net_encode, count);
  layer_metric("net.decode_us_per_instance", Layer::net_decode, count);
  layer_metric("exchange.delta_us_per_instance", Layer::exchange_delta, count);
  layer_metric("net.bus_us_per_instance", Layer::net_bus, count);
  layer_metric("net.checkpoint_us_per_instance", Layer::net_checkpoint, count);
  layer_metric("store.append_us_per_instance", Layer::store_append, count);
  // No crash, no recovery: the per-crash time is then 0 / 1.
  layer_metric("store.recover_us_per_crash", Layer::store_recover,
               std::max(c.crashes, 1.0));
  layer_metric("audit.us_per_instance", Layer::audit, count);
  rep.counter("exchange.bits_per_instance", c.bits / count);
  rep.counter("exchange.messages_per_instance", c.messages / count);
  rep.counter("net.encode_bytes_per_instance", c.encode_bytes / count);
  rep.counter("net.decode_calls_per_instance", c.decode_calls / count);
  rep.counter("net.bus.delivered_frac", c.delivered_edges / c.sent_edges);
  rep.counter("net.checkpoint_bytes_per_instance", c.checkpoint_bytes / count);
  rep.counter("store.records_per_instance", c.store_records / count);
  rep.counter("store.bytes_per_instance", c.store_bytes / count);
  rep.counter("store.syncs_per_instance", c.syncs / count);
  rep.counter("store.crashes", c.crashes);
  rep.counter("audit.trace_bytes_per_instance", c.trace_bytes / count);
  rep.metric("net.pool.scaling_eff",
             median(rate_w) / (args.scale_workers * median(rate1)));

  std::vector<double> traced_rate;
  std::vector<double> unattributed;
  for (const auto& p : passes) {
    traced_rate.push_back(count / p.seconds);
    unattributed.push_back(1.0 - p.totals.self_sum() / p.seconds);
  }
  rep.metric("trace.overhead_frac", 1.0 - median(traced_rate) / median(rate1));
  rep.metric("trace.unattributed_frac", median(unattributed));

  // The workload contrast: the durability layers are idle on wire_fip and
  // busy on wire_durable.
  const LayerTotals& t0 = passes.front().totals;
  for (Layer l : {Layer::store_append, Layer::net_checkpoint, Layer::audit}) {
    const std::uint64_t calls = t0.count(l);
    rep.info(std::string(layer_name(l)) + ".calls", static_cast<double>(calls));
    rep.check(std::string("contrast_") + layer_name(l), 1,
              durable ? calls == 0 : calls != 0);
  }
  const std::uint64_t recoveries = t0.count(Layer::store_recover);
  rep.check("one_recovery_per_crash", 1,
            recoveries != static_cast<std::uint64_t>(c.crashes) ||
                (durable && c.crashes == 0));
  rep.info("traced_passes", static_cast<double>(passes.size()));
  rep.info("rate_1_worker", median(rate1));
  rep.info("rate_w_workers", median(rate_w));
  write_spans(rep, args, kept);
}

template <class X, class P>
Report run_wire(const Args& args, const X& x, const P& act, bool durable) {
  Report rep;
  std::vector<Batch> pool;
  rep.metric("setup_s", setup_seconds([&] {
               pool = make_pool(args.seed, durable);
             }));
  if (args.trace)
    traced_run(rep, args, x, act, pool, durable);
  else
    untraced_run(rep, args, x, act, pool, durable);
  return rep;
}

}  // namespace

Report run_wire_fip(const Args& args) {
  return run_wire(args, eba::FipExchange(kN), eba::POpt(kN, kT),
                  /*durable=*/false);
}

Report run_wire_durable(const Args& args) {
  return run_wire(args, eba::ReportExchange(kN, kT), eba::PEarlyStop(kN, kT),
                  /*durable=*/true);
}

}  // namespace perfbench
