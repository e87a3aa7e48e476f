// The perfbench binary: runs one workload for a seed and a time window and
// prints two JSON lines on stdout — first the full report (env block,
// checks, exact counters, details), last the result object
// {correct, attempted, failed, metrics}. With --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ones of BENCHMARK.json.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <csv path>] [--git-sha <sha>]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

#ifndef EBA_BENCH_BUILD_TYPE
#define EBA_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string share_name(const std::string& time_metric) {
  for (const char* marker : {"_us_per_", ".us_per_"}) {
    const std::size_t at = time_metric.find(marker);
    if (at != std::string::npos) return time_metric.substr(0, at) + ".share";
  }
  if (time_metric.ends_with("_s"))
    return time_metric.substr(0, time_metric.size() - 2) + ".share";
  return time_metric + ".share";
}

void write_spans(Report& rep, const Args& args,
                 const std::vector<Span>& spans) {
  if (args.spans_path.empty()) return;
  std::ofstream out(args.spans_path, std::ios::trunc);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "name,start_ns,end_ns,parent,instance\n";
  for (const Span& s : spans)
    out << layer_name(s.layer) << ',' << s.start_ns - origin << ','
        << s.end_ns - origin << ',' << s.parent << ',' << s.instance << '\n';
  out.flush();
  rep.check("spans_written", 1, !out.good());
  rep.info("spans", static_cast<double>(spans.size()));
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units of BENCHMARK.json, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"decided_per_s", "1/s"},
    {"worlds_per_s", "1/s"},
    {"decision_round_mean", "rounds"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"action.us_per_instance", "us"},
    {"action.share", "frac"},
    {"exchange.mu_us_per_instance", "us"},
    {"exchange.mu.share", "frac"},
    {"net.encode_us_per_instance", "us"},
    {"net.encode.share", "frac"},
    {"net.encode_bytes_per_instance", "B"},
    {"net.decode_us_per_instance", "us"},
    {"net.decode.share", "frac"},
    {"net.decode_calls_per_instance", "count"},
    {"exchange.delta_us_per_instance", "us"},
    {"exchange.delta.share", "frac"},
    {"exchange.bits_per_instance", "bits"},
    {"exchange.messages_per_instance", "count"},
    {"net.bus_us_per_instance", "us"},
    {"net.bus.share", "frac"},
    {"net.bus.delivered_frac", "frac"},
    {"net.checkpoint_us_per_instance", "us"},
    {"net.checkpoint.share", "frac"},
    {"net.checkpoint_bytes_per_instance", "B"},
    {"store.append_us_per_instance", "us"},
    {"store.append.share", "frac"},
    {"store.records_per_instance", "count"},
    {"store.bytes_per_instance", "B"},
    {"store.syncs_per_instance", "count"},
    {"store.recover_us_per_crash", "us"},
    {"store.recover.share", "frac"},
    {"store.crashes", "count"},
    {"audit.us_per_instance", "us"},
    {"audit.share", "frac"},
    {"audit.trace_bytes_per_instance", "B"},
    {"net.pool.scaling_eff", "frac"},
    {"failure.enum_us_per_world", "us"},
    {"failure.enum.share", "frac"},
    {"sim.drive_us_per_world", "us"},
    {"sim.drive.share", "frac"},
    {"core.spec_us_per_world", "us"},
    {"core.spec.share", "frac"},
    {"failure.worlds", "count"},
    {"failure.covered", "count"},
    {"sim.rounds_per_world", "rounds"},
    {"kripke.context_s", "s"},
    {"kripke.context.share", "frac"},
    {"kripke.synth_s", "s"},
    {"kripke.synth.share", "frac"},
    {"kripke.evaluated_rounds", "count"},
    {"kripke.world_rounds", "count"},
    {"kripke.common_bfs", "count"},
    {"kripke.eval_frac", "frac"},
    {"kripke.scaling_eff", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <class Pairs, class Fmt>
std::string object(const Pairs& pairs, Fmt&& fmt) {
  std::string out = "{";
  for (const auto& [k, v] : pairs) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + fmt(v);
  }
  return out + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <wire_fip|wire_durable|sweep_go|"
               "synth_kbp> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>] [--git-sha <sha>]\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  Args args;
  std::string git_sha = "unavailable";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  args.scale_workers = std::min(4, nproc);

  Report rep;
  if (args.workload == "wire_fip")
    rep = run_wire_fip(args);
  else if (args.workload == "wire_durable")
    rep = run_wire_durable(args);
  else if (args.workload == "sweep_go")
    rep = run_sweep_go(args);
  else if (args.workload == "synth_kbp")
    rep = run_synth_kbp(args);
  else
    usage("unknown workload '" + args.workload + "'");

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  // The result metrics, in BENCHMARK.json's order. An end-to-end metric the
  // workload did not produce, or any non-finite value, fails the run; a
  // per-layer metric of a layer the workload does not exercise reads 0.
  std::vector<std::pair<std::string, double>> chosen;
  std::vector<std::string> units;
  std::size_t missing = 0;
  std::size_t nonfinite = 0;
  const auto lookup = [&](const char* name) -> const double* {
    for (const auto& [k, v] : rep.metrics)
      if (k == name) return &v;
    return nullptr;
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      const double* v = lookup(d.name);
      chosen.emplace_back(d.name, v ? *v : 0.0);
      units.emplace_back(d.unit);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const double* v = lookup(d.name);
      missing += v == nullptr;
      chosen.emplace_back(d.name, v ? *v : 0.0);
      units.emplace_back(d.unit);
    }
  }
  for (const auto& [k, v] : chosen) nonfinite += !std::isfinite(v);
  if (!args.trace) rep.check("end_to_end_metrics_present", 1, missing != 0);
  rep.check("metrics_finite", 1, nonfinite != 0);

  const double failed_frac = static_cast<double>(rep.failed) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 rep.attempted, 1));
  std::ostringstream report;
  report << "{\"workload\": " << quoted(args.workload)
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"env\": {"
         << "\"nproc\": " << nproc << ", \"compiler\": "
         << quoted(std::string("g++ ") + __VERSION__)
         << ", \"build_type\": " << quoted(EBA_BENCH_BUILD_TYPE)
         << ", \"git_sha\": " << quoted(git_sha)
         << ", \"workers\": " << args.workers
         << ", \"scale_workers\": " << args.scale_workers
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << num(args.seconds) << "}"
         << ", \"failed_frac\": " << num(failed_frac) << ", \"checks\": "
         << object(rep.checks, [](bool ok) { return ok ? "true" : "false"; })
         << ", \"exact\": " << object(rep.exact, num)
         << ", \"detail\": " << object(rep.detail, num) << "}";
  std::cout << report.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << rep.attempted
         << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < chosen.size(); ++k)
    result << (k ? ", " : "") << quoted(chosen[k].first)
           << ": {\"value\": "
           << num(std::isfinite(chosen[k].second) ? chosen[k].second : 0.0)
           << ", \"unit\": " << quoted(units[k]) << "}";
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
