// Shared pieces of the perfbench binary: command-line arguments, the run
// report every workload fills, order statistics, and the span tracer that
// times calls into the library's layers from the benchmark's own code.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
  /// Worker threads of the measured closed loops.
  int workers = 1;
  /// Worker threads the scaling metrics compare against one worker:
  /// min(4, hardware concurrency).
  int scale_workers = 1;
};

/// What one benchmark run produced. `metrics` are the names declared in
/// BENCHMARK.json; `exact` holds the counters that must repeat bit-for-bit
/// for a given seed; `detail` is informational. Every output check adds to
/// `attempted`, and every item it rejects to `failed`.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> exact;
  std::vector<std::pair<std::string, double>> detail;
  std::vector<std::pair<std::string, bool>> checks;

  void metric(std::string name, double v) {
    metrics.emplace_back(std::move(name), v);
  }
  /// Records a metric that is also an exact counter.
  void counter(std::string name, double v) {
    metrics.emplace_back(name, v);
    exact.emplace_back(std::move(name), v);
  }
  void info(std::string name, double v) {
    detail.emplace_back(std::move(name), v);
  }
  /// One output check over `items` items, `bad` of which were rejected.
  void check(std::string name, std::uint64_t items, std::uint64_t bad) {
    attempted += items;
    failed += bad;
    checks.emplace_back(std::move(name), bad == 0);
  }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

/// Records the spread of a run's samples of worlds_per_s (one per batch,
/// sweep or job) as details: their count and quartiles.
inline void rate_samples(Report& rep, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  rep.info("rate_samples", static_cast<double>(v.size()));
  rep.info("rate_q1", v.empty() ? 0 : v[v.size() / 4]);
  rep.info("rate_q3", v.empty() ? 0 : v[(3 * v.size()) / 4]);
}

/// Moves the calling thread from CPU to CPU of the set it was allowed at
/// construction, one step per next(), and gives the whole set back when
/// destroyed. On a shared virtual machine each vCPU's speed for this
/// memory-bound code wanders on its own by up to 2x for a minute or more, so
/// a loop that stays on one CPU measures where it happened to land; stepping
/// makes every run sample every CPU alike. Threads started while pinned
/// inherit the one-CPU mask, so measured loops rotate at one worker only.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU. The order shifts by one after each
  /// full cycle, so work that repeats with the cycle's period still meets
  /// every CPU.
  void next() {
    const std::size_t n = cpus_.size();
    if (n < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(step_ + step_ / n) % n], &one);
    sched_setaffinity(0, sizeof(one), &one);
    ++step_;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

/// Set-up time: the median per-call wall time of `fn` over 32 timed
/// groups, each long enough (>= 1 ms) to read above the clock's resolution,
/// stepping to the next CPU before each group.
template <class Fn>
double setup_seconds(Fn&& fn) {
  int group = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < group; ++k) fn();
    if (seconds_since(start) >= 1e-3 || group >= (1 << 20)) break;
    group *= 2;
  }
  CpuRotation cpus;
  std::vector<double> per_call;
  for (int r = 0; r < 32; ++r) {
    cpus.next();
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < group; ++k) fn();
    per_call.push_back(seconds_since(start) / group);
  }
  return median(std::move(per_call));
}

// ---------------------------------------------------------------------------
// Tracing: one span per call into a layer's public function, kept in memory
// and written when the run ends. A span's self time is its duration minus
// what its child spans cover.
// ---------------------------------------------------------------------------

enum class Layer : std::uint8_t {
  action,          ///< Stepper::begin_round (action rule + knowledge tests)
  exchange_mu,     ///< X::message
  net_encode,      ///< to_bytes
  net_bus,         ///< BusPool::exchange_round / acquire / release
  net_decode,      ///< from_bytes
  exchange_delta,  ///< Stepper::finish_round (δ, CommGraph merges)
  net_checkpoint,  ///< checkpoint_stepper
  store_append,    ///< RunLog::create / log_* / gc_keep_checkpoints
  store_recover,   ///< power cut + RunLog::open + recover_run
  audit,           ///< TraceWriter + build_certificate
  sweep_world,     ///< one for_each_representative_world callback
  sim_drive,       ///< RunDriver call
  core_spec,       ///< check_eba
  kripke_context,  ///< canonical_context_worlds
  kripke_synth,    ///< KbpSynthesizer::run
  count_,
};

inline const char* layer_name(Layer l) {
  static const char* const kNames[] = {
      "action",        "exchange.mu",    "net.encode",    "net.bus",
      "net.decode",    "exchange.delta", "net.checkpoint", "store.append",
      "store.recover", "audit",          "sweep.world",   "sim.drive",
      "core.spec",     "kripke.context", "kripke.synth"};
  return kNames[static_cast<std::size_t>(l)];
}

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::count_);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t instance = 0;
  Layer layer = Layer::action;
};

/// Per-layer totals of one traced pass.
struct LayerTotals {
  double self_s[kLayers] = {};
  double total_s[kLayers] = {};  ///< inclusive of child spans
  std::uint64_t calls[kLayers] = {};

  [[nodiscard]] double self(Layer l) const {
    return self_s[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double total(Layer l) const {
    return total_s[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t count(Layer l) const {
    return calls[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double self_sum() const {
    double s = 0;
    for (double v : self_s) s += v;
    return s;
  }
};

/// Single-threaded span recorder.
class Tracer {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  class Scope {
   public:
    Scope(Tracer& t, Layer layer, std::uint32_t instance)
        : t_(t), idx_(static_cast<std::int32_t>(t.spans_.size())),
          saved_(t.current_) {
      t.spans_.push_back({now_ns(), 0, t.current_, instance, layer});
      t.current_ = idx_;
    }
    ~Scope() {
      t_.spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
      t_.current_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t idx_;
    std::int32_t saved_;
  };

  [[nodiscard]] Scope span(Layer layer, std::uint32_t instance = 0) {
    return Scope(*this, layer, instance);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    current_ = -1;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }

  [[nodiscard]] LayerTotals totals() const {
    LayerTotals out;
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      const auto l = static_cast<std::size_t>(s.layer);
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      out.total_s[l] += dur;
      out.self_s[l] += dur - static_cast<double>(child_ns[k]) * 1e-9;
      out.calls[l] += 1;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Calls `fn` inside a span of `layer` when tracing, bare otherwise.
template <class Fn>
decltype(auto) in_span(Tracer* tr, Layer layer, std::uint32_t instance,
                       Fn&& fn) {
  if (!tr) return fn();
  auto sp = tr->span(layer, instance);
  return fn();
}

}  // namespace perfbench
