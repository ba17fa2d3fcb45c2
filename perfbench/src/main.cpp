// lrbench: the lrsim benchmark program (see README.md).
//
//   lrbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--git-describe TEXT] [--tiny] [--inject-mismatch]
//
// It drives the simulator only through its public API: Machine,
// MachineConfig defaults, workload::make_workload, Stats, the event counter,
// the directory's peak queue depth and Machine::enable_observability. Every
// point runs on one host thread with the serial kernel.
//
// --trace 0 repeats the workload's points for S seconds with tracing off and
// prints the end-to-end metrics. --trace 1 is the separate traced run: it
// alternates untraced repetitions (for counts and the overhead baseline)
// with repetitions that have observability and host spans on, then runs the
// per-layer probes, and prints the per-layer metrics. Both modes finish with a
// reduced-size pass of every point under the protocol invariant checker.
// The last line of stdout is the result object; the line before it is the
// run manifest.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/observability.hpp"
#include "probes.hpp"
#include "runtime/machine.hpp"
#include "sim/stats.hpp"
#include "spans.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace lrbench {
namespace {

using lrsim::Cycle;
using lrsim::Stats;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Observability span buffer per traced point run. Spans past it are
/// dropped and reported as obs.spans_dropped; coherence.dir_service_p99_cycles
/// then covers the directory spans that were kept.
constexpr std::size_t kObsSpanCapacity = std::size_t{1} << 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool inject_mismatch = false;
  std::string trace_out;
  std::string git_describe = "unknown";
};

/// kSetup stops after the build: an extra set-up sample, nothing is run.
enum class Mode { kPlain, kObserved, kChecked, kSetup };

/// Everything one point run yields. Simulated numbers cover the timed phase
/// only: the prefill's counters, cycles and events are subtracted.
struct RunOut {
  bool ok = true;
  bool consistent = true;  ///< False for a wrong result, not merely a missing one.
  std::string why;
  Stats stats;
  Cycle cycles = 0;
  std::uint64_t events = 0;
  std::size_t dir_peak = 0;
  double new_s = 0;
  double build_s = 0;
  double run_s = 0;
  lrsim::Log2Histogram park;
  lrsim::Log2Histogram hold;
  std::vector<Cycle> dir_service;
  std::uint64_t spans_dropped = 0;
};

RunOut run_point(const Point& p, std::uint64_t workload_seed, Mode mode, SpanLog* log, int id) {
  RunOut out;
  const std::uint64_t seed = p.seed(workload_seed);
  const SpanLog::Scope point_span(log, p.label, id);
  const int parent = point_span.index();
  try {
    lrsim::workload::WorkloadSpec spec = p.spec;
    spec.seed = seed;
    const lrsim::workload::WorkloadRun run = lrsim::workload::make_workload(spec, p.policy);
    lrsim::MachineConfig cfg;
    cfg.num_cores = p.cores;
    run.configure(cfg);
    if (p.min_lease_time > 0) cfg.min_lease_time = p.min_lease_time;

    // Declared before the machine: spawned closures call it, so it must
    // outlive every coroutine frame the machine destroys.
    std::function<lrsim::Task<void>(lrsim::Ctx&, int)> worker;
    std::unique_ptr<lrsim::Machine> m;
    {
      const SpanLog::Scope span(log, "machine_new", id, parent);
      const auto t0 = Clock::now();
      m = std::make_unique<lrsim::Machine>(cfg, seed);
      out.new_s = seconds_since(t0);
    }
    if (mode == Mode::kChecked) m->enable_invariants();
    {
      const SpanLog::Scope span(log, "build", id, parent);
      const auto t0 = Clock::now();
      worker = run.build(*m);
      out.build_s = seconds_since(t0);
    }
    if (mode == Mode::kSetup) return out;
    // After the prefill, so the histograms and spans cover the timed phase.
    if (mode == Mode::kObserved) m->enable_observability({.span_capacity = kObsSpanCapacity});
    const Stats base = m->total_stats();
    const Cycle c0 = m->events().now();
    const std::uint64_t e0 = m->events().total_scheduled();
    for (int t = 0; t < p.cores; ++t)
      m->spawn(t, [&worker, t](lrsim::Ctx& ctx) { return worker(ctx, t); });
    {
      const SpanLog::Scope span(log, "run", id, parent);
      const auto t0 = Clock::now();
      m->run(c0 + p.watchdog);
      out.run_s = seconds_since(t0);
    }
    {
      const SpanLog::Scope span(log, "stats", id, parent);
      out.stats = m->total_stats() - base;
      out.cycles = m->events().now() - c0;
      out.events = m->events().total_scheduled() - e0;
      out.dir_peak = m->directory().peak_queue_depth();
      if (const lrsim::Observability* obs = m->observability()) {
        out.park = obs->park_latency_histogram();
        out.hold = obs->lease_duration_histogram();
        out.spans_dropped = obs->spans_dropped();
        for (const lrsim::SpanRecord& s : obs->spans())
          if (s.kind == lrsim::SpanKind::kDirService) out.dir_service.push_back(s.end - s.begin);
      }
    }
    const std::uint64_t expected = p.expected_ops();
    if (!m->all_done()) {
      out.ok = false;
      out.why = "watchdog: " + std::to_string(out.stats.ops_completed) + " of " +
                std::to_string(expected) + " ops done after " + std::to_string(p.watchdog) +
                " cycles";
    } else if (out.stats.ops_completed != expected) {
      out.ok = false;
      out.consistent = false;
      out.why = "op count " + std::to_string(out.stats.ops_completed) + " != " +
                std::to_string(expected);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.consistent = false;
    out.why = std::string("exception: ") + e.what();
  }
  return out;
}

/// Per-point state across the repetitions of one process.
struct PointRecord {
  RunOut ref;  ///< First untraced repetition: the reference every later run must match.
  bool failed = false;
  bool inconsistent = false;
  std::vector<std::string> why;
  std::vector<double> run_s;  ///< Untraced, one entry per repetition.
  std::vector<double> new_s, build_s;  ///< Set-up samples: repetitions, then setup_reps().
  std::vector<double> traced_run_s;

  void fail(const std::string& reason, bool consistent) {
    failed = true;
    inconsistent = inconsistent || !consistent;
    why.push_back(reason);
  }
};

bool same_simulation(const RunOut& a, const RunOut& b) {
  return a.stats == b.stats && a.cycles == b.cycles && a.events == b.events;
}

class Bench {
 public:
  Bench(Workload w, const Options& opt) : w_(std::move(w)), opt_(opt), rec_(w_.points.size()) {}

  /// One untraced repetition of every point. Each repetition must
  /// reproduce the first one's Stats, cycles and event count exactly. A
  /// point that has failed is not repeated: its run feeds no metric, and its
  /// set-up counts toward setup_s with the samples it has.
  void timed_rep() {
    const int rep = reps_++;
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      PointRecord& r = rec_[i];
      if (r.failed) {
        r.run_s.push_back(0);
        continue;
      }
      RunOut out = run_point(w_.points[i], opt_.seed, Mode::kPlain, nullptr, 0);
      r.new_s.push_back(out.new_s);
      r.build_s.push_back(out.build_s);
      r.run_s.push_back(out.run_s);
      if (opt_.inject_mismatch && rep == 1 && i == 0) ++out.stats.ops_completed;
      if (rep == 0) {
        if (!out.ok) r.fail(out.why, out.consistent);
        r.ref = out;
      } else if (!same_simulation(out, r.ref)) {
        r.fail("repetition " + std::to_string(rep) + " differs from repetition 0", false);
      }
    }
  }

  /// One traced repetition, with observability and host spans on. Each run
  /// must give the untraced reference's Stats, cycles and event count.
  void traced_rep(SpanLog& log) {
    const int rep = traced_reps_++;
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      PointRecord& r = rec_[i];
      // A failed point is compared once; its later runs feed no metric.
      if (rep > 0 && r.failed) {
        r.traced_run_s.push_back(0);
        continue;
      }
      const int id = static_cast<int>(static_cast<std::size_t>(rep) * w_.points.size() + i);
      RunOut out = run_point(w_.points[i], opt_.seed, Mode::kObserved, &log, id);
      if (!same_simulation(out, r.ref))
        r.fail("traced repetition " + std::to_string(rep) + " differs from the untraced run",
               false);
      r.traced_run_s.push_back(out.run_s);
      if (rep == 0) {
        park_.merge(out.park);
        hold_.merge(out.hold);
        dir_service_.insert(dir_service_.end(), out.dir_service.begin(), out.dir_service.end());
        spans_dropped_ += out.spans_dropped;
      }
    }
  }

  /// Extra set-up-only samples (machine construction + build) of the
  /// passing points, until each has `samples` of them or `budget_s` has
  /// passed, so setup_s is a median of many samples where set-up is cheap.
  void setup_reps(std::size_t samples, double budget_s) {
    const auto t0 = Clock::now();
    while (reps_ + setup_only_reps_ < static_cast<int>(samples) && seconds_since(t0) < budget_s) {
      for (std::size_t i = 0; i < w_.points.size(); ++i) {
        if (rec_[i].failed) continue;
        const RunOut out = run_point(w_.points[i], opt_.seed, Mode::kSetup, nullptr, 0);
        rec_[i].new_s.push_back(out.new_s);
        rec_[i].build_s.push_back(out.build_s);
      }
      ++setup_only_reps_;
    }
  }

  /// Reduced-size pass of every point under the protocol invariant checker.
  void invariant_pass() {
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      const RunOut out =
          run_point(reduced(w_.points[i], w_.check_ops), opt_.seed, Mode::kChecked, nullptr, 0);
      if (!out.ok) rec_[i].fail("invariant pass: " + out.why, out.consistent);
    }
  }

  std::vector<std::pair<std::string, double>> probes(SpanLog* log) {
    return run_probes(w_.probe, opt_.seed, log,
                      static_cast<int>(static_cast<std::size_t>(traced_reps_) * w_.points.size()));
  }

  // --- accounting ------------------------------------------------------------

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const Point& p : w_.points) n += p.expected_ops();
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < w_.points.size(); ++i)
      if (rec_[i].failed) n += w_.points[i].expected_ops();
    return n;
  }
  bool correct() const {
    for (const PointRecord& r : rec_)
      if (r.inconsistent) return false;
    return true;
  }
  int reps() const noexcept { return reps_; }

  void report_failures(std::ostream& os) const {
    for (std::size_t i = 0; i < w_.points.size(); ++i)
      for (const std::string& why : rec_[i].why)
        os << "lrbench: " << w_.name << " " << w_.points[i].label << " FAILED: " << why << "\n";
  }

  using Metrics = std::vector<std::pair<std::string, double>>;

  Metrics end_to_end() const {
    // Geometric means over groups, so that every structure and policy
    // weighs the same whatever its length.
    std::vector<double> ops_per_s;
    for (int rep = 0; rep < reps_; ++rep) {
      const auto k = static_cast<std::size_t>(rep);
      ops_per_s.push_back(group_geomean([k](const PointRecord& r) {
        return std::pair{static_cast<double>(r.ref.stats.ops_completed), r.run_s[k]};
      }));
    }
    double setup = 0;
    for (const PointRecord& r : rec_) {
      std::vector<double> v;
      for (std::size_t k = 0; k < r.new_s.size(); ++k) v.push_back(r.new_s[k] + r.build_s[k]);
      setup += median(v);
    }
    const double mops = group_geomean([](const PointRecord& r) {
      return std::pair{static_cast<double>(r.ref.stats.ops_completed) * 1000.0,
                       static_cast<double>(r.ref.cycles)};
    });
    const double nj_per_op = group_geomean([](const PointRecord& r) {
      return std::pair{r.ref.stats.energy_nj(lrsim::MachineConfig{}.energy),
                       static_cast<double>(r.ref.stats.ops_completed)};
    });
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double attempted_ops = static_cast<double>(attempted());
    return {
        {"sim_ops_per_s", median(ops_per_s)},
        {"setup_s", setup},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
        {"completed_frac", (attempted_ops - static_cast<double>(failed())) / attempted_ops},
        {"sim_mops", mops},
        {"nj_per_op", nj_per_op},
    };
  }

  Metrics per_layer(const Metrics& probe_ns) const {
    Stats s;
    std::uint64_t events = 0;
    double core_cycles = 0;
    std::size_t dir_peak = 0;
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      const PointRecord& r = rec_[i];
      dir_peak = std::max(dir_peak, r.ref.dir_peak);
      if (r.failed) continue;
      s += r.ref.stats;
      events += r.ref.events;
      core_cycles += static_cast<double>(w_.points[i].cores) * static_cast<double>(r.ref.cycles);
    }
    std::vector<double> run, traced;
    for (int rep = 0; rep < reps_; ++rep) {
      double rs = 0;
      for (const PointRecord& r : rec_)
        if (!r.failed) rs += r.run_s[static_cast<std::size_t>(rep)];
      run.push_back(rs);
    }
    double machine_new = 0, build = 0;
    for (const PointRecord& r : rec_) {
      machine_new += median(r.new_s);
      build += median(r.build_s);
    }
    const std::size_t traced_reps = rec_.empty() ? 0 : rec_.front().traced_run_s.size();
    for (std::size_t k = 0; k < traced_reps; ++k) {
      double ts = 0;
      for (const PointRecord& r : rec_)
        if (!r.failed) ts += r.traced_run_s[k];
      traced.push_back(ts);
    }
    const double ops = static_cast<double>(s.ops_completed);
    const auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    std::vector<Cycle> dir = dir_service_;
    Metrics m = {
        {"sim.events_per_op", per_op(u(events))},
        {"sim.host_ns_per_event", ratio(median(run) * 1e9, u(events))},
        {"runtime.machine_new_s", machine_new},
        {"coherence.l1_hit_ratio", ratio(u(s.l1_hits), u(s.l1_hits + s.l1_misses))},
        {"coherence.misses_per_op", per_op(u(s.l1_misses))},
        {"coherence.msgs_per_op", per_op(u(s.total_messages()))},
        {"coherence.inv_per_op", per_op(u(s.msgs_inv))},
        {"coherence.l1_evictions_per_op", per_op(u(s.l1_evictions))},
        {"coherence.dir_peak_queue", u(dir_peak)},
        {"coherence.dir_service_p99_cycles", u(percentile(dir, 0.99))},
        {"coherence.coarse_probes_per_op", per_op(u(s.probes_coarse))},
        {"core.leases_per_op", per_op(u(s.leases_taken))},
        {"core.voluntary_ratio", ratio(u(s.releases_voluntary), u(s.leases_taken))},
        {"core.involuntary_per_op", per_op(u(s.releases_involuntary))},
        {"core.suppressed_per_op", per_op(u(s.leases_suppressed))},
        {"core.parked_per_op", per_op(u(s.probes_queued))},
        {"core.park_cycles_per_op", per_op(u(s.probe_queued_cycles))},
        {"core.adapt_per_op", per_op(u(s.lease_adapt_grow + s.lease_adapt_shrink))},
        {"core.park_p99_cycles", u(hist_percentile(park_, 0.99))},
        {"core.hold_p50_cycles", u(hist_percentile(hold_, 0.50))},
        {"mem.dram_per_op", per_op(u(s.dram_accesses))},
        {"ds.cas_fail_ratio", ratio(u(s.cas_failures), u(s.cas_attempts))},
        {"ds.trylock_fail_per_acq", ratio(u(s.lock_failed_trylocks), u(s.lock_acquisitions))},
        {"ds.op_cycles", per_op(core_cycles)},
        {"workload.build_s", build},
        {"obs.overhead_frac", ratio(median(traced), median(run)) - 1.0},
        {"obs.spans_dropped", u(spans_dropped_)},
    };
    m.insert(m.end(), probe_ns.begin(), probe_ns.end());
    return m;
  }

 private:
  /// Geometric mean over groups of each group's geometric mean over its
  /// passing points of numerator / denominator, where `part` gives a
  /// point's (numerator, denominator). Logs tame the heavy tail of a
  /// prefill whose run turns into a lock-spinning storm.
  template <typename Part>
  double group_geomean(Part part) const {
    std::map<std::string, std::pair<double, int>> groups;  // sum of logs, count
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      if (rec_[i].failed) continue;
      const auto [num, den] = part(rec_[i]);
      auto& g = groups[w_.points[i].group];
      g.first += std::log(num / den);
      ++g.second;
    }
    double log_sum = 0;
    for (const auto& [name, g] : groups) log_sum += g.first / g.second;
    return groups.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(groups.size()));
  }

  static double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }

  /// Nearest-rank percentile of exact samples.
  static Cycle percentile(std::vector<Cycle>& v, double q) {
    if (v.empty()) return 0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
  }

  /// Log2Histogram bucket counts pooled over points.
  struct Pooled {
    std::array<std::uint64_t, lrsim::Log2Histogram::kBuckets> counts{};
    std::uint64_t total = 0;

    void merge(const lrsim::Log2Histogram& h) {
      for (int b = 0; b < lrsim::Log2Histogram::kBuckets; ++b)
        counts[static_cast<std::size_t>(b)] += h.count(b);
      total += h.total();
    }
  };

  /// Percentile of pooled log2 buckets, reported as the inclusive upper
  /// edge of the bucket that holds it (the true value is at most this).
  static std::uint64_t hist_percentile(const Pooled& h, double q) {
    if (h.total == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(h.total)));
    std::uint64_t seen = 0;
    for (int b = 0; b < lrsim::Log2Histogram::kBuckets; ++b) {
      seen += h.counts[static_cast<std::size_t>(b)];
      if (seen >= rank) return lrsim::Log2Histogram::bucket_high(b) - 1;
    }
    return 0;
  }

  Workload w_;
  Options opt_;
  std::vector<PointRecord> rec_;
  int reps_ = 0;
  int setup_only_reps_ = 0;
  int traced_reps_ = 0;
  // Traced-run simulated-time distributions, pooled over points.
  Pooled park_;
  Pooled hold_;
  std::vector<Cycle> dir_service_;
  std::uint64_t spans_dropped_ = 0;
};

/// Unit of every metric the benchmark prints. BENCHMARK.json lists the same
/// names; `run.py --self-test` checks that the two agree.
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u = {
      {"sim_ops_per_s", "ops/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"completed_frac", "share"},
      {"sim_mops", "Mops/s"},
      {"nj_per_op", "nJ/op"},
      {"sim.events_per_op", "events/op"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.dispatch_ns", "ns"},
      {"runtime.resume_ns", "ns"},
      {"runtime.machine_new_s", "s"},
      {"coherence.l1_hit_ratio", "share"},
      {"coherence.misses_per_op", "misses/op"},
      {"coherence.msgs_per_op", "msgs/op"},
      {"coherence.inv_per_op", "msgs/op"},
      {"coherence.l1_evictions_per_op", "evictions/op"},
      {"coherence.dir_peak_queue", "requests"},
      {"coherence.l1_hit_ns", "ns"},
      {"coherence.miss_ns", "ns"},
      {"coherence.dir_service_p99_cycles", "cycles"},
      {"coherence.coarse_probes_per_op", "probes/op"},
      {"coherence.sharer_ns", "ns"},
      {"core.leases_per_op", "leases/op"},
      {"core.voluntary_ratio", "share"},
      {"core.involuntary_per_op", "releases/op"},
      {"core.suppressed_per_op", "leases/op"},
      {"core.parked_per_op", "probes/op"},
      {"core.park_cycles_per_op", "cycles/op"},
      {"core.adapt_per_op", "steps/op"},
      {"core.lease_release_ns", "ns"},
      {"core.park_p99_cycles", "cycles"},
      {"core.hold_p50_cycles", "cycles"},
      {"mem.dram_per_op", "accesses/op"},
      {"mem.alloc_ns", "ns"},
      {"ds.cas_fail_ratio", "share"},
      {"ds.trylock_fail_per_acq", "fails/acq"},
      {"ds.op_cycles", "cycles"},
      {"workload.build_s", "s"},
      {"workload.sample_ns", "ns"},
      {"workload.wheel_ns", "ns"},
      {"obs.overhead_frac", "share"},
      {"obs.spans_dropped", "count"},
  };
  return u;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not a finite number");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string manifest(const Workload& w, const Options& opt, int reps) {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(w.name) << ",\"digest\":" << json_string(workload_digest(w))
     << ",\"seed\":" << opt.seed << ",\"git_describe\":" << json_string(opt.git_describe)
     << ",\"build_type\":" << json_string(LRBENCH_BUILD_TYPE)
     << ",\"host_cpus\":" << std::thread::hardware_concurrency() << ",\"trace\":" << opt.trace
     << ",\"seconds\":" << json_number(opt.seconds) << ",\"reps\":" << reps
     << ",\"tiny\":" << (opt.tiny ? "true" : "false") << "}";
  return os.str();
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "lrbench: " << msg
            << "\nusage: lrbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--trace-out FILE] [--git-describe TEXT] [--tiny] [--inject-mismatch]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") {
        o.trace = std::stoi(value());
        have_trace = true;
      } else if (a == "--trace-out") o.trace_out = value();
      else if (a == "--git-describe") o.git_describe = value();
      else if (a == "--tiny") o.tiny = true;
      else if (a == "--inject-mismatch") o.inject_mismatch = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty() || !have_trace) usage("--workload and --trace are required");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
#ifndef NDEBUG
  std::cerr << "lrbench: refusing to report host-time metrics from a build without NDEBUG\n";
  return 2;
#endif
  const Workload w = make_workload(opt.workload, opt.tiny);
  Bench bench(w, opt);
  Bench::Metrics metrics;
  const auto t0 = Clock::now();
  if (opt.trace == 0) {
    while (bench.reps() < 3 || seconds_since(t0) < opt.seconds * 0.9) bench.timed_rep();
    bench.setup_reps(15, opt.seconds * 0.1);
    bench.invariant_pass();
    metrics = bench.end_to_end();
  } else {
    SpanLog log;
    // Untraced and traced repetitions alternate, so that host-speed drift
    // during the run does not land on one side of obs.overhead_frac.
    while (bench.reps() < 2 || seconds_since(t0) < opt.seconds * 0.8) {
      bench.timed_rep();
      bench.traced_rep(log);
    }
    bench.setup_reps(15, opt.seconds * 0.05);
    bench.invariant_pass();
    metrics = bench.per_layer(bench.probes(&log));
    if (!opt.trace_out.empty()) {
      std::ofstream f(opt.trace_out);
      log.write_chrome_json(f, manifest(w, opt, bench.reps()));
      if (!f) throw std::runtime_error("cannot write " + opt.trace_out);
    }
  }
  bench.report_failures(std::cerr);

  std::ostringstream os;
  os << "{\"correct\": " << (bench.correct() ? "true" : "false")
     << ", \"attempted\": " << bench.attempted() << ", \"failed\": " << bench.failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(value)
       << ", \"unit\": " << json_string(units().at(name)) << "}";
    first = false;
  }
  os << "}}";
  std::cout << "{\"manifest\": " << manifest(w, opt, bench.reps()) << "}\n" << os.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace lrbench

int main(int argc, char** argv) {
  const lrbench::Options opt = lrbench::parse(argc, argv);
  try {
    return lrbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "lrbench: " << e.what() << "\n";
    return 1;
  }
}
