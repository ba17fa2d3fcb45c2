#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "coherence/sharer_set.hpp"
#include "core/lease_table.hpp"
#include "mem/heap.hpp"
#include "runtime/machine.hpp"
#include "util/rng.hpp"
#include "util/timer_wheel.hpp"
#include "workload/arrival.hpp"
#include "workload/dist.hpp"

namespace lrbench {
namespace {

using lrsim::Cycle;
using Clock = std::chrono::steady_clock;

constexpr int kProbeReps = 5;

/// Keeps a probe's result observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Times `body` kProbeReps times; body returns the units of work it did.
/// Result: median ns per unit.
double median_ns_per_unit(const std::function<std::uint64_t()>& body) {
  std::vector<double> per_unit;
  for (int r = 0; r < kProbeReps; ++r) {
    const auto t0 = Clock::now();
    const std::uint64_t units = body();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_unit.push_back(units == 0 ? 0.0 : ns / static_cast<double>(units));
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[per_unit.size() / 2];
}

/// EventQueue schedule + dispatch with one event in flight per core; each
/// event reschedules itself a few cycles later (L1/transit-sized delays).
double probe_dispatch(const ProbeShape& s, std::uint64_t seed) {
  struct State {
    lrsim::EventQueue ev;
    std::uint64_t fired = 0;
    std::uint64_t total = 0;
    Cycle delays[1024];
  };
  struct Tick {
    State* st;
    std::uint32_t k;
    void operator()() const {
      if (++st->fired >= st->total) return;
      st->ev.schedule_in(st->delays[(st->fired + k) & 1023], Tick{st, k});
    }
  };
  return median_ns_per_unit([&] {
    auto st = std::make_unique<State>();
    st->total = 400'000;
    lrsim::Rng rng(seed);
    for (Cycle& d : st->delays) d = 1 + rng.next_below(32);
    for (int c = 0; c < s.cores; ++c)
      st->ev.schedule_in(st->delays[c & 1023], Tick{st.get(), static_cast<std::uint32_t>(c)});
    st->ev.run();
    return st->fired;
  });
}

/// co_await Ctx::work on a 1-core machine with MachineConfig defaults.
double probe_resume(std::uint64_t seed) {
  return median_ns_per_unit([&] {
    constexpr int kN = 400'000;
    lrsim::MachineConfig cfg;
    cfg.num_cores = 1;
    lrsim::Machine m(cfg, seed);
    m.spawn(0, [](lrsim::Ctx& ctx) -> lrsim::Task<void> {
      for (int i = 0; i < kN; ++i) co_await ctx.work(1 + static_cast<Cycle>(i & 3));
    });
    m.run();
    return std::uint64_t{kN};
  });
}

/// Repeated loads of one line on a 1-core machine: all but the first hit L1.
double probe_l1_hit(std::uint64_t seed) {
  return median_ns_per_unit([&] {
    constexpr int kN = 400'000;
    lrsim::MachineConfig cfg;
    cfg.num_cores = 1;
    lrsim::Machine m(cfg, seed);
    const lrsim::Addr a = m.heap().alloc_line();
    std::uint64_t acc = 0;
    m.spawn(0, [a, &acc](lrsim::Ctx& ctx) -> lrsim::Task<void> {
      for (int i = 0; i < kN; ++i) acc += co_await ctx.load(a);
    });
    m.run();
    g_sink = acc;
    return std::uint64_t{kN};
  });
}

/// Two cores store to one line with 30 cycles of work between stores, less
/// than an ownership round trip, so the line ping-pongs between the two
/// L1s: every other store misses. Result: host ns per L1 miss, the hits and
/// work in between included.
double probe_miss(std::uint64_t seed) {
  return median_ns_per_unit([&] {
    constexpr int kN = 100'000;
    lrsim::MachineConfig cfg;
    cfg.num_cores = 2;
    lrsim::Machine m(cfg, seed);
    const lrsim::Addr a = m.heap().alloc_line();
    for (int c = 0; c < 2; ++c) {
      m.spawn(c, [a](lrsim::Ctx& ctx) -> lrsim::Task<void> {
        for (int i = 0; i < kN; ++i) {
          co_await ctx.store(a, static_cast<std::uint64_t>(i));
          co_await ctx.work(30);
        }
      });
    }
    m.run();
    return m.total_stats().l1_misses;
  });
}

/// SharerSet add of 8 sharers drawn over the machine's cores, then collect
/// and clear, on a SharerStore with the directory's default geometry.
/// Result: ns per sharer added (collect and clear amortized).
double probe_sharer(const ProbeShape& s, std::uint64_t seed) {
  constexpr int kSharers = 8;
  constexpr int kRounds = 100'000;
  lrsim::MachineConfig cfg;
  cfg.num_cores = s.cores;
  lrsim::Rng rng(seed);
  std::vector<lrsim::CoreId> draws(4096);
  for (auto& c : draws)
    c = static_cast<lrsim::CoreId>(rng.next_below(static_cast<std::uint64_t>(s.cores)));
  return median_ns_per_unit([&] {
    lrsim::SharerStore store;
    store.configure(cfg.num_cores, cfg.sharer_granularity, cfg.sharer_spill_lines);
    lrsim::SharerSet set;
    std::vector<lrsim::CoreId> out;
    std::uint64_t acc = 0;
    std::size_t k = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kSharers; ++i) set.add(store, draws[k++ & 4095]);
      out.clear();
      set.collect(store, -1, out);
      acc += out.size();
      set.clear(store);
    }
    g_sink = acc;
    return std::uint64_t{kRounds} * kSharers;
  });
}

/// LeaseTable add (policy-chosen duration), grant (starts the expiry
/// timer) and voluntary release (cancels it). Result: ns per lease.
double probe_lease(const ProbeShape& s) {
  return median_ns_per_unit([&] {
    constexpr int kN = 200'000;
    lrsim::EventQueue ev;
    lrsim::Stats stats;
    lrsim::MachineConfig cfg;
    cfg.num_cores = s.cores;
    lrsim::LeaseTable table(ev, stats, cfg, 0);
    for (int i = 0; i < kN; ++i) {
      const lrsim::LineId line = static_cast<lrsim::LineId>(i & 1023);
      table.add(line, table.policy_duration(line));
      table.on_granted(line);
      table.release(line);
    }
    g_sink = stats.releases_voluntary;
    return std::uint64_t{kN};
  });
}

/// SimHeap::alloc_line on a heap with the machine's arenas configured.
double probe_alloc(const ProbeShape& s) {
  return median_ns_per_unit([&] {
    constexpr int kN = 1'000'000;
    lrsim::SimHeap heap;
    heap.configure_arenas(s.cores);
    lrsim::Addr acc = 0;
    for (int i = 0; i < kN; ++i) acc ^= heap.alloc_line();
    g_sink = acc;
    return std::uint64_t{kN};
  });
}

/// One KeySampler draw under the workload's key distribution (the sampler
/// table is built once, outside the timed region).
double probe_sample(const ProbeShape& s, std::uint64_t seed) {
  lrsim::workload::KeySampler sampler(s.dist, s.key_range, 1);
  return median_ns_per_unit([&] {
    constexpr int kN = 1'000'000;
    lrsim::Rng rng(seed);
    std::uint64_t acc = 0;
    for (int i = 0; i < kN; ++i) acc += sampler.sample(rng);
    g_sink = acc;
    return std::uint64_t{kN};
  });
}

/// TimerWheel pop + re-insert with one id per client, gaps drawn from the
/// workload's arrival process (Poisson, mean 200 cycles, for closed loops).
double probe_wheel(const ProbeShape& s, std::uint64_t seed) {
  lrsim::workload::ArrivalSpec arrival = s.arrival;
  if (!arrival.open_loop()) {
    arrival.kind = lrsim::workload::ArrivalKind::kPoisson;
    arrival.period = 200;
  }
  lrsim::Rng rng(seed);
  lrsim::TimerWheel wheel;
  wheel.reserve(static_cast<std::size_t>(s.clients));
  for (int id = 0; id < s.clients; ++id)
    wheel.insert(static_cast<lrsim::TimerWheel::Id>(id), lrsim::workload::next_gap(arrival, rng));
  std::vector<Cycle> gaps(4096);
  for (Cycle& g : gaps) g = lrsim::workload::next_gap(arrival, rng);
  return median_ns_per_unit([&] {
    constexpr int kN = 1'000'000;
    for (int i = 0; i < kN; ++i) {
      const auto [when, id] = wheel.pop();
      wheel.insert(id, when + gaps[static_cast<std::size_t>(i) & 4095]);
    }
    g_sink = wheel.size();
    return std::uint64_t{kN};
  });
}

}  // namespace

std::vector<std::pair<std::string, double>> run_probes(const ProbeShape& shape,
                                                       std::uint64_t seed, SpanLog* log,
                                                       int span_id) {
  const SpanLog::Scope root(log, "probes", span_id);
  std::vector<std::pair<std::string, double>> out;
  const auto probe = [&](const char* name, const std::function<double()>& fn) {
    const SpanLog::Scope span(log, name, span_id, root.index());
    out.emplace_back(name, fn());
  };
  probe("sim.dispatch_ns", [&] { return probe_dispatch(shape, seed); });
  probe("runtime.resume_ns", [&] { return probe_resume(seed); });
  probe("coherence.l1_hit_ns", [&] { return probe_l1_hit(seed); });
  probe("coherence.miss_ns", [&] { return probe_miss(seed); });
  probe("coherence.sharer_ns", [&] { return probe_sharer(shape, seed); });
  probe("core.lease_release_ns", [&] { return probe_lease(shape); });
  probe("mem.alloc_ns", [&] { return probe_alloc(shape); });
  probe("workload.sample_ns", [&] { return probe_sample(shape, seed); });
  probe("workload.wheel_ns", [&] { return probe_wheel(shape, seed); });
  return out;
}

}  // namespace lrbench
