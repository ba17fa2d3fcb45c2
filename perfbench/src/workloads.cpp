#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace lrbench {
namespace {

using lrsim::workload::ArrivalKind;
using lrsim::workload::DistKind;
using lrsim::workload::WorkloadSpec;

/// Each workload's watchdog is at least 4x the simulated length of its
/// longest passing point at seed 1 (spin64: tts, 1.2M cycles; lease64: the
/// adaptive counter, 3.1M; sets128: hashtable:base, 0.34M, while a
/// skiplist that never livelocked would need ~1.2M; openloop1e5: tts+lease,
/// 24M).
Point point(const std::string& ds, const std::string& policy, const WorkloadSpec& base, int cores,
            lrsim::Cycle watchdog) {
  Point p;
  p.spec = base;
  p.spec.ds = ds;
  p.policy = policy;
  p.label = ds + ":" + policy;
  p.group = p.label;
  p.cores = cores;
  p.watchdog = watchdog;
  return p;
}

ProbeShape shape_of(const Point& p) {
  ProbeShape s;
  s.cores = p.cores;
  s.dist = p.spec.dist;
  s.key_range = p.spec.key_range;
  s.clients = p.spec.clients == 0 ? p.cores : p.spec.clients;
  s.arrival = p.spec.arrival;
  return s;
}

// Fig. 3 counter under the four lock policies without leases: spinning on
// L1-resident lock words, so host time goes to the event kernel, coroutine
// resumes and the L1-hit path.
Workload spin64() {
  Workload w;
  w.name = "spin64";
  WorkloadSpec s;
  s.ops = 12;
  s.think = 40;
  for (const char* policy : {"tts", "ticket", "clh", "mcs"})
    w.points.push_back(point("counter", policy, s, 64, 20'000'000));
  w.check_ops = 2;
  return w;
}

// The lease variants of Figs. 2-3 at 64 cores, each under the static and
// the adaptive (AIMD) lease policy. min_lease_time = 1 makes AIMD start
// from the shortest lease, so it engages.
Workload lease64() {
  Workload w;
  w.name = "lease64";
  WorkloadSpec s;
  s.ops = 120;
  s.think = 40;
  s.mix = 0.5;
  const std::pair<const char*, const char*> variants[] = {{"treiber_stack", "lease"},
                                                          {"ms_queue", "lease"},
                                                          {"ms_queue", "multi-lease"},
                                                          {"counter", "tts+lease"}};
  for (const auto& [ds, policy] : variants) {
    for (const auto lp : {lrsim::LeasePolicy::kStatic, lrsim::LeasePolicy::kAdaptive}) {
      Point p = point(ds, policy, s, 64, 20'000'000);
      p.spec.lease_policy = lp;
      p.label += std::string("/") + lrsim::lease_policy_name(lp);
      p.group = p.label;
      if (lp == lrsim::LeasePolicy::kAdaptive) p.min_lease_time = 1;
      // AIMD from a 1-cycle lease makes the contended counter ~10x longer
      // in simulated and host time; fewer ops keep it from dominating.
      if (p.label == "counter:tts+lease/adaptive") p.spec.ops = 30;
      w.points.push_back(p);
    }
  }
  w.check_ops = 3;
  return w;
}

// Low-contention keyed sets (the paper's tables): 20% updates over a
// zipf(0.99) key stream on 2^20 keys, prefilled with 2^16 keys, at 128
// cores, the only width where the directory uses hybrid sharer sets.
Workload sets128() {
  Workload w;
  w.name = "sets128";
  WorkloadSpec s;
  s.ops = 50;
  s.think = 40;
  s.mix = 0.2;
  s.key_range = 1 << 20;
  s.dist.kind = DistKind::kZipf;
  s.dist.theta = 0.99;
  s.prefill = 1 << 16;
  // The shape a zipf prefill leaves (the unbalanced bst's depth at the hot
  // keys, the hashtable's hot chains) depends on the seed and persists for
  // the whole run, and bst:base's lock convoys grow with run length: from
  // one prefill, the standard deviation of log(events per op) between seeds
  // is 0.43 at 100 ops per client and 0.23 at 50. So the runs are short and
  // those structures run on several independent prefills, each a point of
  // its own; the metrics average each structure:policy group first.
  const std::pair<const char*, int> structures[] = {
      {"hashtable", 4}, {"skiplist_set", 1}, {"bst", 6}};
  for (const auto& [ds, prefills] : structures) {
    for (const char* policy : {"base", "lease"}) {
      for (int k = 0; k < prefills; ++k) {
        Point p = point(ds, policy, s, 128, 6'000'000);
        if (p.spec.ds == "hashtable") p.spec.ht_buckets = s.prefill;
        // At 128 cores under zipf the lock-free skiplist livelocks after
        // 10k-45k ops (seed-dependent): CAS keeps failing and no op
        // completes. 500 ops per client puts that point past the livelock
        // on every seed tried, so the failure shows in completed_frac
        // instead of depending on the seed.
        if (p.spec.ds == "skiplist_set") p.spec.ops = 500;
        if (prefills > 1) p.label += '@' + std::to_string(k);
        w.points.push_back(p);
      }
    }
  }
  w.check_ops = 1;
  return w;
}

// configs/ci_openloop.toml's top point, longer: Poisson arrivals from 10^5
// clients multiplexed onto 4 cores, offered above service capacity.
Workload openloop1e5() {
  Workload w;
  w.name = "openloop1e5";
  WorkloadSpec s;
  s.ops = 3;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.period = 200;
  s.clients = 100'000;
  for (const char* policy : {"tts", "tts+lease"})
    w.points.push_back(point("counter", policy, s, 4, 100'000'000));
  w.check_ops = 1;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  if (name == "spin64") w = spin64();
  else if (name == "lease64") w = lease64();
  else if (name == "sets128") w = sets128();
  else if (name == "openloop1e5") w = openloop1e5();
  else throw std::invalid_argument("unknown workload `" + name + "`");
  // Every point gets its own seed. Points that shared one would draw the
  // same key streams, and their figures would swing together.
  for (std::size_t i = 0; i < w.points.size(); ++i) w.points[i].seed_index = i;
  w.probe = shape_of(w.points.front());
  if (tiny) {
    for (Point& p : w.points) p = reduced(p, 1);
    w.check_ops = 1;
  }
  return w;
}

Point reduced(Point p, int ops) {
  p.spec.ops = ops;
  p.spec.prefill = std::min(p.spec.prefill, 1024);
  p.spec.ht_buckets = std::min<std::int64_t>(p.spec.ht_buckets, 1024);
  p.spec.clients = std::min(p.spec.clients, 1000);
  return p;
}

std::string workload_digest(const Workload& w) {
  std::ostringstream os;
  os << w.name << ";check_ops=" << w.check_ops;
  for (const Point& p : w.points) {
    const WorkloadSpec& s = p.spec;
    os << ";" << p.label << "|" << p.group << "|seed_index=" << p.seed_index << "|" << s.ds
       << "|" << p.policy << "|cores=" << p.cores
       << "|min_lease=" << p.min_lease_time << "|watchdog=" << p.watchdog << "|mix=" << s.mix
       << "|keys=" << s.key_range << "|dist=" << static_cast<int>(s.dist.kind) << ":"
       << s.dist.theta << "|arrival=" << static_cast<int>(s.arrival.kind) << ":"
       << s.arrival.period << "|clients=" << s.clients << "|ops=" << s.ops
       << "|think=" << s.think << "|prefill=" << s.prefill << "|cs=" << s.cs_work
       << "|ht=" << s.ht_buckets << "/" << s.ht_stripes
       << "|lease_policy=" << static_cast<int>(s.lease_policy) << "|lease_time=" << s.lease_time;
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace lrbench
