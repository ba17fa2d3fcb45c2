// Workload definitions of the lrsim benchmark. A workload is a list of
// points; a point is one (structure, policy, machine) run through the public
// workload registry. README.md gives the reason for each workload and the
// layer each one loads or bypasses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"
#include "workload/spec.hpp"

namespace lrbench {

/// One timed run: a registry spec under one policy on a machine of `cores`.
struct Point {
  std::string label;
  /// Points of one group (the same structure and policy on independent
  /// prefills) are averaged before the workload's geometric means.
  std::string group;
  /// The point's run seed is the workload seed plus seed_index times a
  /// large odd constant, so every point draws independent inputs.
  std::uint64_t seed_index = 0;
  lrsim::workload::WorkloadSpec spec;
  std::string policy;
  int cores = 0;
  /// Adaptive-lease lower clamp; 0 keeps the MachineConfig default.
  lrsim::Cycle min_lease_time = 0;
  /// Simulated-cycle watchdog, counted from the end of the prefill.
  lrsim::Cycle watchdog = 0;

  std::uint64_t seed(std::uint64_t workload_seed) const {
    return workload_seed + seed_index * 0x9e3779b97f4a7c15ull;
  }

  std::uint64_t expected_ops() const {
    const int clients = spec.clients == 0 ? cores : spec.clients;
    return static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(spec.ops);
  }
};

/// Input shape of the per-layer probes: the workload's machine width, key
/// distribution and client count.
struct ProbeShape {
  int cores = 0;
  lrsim::workload::DistSpec dist;
  std::uint64_t key_range = 0;
  int clients = 0;
  lrsim::workload::ArrivalSpec arrival;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  ProbeShape probe;
  /// Ops per client in the reduced-size pass under the invariant checker
  /// (see reduced()).
  int check_ops = 0;
};

/// `tiny` shrinks every point to a few ops per client (self-test only).
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool tiny);

/// `p` with `ops` ops per client and its prefill, hashtable buckets and
/// client count capped, for the invariant-checked pass and the self-test.
Point reduced(Point p, int ops);

/// FNV-1a digest of everything that defines the workload (points, specs,
/// machine knobs, watchdogs), as 16 hex digits. The seed is not included.
std::string workload_digest(const Workload& w);

}  // namespace lrbench
