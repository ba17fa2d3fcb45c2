// Per-layer host-cost probes: each one times direct calls into one layer's
// public API, with inputs shaped like the workload's (machine width, key
// distribution, client count). Every probe returns host nanoseconds per
// unit of work, the median of several timed repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace lrbench {

/// Runs every probe once under a "probes" root span (when `log` is set) and
/// returns (metric name, ns per unit) pairs in a fixed order.
std::vector<std::pair<std::string, double>> run_probes(const ProbeShape& shape,
                                                       std::uint64_t seed, SpanLog* log,
                                                       int span_id);

}  // namespace lrbench
