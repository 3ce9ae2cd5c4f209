#pragma once

// Layer probes: small loops over one library layer, driven by the
// workload's own parameters (its fat-tree, delays, queue limits, qdisc
// kinds and measured FCTs).  They run only in the traced run, each in a
// span of its own, so they never touch the end-to-end numbers.

#include <cstdint>

#include "spans.h"
#include "workloads.h"

namespace hostbench {

struct ProbeResults {
  /// Scheduler::schedule + run per executed event, at the workload's
  /// link/core/serialisation delay mix with RTO re-arming.
  double sched_ns_per_event = 0;
  /// make_qdisc + try_push + pop_into per offered packet, averaged over
  /// the qdisc kinds the workload uses, at its queue limit.
  double qdisc_ns_per_pkt = 0;
  /// QuantileSketch::add per sample, at the workload's FCT scale.
  double sketch_add_ns = 0;
  /// FatTree construction for every simulation of one iteration.
  double topo_build_s = 0;
};

/// `mean_fct_ms` scales the sketch samples; `seed` feeds their generator.
ProbeResults run_probes(const Inputs& in, double mean_fct_ms,
                        std::uint64_t seed, Tracer& tracer);

}  // namespace hostbench
