#pragma once

// The benchmark's workloads: the simulator inputs each one generates from
// the workload seed, and one measured iteration over those inputs.
//
// An iteration builds every simulation of the workload (setup), runs
// them (run), reads their results through the library's public
// accessors (extract) and checks them (check).  Each phase is timed with
// a Tracer::Scope from outside the library; nothing inside it is
// instrumented.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "stats/sketch.h"
#include "util/summary.h"
#include "workload/scenario.h"

namespace hostbench {

/// Simulator inputs of one iteration.  A workload drives either
/// Scenario (the windowed engine) or run_incast (serial, no engine).
struct Inputs {
  std::vector<mmptcp::ScenarioConfig> scenarios;
  std::vector<mmptcp::IncastConfig> incasts;

  std::size_t run_count() const { return scenarios.size() + incasts.size(); }
};

struct Workload {
  const char* name;
  const char* why;
  Inputs (*make_inputs)(std::uint64_t seed);
  /// Workload whose simulated statistics this one must reproduce byte for
  /// byte at the same seed (same inputs, another thread count), or null.
  const char* reference;
};

const std::vector<Workload>& all_workloads();
/// Null when no workload has that name.
const Workload* find_workload(const std::string& name);

/// Per-layer work counters of one iteration, summed (or maxed, where
/// noted) over its simulations.  All of them are deterministic for a
/// given seed except the engine's two host-time figures.
struct Counters {
  // sim
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t domains_claimed = 0;
  std::uint64_t domains_skipped = 0;
  double engine_s = 0;        ///< host time inside the engine (windowed runs)
  double barrier_wait_s = 0;  ///< of which the main thread idled at barriers
  unsigned workers = 0;       ///< max over runs
  // topo (max over runs)
  double lookahead_us = 0;
  std::uint64_t cross_domain_channels = 0;
  // net
  std::uint64_t pkts_offered = 0;
  std::uint64_t pkts_dropped = 0;
  std::uint64_t peak_queue_pkts = 0;  ///< max over runs
  std::uint64_t ecn_marked = 0;
  std::uint64_t unroutable = 0;
  // tcp (short flows; rtos includes SYN timeouts)
  std::uint64_t rtos = 0;
  std::uint64_t spurious_rtx = 0;
  std::uint64_t syn_timeouts = 0;
  // mptcp / core
  mmptcp::Summary long_goodput_mbps;  ///< one sample per long flow
  mmptcp::QuantileSketch ps_phase_ms;  ///< MMPTCP-family shorts only
  // stats
  std::uint64_t peak_flow_slots = 0;  ///< max over runs
  std::uint64_t flows_completed = 0;
  // workload
  std::uint64_t shorts_started = 0;
  mmptcp::QuantileSketch fct_ms;  ///< all completed shorts
};

/// Outcome of one simulation.
struct RunCheck {
  /// Canonical rendering of the run's simulated statistics; byte-compared
  /// across iterations and against a reference workload.
  std::string digest;
  /// Empty when every correctness check passed.
  std::vector<std::string> failures;
};

struct Iteration {
  double setup_s = 0;    ///< input generation + simulation construction
  double run_s = 0;      ///< inside the event-executing calls
  double extract_s = 0;  ///< result helpers
  double wall_s = 0;     ///< the whole iteration, teardown included
  std::vector<RunCheck> runs;
  Counters counters;

  std::uint64_t failed_runs() const;
};

/// Host seconds to generate the inputs of one iteration and build its
/// simulations, without running them.
double time_setup(const Workload& w, std::uint64_t seed);

/// One measured iteration of `w` at `seed`.
Iteration run_iteration(const Workload& w, std::uint64_t seed,
                        Tracer& tracer);

/// Marks every run of `it` whose digest differs from `expected`'s run at
/// the same index as failed; `what` names the comparison.
void compare_digests(const std::vector<RunCheck>& expected, Iteration& it,
                     const std::string& what);

}  // namespace hostbench
