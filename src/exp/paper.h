#pragma once

// The paper's workload at a configurable scale, shared by the experiment
// registry and the examples.
//
// Every experiment runs at a laptop-friendly scale by default and
// switches to paper scale (k=8, 4:1, 512 hosts) with --full or
// MMPTCP_BENCH_SCALE=full.  Individual knobs (--k, --shorts, --rate,
// ...) override either preset.

#include <string>

#include "util/flags.h"
#include "util/table.h"
#include "workload/scenario.h"

namespace mmptcp::exp {

/// Effective workload scale for one experiment invocation.
struct Scale {
  bool full = false;
  std::uint32_t k = 4;
  std::uint32_t oversubscription = 4;
  std::uint32_t shorts = 1000;
  double rate_per_host = 8.0;
  std::uint64_t short_bytes = 70 * 1024;
  std::uint32_t subflows = 8;
  std::uint64_t seed = 1;
  Time max_sim_time = Time::seconds(120);
};

/// Reads the scale from flags + environment; registers the common flags.
Scale parse_scale(Flags& flags);

/// The paper's Figure-1 scenario at the given scale.
ScenarioConfig paper_scenario(const Scale& scale, Protocol proto,
                              std::uint32_t subflows);

/// Everything the tables report about one finished run.
struct RunResult {
  Summary fct_ms;           ///< short-flow completion times
  Summary long_goodput;     ///< Mb/s per long flow
  double utilization = 0;   ///< network-wide goodput / host capacity
  double completion = 0;    ///< fraction of shorts that completed
  std::uint64_t rtos = 0;   ///< RTOs + SYN timeouts across shorts
  std::uint64_t flows_with_rto = 0;
  std::uint64_t spurious = 0;
  double core_loss = 0;     ///< drop rate at the core layer
  double agg_loss = 0;      ///< drop rate at the aggregation layer
  std::uint64_t ecn_marked = 0;       ///< CE marks across all qdiscs
  std::uint64_t peak_queue_pkts = 0;  ///< peak occupancy, switch ports
  /// Packets whose route fell off a switch's table — a hard canary:
  /// any nonzero value means a routing bug silently vanished traffic.
  std::uint64_t unroutable = 0;
  Time end_time;
  /// Streaming FCT/budget sketches over completed shorts (always filled;
  /// with ScenarioConfig::exact_stats=false they are the only FCT stats).
  FlowSketches short_sketches;
};

/// Builds, runs and summarises one scenario.
RunResult run_scenario(const ScenarioConfig& cfg);

/// Writes the per-flow (flow_id, fct_ms, rtos, syn_timeouts) series of
/// completed short flows to `csv_path`; throws ConfigError when the
/// file cannot be written.  Used by the fig1b/c specs so scatter data
/// survives engine runs.
void write_flow_csv(const Scenario& sc, const std::string& csv_path);

}  // namespace mmptcp::exp
