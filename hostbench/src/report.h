#pragma once

// The benchmark's metric catalogue: every end-to-end and per-layer metric
// by name and unit, filled from one workload's measurements.  Every name
// is emitted on every workload, with an explicit zero where the workload
// bypasses the layer, so the catalogue is the same list everywhere.

#include <string>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace hostbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Host-time measurements of the untraced iterations (medians).
struct EndToEnd {
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
};

/// What the traced run adds.
struct Traced {
  Counters counters;
  ProbeResults probes;
  double untraced_run_s = 0;  ///< median over the untraced iterations
  double traced_run_s = 0;    ///< median over the traced iterations
  double setup_s = 0;         ///< median over the traced iterations
  double extract_s = 0;       ///< median over the traced iterations
  /// FatTree builds happen inside setup (Scenario) rather than inside
  /// the run call (run_incast).
  bool builds_in_setup = true;
  std::vector<SelfTime> self_times;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e);
std::vector<Metric> per_layer_metrics(const Traced& t);

/// Prints `metrics` as aligned "name value unit" lines.
void print_metrics(const std::vector<Metric>& metrics);

/// The final result line.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace hostbench
