#pragma once

// The benchmark's own checks: a faulty run must be counted as failed, and
// the metric catalogue must name every metric once, with a unit.

namespace hostbench {

/// Runs the self-test cases on tiny simulations; returns the exit code.
int self_test();

/// Prints "<end_to_end|per_layer> <name> <unit>" for every metric.
void list_metrics();

}  // namespace hostbench
