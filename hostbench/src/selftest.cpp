#include "selftest.h"

#include <cctype>
#include <cstdio>
#include <set>
#include <string>

#include "report.h"
#include "workloads.h"

namespace hostbench {

using namespace mmptcp;

namespace {

/// 16-host k=4 fabric with 40 MMPTCP shorts: decomposes into domains like
/// the real workloads but finishes in milliseconds.
ScenarioConfig tiny(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.fat_tree.k = 4;
  cfg.fat_tree.oversubscription = 1;
  cfg.transport.protocol = Protocol::kMmptcp;
  cfg.short_flow_count = 40;
  cfg.short_rate_per_host = 50.0;
  cfg.start_long_flows = false;
  cfg.seed = seed;
  return cfg;
}

Inputs tiny_t1(std::uint64_t seed) {
  Inputs in;
  in.scenarios.push_back(tiny(seed));
  return in;
}

Inputs tiny_t2(std::uint64_t seed) {
  Inputs in = tiny_t1(seed);
  in.scenarios[0].sim_threads = 2;
  return in;
}

/// Stops the simulation before the shorts can finish.
Inputs tiny_cut(std::uint64_t seed) {
  Inputs in = tiny_t1(seed);
  in.scenarios[0].max_sim_time = Time::millis(20);
  return in;
}

/// A fat-tree the library refuses to build.
Inputs tiny_invalid(std::uint64_t seed) {
  Inputs in = tiny_t1(seed);
  in.scenarios[0].fat_tree.k = 3;
  return in;
}

bool mentions(const Iteration& it, const std::string& word) {
  for (const RunCheck& r : it.runs) {
    for (const std::string& f : r.failures) {
      if (f.find(word) != std::string::npos) return true;
    }
  }
  return false;
}

bool valid_name(const std::string& s) {
  if (s.empty() || s.size() > 64 || !std::isalnum((unsigned char)s[0])) {
    return false;
  }
  for (char ch : s) {
    if (!std::isalnum((unsigned char)ch) && ch != '_' && ch != '.' &&
        ch != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace

int self_test() {
  Tracer tracer;
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("self-test %-48s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const Workload t1{"tiny_t1", "", tiny_t1, nullptr};
  const Workload t2{"tiny_t2", "", tiny_t2, nullptr};
  const Workload cut{"tiny_cut", "", tiny_cut, nullptr};
  const Workload invalid{"tiny_invalid", "", tiny_invalid, nullptr};

  const Iteration a = run_iteration(t1, 1, tracer);
  expect(a.runs.size() == 1 && a.failed_runs() == 0,
         "healthy run passes every check");

  const Iteration c = run_iteration(cut, 1, tracer);
  for (const std::string& f : c.runs.at(0).failures) {
    std::printf("  (expected) %s\n", f.c_str());
  }
  expect(c.failed_runs() == 1 && mentions(c, "completion"),
         "completion < 1 counts as a failed run");

  const Iteration x = run_iteration(invalid, 1, tracer);
  expect(x.failed_runs() == 1 && mentions(x, "setup"),
         "a run that throws counts as failed");

  Iteration same = run_iteration(t2, 1, tracer);
  compare_digests(a.runs, same, "tiny_t1");
  expect(same.failed_runs() == 0, "t2 statistics equal t1 at one seed");

  Iteration other = run_iteration(t2, 2, tracer);
  compare_digests(a.runs, other, "tiny_t1");
  expect(other.failed_runs() == 1 && mentions(other, "differ"),
         "t1/t2 mismatch counts as a failed run");

  std::set<std::string> names;
  bool catalogue_ok = true;
  for (const auto& list :
       {end_to_end_metrics(EndToEnd{}), per_layer_metrics(Traced{})}) {
    for (const Metric& m : list) {
      catalogue_ok = catalogue_ok && valid_name(m.name) && !m.unit.empty() &&
                     names.insert(m.name).second;
    }
  }
  expect(catalogue_ok, "every metric has a unique name and a unit");

  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

void list_metrics() {
  for (const Metric& m : end_to_end_metrics(EndToEnd{})) {
    std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
  }
  for (const Metric& m : per_layer_metrics(Traced{})) {
    std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
  }
}

}  // namespace hostbench
