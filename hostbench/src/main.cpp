// hostbench: host-time benchmark of the simulator.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//   hostbench --self-test
//   hostbench --list-metrics
//
// --trace 0 repeats untraced iterations of the workload for about
// --seconds and reports the end-to-end medians.  --trace 1 runs the layer
// probes, then alternates untraced and traced iterations, and reports
// the per-layer metrics, per-span self times and the tracing overhead.
// Every simulation's results are checked; the last line of standard
// output is one JSON object, and any failed check makes the exit code 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "probes.h"
#include "report.h"
#include "selftest.h"
#include "spans.h"
#include "util/rss.h"
#include "workloads.h"

namespace hostbench {
namespace {

constexpr int kSetupRepsPerIteration = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n"
               "       hostbench --self-test | --list-metrics\nworkloads:",
               error.c_str());
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(flag, value);
      if (s < 1 || s > 120) usage("--seconds must be in [1, 120]");
      o.seconds = double(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (find_workload(o.workload) == nullptr) {
    usage("unknown workload '" + o.workload + "'");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Failure bookkeeping across every simulation the invocation ran.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Iteration& it, const char* label) {
    attempted += it.runs.size();
    failed += it.failed_runs();
    for (std::size_t i = 0; i < it.runs.size(); ++i) {
      for (const std::string& f : it.runs[i].failures) {
        std::printf("FAILED %s run %zu: %s\n", label, i, f.c_str());
      }
    }
  }
};

/// Runs iterations while the next one is expected to fit in the time
/// left, and at least `min_iterations` of them.
class Deadline {
 public:
  explicit Deadline(double seconds) : seconds_(seconds) {}
  bool another(std::size_t done, std::size_t min_iterations,
               double last_wall_s) const {
    return done < min_iterations ||
           seconds_since(start_) + last_wall_s <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
};

void print_summary(const char* what, const std::vector<double>& v,
                   const char* unit) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  std::printf("  %-12s median %.6f %s  min %.6f  max %.6f  (n=%zu)\n", what,
              median(v), unit, s.empty() ? 0 : s.front(),
              s.empty() ? 0 : s.back(), s.size());
}

int run(const Options& o) {
  const Workload& w = *find_workload(o.workload);
  std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  std::printf("  why: %s\n", w.why);
  Tally tally;
  Tracer tracer;

  // The reference workload's statistics at the same seed, computed once
  // outside the measured iterations.
  std::vector<RunCheck> reference;
  if (w.reference != nullptr) {
    Iteration ref = run_iteration(*find_workload(w.reference), o.seed, tracer);
    tally.add(ref, w.reference);
    reference = ref.runs;
  }

  std::vector<double> setup, run_s, wall, traced_run, traced_setup,
      traced_extract;
  std::vector<RunCheck> first;  // digests of the first iteration
  // One set-up per iteration is too few samples for a figure of a
  // millisecond or less: set up several more times before every
  // iteration, so the median covers the whole run, not one moment of it.
  std::vector<double> setup_reps;
  Traced traced;
  std::uint32_t run_id = 0;
  auto measured = [&](bool traced_iteration) {
    for (int i = 0; i < kSetupRepsPerIteration; ++i) {
      setup_reps.push_back(time_setup(w, o.seed));
    }
    tracer.set_enabled(traced_iteration);
    tracer.set_run(++run_id);
    Iteration it = run_iteration(w, o.seed, tracer);
    if (w.reference != nullptr) {
      compare_digests(reference, it, std::string(w.reference) + " at seed " +
                                         std::to_string(o.seed));
    }
    if (first.empty()) {
      first = it.runs;
    } else {
      compare_digests(first, it, "the first iteration (nondeterminism)");
    }
    tally.add(it, traced_iteration ? "traced" : "untraced");
    traced.counters = it.counters;  // deterministic: any iteration will do
    if (traced_iteration) {
      traced_run.push_back(it.run_s);
      traced_setup.push_back(it.setup_s);
      traced_extract.push_back(it.extract_s);
    } else {
      setup.push_back(it.setup_s);
      run_s.push_back(it.run_s);
      wall.push_back(it.wall_s);
    }
    return it.wall_s;
  };

  Deadline deadline(o.seconds);
  if (!o.trace) {
    double last = 0;
    for (std::size_t n = 0; deadline.another(n, 3, last); ++n) {
      last = measured(false);
    }
  } else {
    // The sketch probe's scale comes from one untraced iteration; then
    // traced and untraced iterations alternate so both medians see the
    // same machine state.
    double last = measured(false);
    tracer.set_enabled(true);
    tracer.set_run(++run_id);
    traced.probes = run_probes(w.make_inputs(o.seed),
                               traced.counters.fct_ms.mean(), o.seed, tracer);
    for (std::size_t n = 0; deadline.another(n, 2, last); ++n) {
      last = measured(true) + measured(false);
    }
  }

  EndToEnd e2e;
  e2e.setup_s = median(setup_reps);
  e2e.run_s = median(run_s);
  e2e.wall_s = median(wall);
  e2e.peak_rss_mb = mmptcp::peak_rss_mb();

  std::printf("set-up only:\n");
  print_summary("setup_s", setup_reps, "s");
  std::printf("untraced iterations:\n");
  print_summary("setup_s", setup, "s");
  print_summary("run_s", run_s, "s");
  print_summary("wall_s", wall, "s");
  std::printf("end-to-end metrics (medians):\n");
  std::vector<Metric> result = end_to_end_metrics(e2e);
  print_metrics(result);
  // Reported in the JSON line as "failed" and "attempted": it is 0 when
  // nothing is wrong, so a relative bound could not gate it.
  print_metrics({{"fail_share", "ratio",
                  tally.attempted > 0
                      ? double(tally.failed) / double(tally.attempted)
                      : 0}});

  if (o.trace) {
    traced.untraced_run_s = e2e.run_s;
    traced.traced_run_s = median(traced_run);
    traced.setup_s = median(traced_setup);
    traced.extract_s = median(traced_extract);
    traced.builds_in_setup = !w.make_inputs(o.seed).scenarios.empty();
    traced.self_times = tracer.self_times();
    std::printf("traced run: %zu iterations, %zu spans\n", traced_run.size(),
                tracer.span_count());
    std::printf("  %-18s %8s %6s %14s %14s %14s\n", "span", "count", "runs",
                "total_s", "self_s", "self_s/run");
    for (const SelfTime& s : traced.self_times) {
      std::printf("  %-18s %8llu %6llu %14.6f %14.6f %14.6f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.runs), s.total_s,
                  s.self_s, s.runs > 0 ? s.self_s / double(s.runs) : 0);
    }
    if (!o.spans_out.empty()) {
      if (!tracer.write_jsonl(o.spans_out)) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     o.spans_out.c_str());
        return 1;
      }
      std::printf("spans: %s\n", o.spans_out.c_str());
    }
    result = per_layer_metrics(traced);
    std::printf("per-layer metrics:\n");
    print_metrics(result);
  }
  std::printf("runs: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::printf("%s\n", result_json(tally.failed == 0, tally.attempted,
                                  tally.failed, result)
                          .c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  if (argc == 2 && std::string(argv[1]) == "--self-test") return self_test();
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    list_metrics();
    return 0;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
