#include "exp/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "exp/registry.h"
#include "exp/sink.h"

namespace mmptcp::exp {
namespace {

/// Cheap synthetic spec: metrics derived arithmetically from the grid
/// point, so sweeps are instant and outcomes fully predictable.
ExperimentSpec synthetic_spec() {
  ExperimentSpec spec;
  spec.name = "synthetic";
  spec.description = "arith";
  spec.axes = fixed_axes({{"x", {"1", "2", "3"}}, {"y", {"10", "20"}}});
  spec.seeds = {1, 2};
  spec.run = [](const RunContext& ctx) {
    RunOutcome o;
    o.set("product", double(ctx.params.get_int("x") *
                            ctx.params.get_int("y")));
    o.set("seed_echo", double(ctx.seed));
    return o;
  };
  return spec;
}

TEST(Runner, ExpansionIsOrderedAxisMajorSeedsInnermost) {
  const auto records = expand(synthetic_spec(), Scale{}, SweepOptions{});
  ASSERT_EQ(records.size(), 12u);  // 3 * 2 * 2 seeds
  EXPECT_EQ(records[0].id, "x=1/y=10/seed=1");
  EXPECT_EQ(records[1].id, "x=1/y=10/seed=2");
  EXPECT_EQ(records[2].id, "x=1/y=20/seed=1");
  EXPECT_EQ(records[11].id, "x=3/y=20/seed=2");
}

TEST(Runner, SeedAndAxisOverrides) {
  SweepOptions options;
  options.seeds = {7};
  options.axis_overrides = {{"x", {"5"}}};
  const auto records = expand(synthetic_spec(), Scale{}, options);
  ASSERT_EQ(records.size(), 2u);  // 1 x-value * 2 y-values * 1 seed
  EXPECT_EQ(records[0].id, "x=5/y=10/seed=7");

  SweepOptions bad;
  bad.axis_overrides = {{"nope", {"1"}}};
  EXPECT_THROW(expand(synthetic_spec(), Scale{}, bad), ConfigError);
}

TEST(Runner, UnknownSetParameterNamesTheValidOnes) {
  // A typo in --set must fail loudly and tell the caller what is
  // sweepable, not silently run the default grid.
  SweepOptions bad;
  bad.axis_overrides = {{"protocl", {"tcp"}}};
  try {
    expand(synthetic_spec(), Scale{}, bad);
    FAIL() << "unknown --set parameter was accepted";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("protocl"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid --set parameters"), std::string::npos) << msg;
    EXPECT_NE(msg.find("x, y"), std::string::npos) << msg;
  }
}

TEST(Runner, ParallelSweepMatchesSerialByteForByte) {
  const ExperimentSpec spec = synthetic_spec();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto a = run_sweep(spec, Scale{}, serial);
  const auto b = run_sweep(spec, Scale{}, parallel);
  EXPECT_EQ(to_json(spec, Scale{}, a), to_json(spec, Scale{}, b));
}

TEST(Runner, ActuallyRunsConcurrently) {
  ExperimentSpec spec;
  spec.name = "concurrent";
  spec.axes = fixed_axes({{"i", {"1", "2", "3", "4"}}});
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  spec.run = [&](const RunContext&) {
    const int now = in_flight.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected &&
           !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    in_flight.fetch_sub(1);
    return RunOutcome{};
  };
  SweepOptions options;
  options.jobs = 4;
  run_sweep(spec, Scale{}, options);
  EXPECT_GT(peak.load(), 1);
}

TEST(Runner, FailureIsIsolated) {
  ExperimentSpec spec;
  spec.name = "flaky";
  spec.axes = fixed_axes({{"i", {"1", "2", "3"}}});
  spec.run = [](const RunContext& ctx) {
    if (ctx.params.get_int("i") == 2) throw std::runtime_error("boom");
    RunOutcome o;
    o.set("v", 1);
    return o;
  };
  const auto records = run_sweep(spec, Scale{}, SweepOptions{});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].outcome.ok);
  EXPECT_FALSE(records[1].outcome.ok);
  EXPECT_EQ(records[1].outcome.error, "boom");
  EXPECT_TRUE(records[2].outcome.ok);

  // The failure shows up in both sinks instead of aborting the sweep.
  const std::string json = to_json(spec, Scale{}, records);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("boom"), std::string::npos);
  EXPECT_EQ(to_table(records).rows(), 3u);
}

TEST(Runner, ProgressReportsEveryRun) {
  const ExperimentSpec spec = synthetic_spec();
  SweepOptions options;
  options.jobs = 4;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  options.on_progress = [&](std::size_t done, std::size_t total,
                            const std::string& id, bool ok) {
    ++calls;
    // Callbacks are serialised and count up one by one, so a progress
    // line never goes backwards.
    EXPECT_EQ(done, last_done + 1);
    last_done = done;
    EXPECT_EQ(total, 12u);
    EXPECT_FALSE(id.empty());
    EXPECT_TRUE(ok);
  };
  run_sweep(spec, Scale{}, options);
  EXPECT_EQ(calls, 12u);
  EXPECT_EQ(last_done, 12u);
}

// The real thing, end to end: the registered "smoke" spec (a genuine
// k=4 FatTree simulation) is byte-identical at --jobs 1 and --jobs 8.
TEST(Runner, RegisteredSmokeSpecIsDeterministicAcrossJobCounts) {
  register_builtin_experiments();
  const ExperimentSpec* spec = Registry::global().find("smoke");
  ASSERT_NE(spec, nullptr);

  Scale scale;
  scale.shorts = 8;  // keep the test snappy; adjust_scale caps the rest

  SweepOptions serial;
  serial.jobs = 1;
  serial.seeds = {1, 2};
  SweepOptions parallel;
  parallel.jobs = 8;
  parallel.seeds = {1, 2};

  const auto a = run_sweep(*spec, scale, serial);
  const auto b = run_sweep(*spec, scale, parallel);
  const Scale shown = effective_scale(*spec, scale);
  const std::string ja = to_json(*spec, shown, a);
  EXPECT_EQ(ja, to_json(*spec, shown, b));

  // And the runs did real work: every short flow completed.
  for (const RunRecord& rec : a) {
    ASSERT_TRUE(rec.outcome.ok) << rec.id << ": " << rec.outcome.error;
    EXPECT_DOUBLE_EQ(rec.outcome.get("completion"), 1.0) << rec.id;
    EXPECT_GT(rec.outcome.get("events"), 0.0) << rec.id;
  }
}

// The event-core microbenchmark: pure scheduler/link churn must be
// byte-identical at any job count, like every other spec.
TEST(Runner, PerfMicroSpecIsDeterministicAcrossJobCounts) {
  register_builtin_experiments();
  const ExperimentSpec* spec = Registry::global().find("perf_micro");
  ASSERT_NE(spec, nullptr);

  SweepOptions serial;
  serial.jobs = 1;
  serial.seeds = {1, 2};
  SweepOptions parallel;
  parallel.jobs = 8;
  parallel.seeds = {1, 2};

  const auto a = run_sweep(*spec, Scale{}, serial);
  const auto b = run_sweep(*spec, Scale{}, parallel);
  EXPECT_EQ(to_json(*spec, Scale{}, a), to_json(*spec, Scale{}, b));

  for (const RunRecord& rec : a) {
    ASSERT_TRUE(rec.outcome.ok) << rec.id << ": " << rec.outcome.error;
    EXPECT_GT(rec.outcome.get("events"), 0.0) << rec.id;
    // Wall-clock throughput goes to the sidecar, never the main doc.
    bool has_eps = false;
    for (const auto& [name, value] : rec.outcome.metrics) {
      (void)value;
      if (name == "events_per_second") has_eps = true;
    }
    EXPECT_FALSE(has_eps) << rec.id;
  }
  const std::string timing = to_timing_json(*spec, a);
  EXPECT_NE(timing.find("events_per_second_mean"), std::string::npos);
}

TEST(Sink, TimingsGoToTheSidecarNotTheMainJson) {
  ExperimentSpec spec;
  spec.name = "timed";
  spec.axes = fixed_axes({{"i", {"1", "2"}}});
  spec.run = [](const RunContext& ctx) {
    RunOutcome o;
    o.set("v", double(ctx.params.get_int("i")));
    o.set_timing("events_per_second", 1e6);
    return o;
  };
  const auto records = run_sweep(spec, Scale{}, SweepOptions{});
  // Wall-clock metrics must not leak into the deterministic document.
  const std::string main_json = to_json(spec, Scale{}, records);
  EXPECT_EQ(main_json.find("events_per_second"), std::string::npos);
  const std::string timing = to_timing_json(spec, records);
  EXPECT_NE(timing.find("events_per_second"), std::string::npos);
  EXPECT_NE(timing.find("aggregate"), std::string::npos);
  EXPECT_NE(timing.find("events_per_second_mean"), std::string::npos);

  // Specs without timings produce no sidecar at all.
  const ExperimentSpec plain = synthetic_spec();
  EXPECT_TRUE(
      to_timing_json(plain, run_sweep(plain, Scale{}, SweepOptions{}))
          .empty());
}

TEST(Sink, AggregateTableAveragesOverSeeds) {
  const ExperimentSpec spec = synthetic_spec();
  const auto records = run_sweep(spec, Scale{}, SweepOptions{});
  const Table agg = to_aggregate_table(records);
  EXPECT_EQ(agg.rows(), 6u);  // one row per grid point, seeds folded
  // seed_echo mean over seeds {1,2} is 1.5 for every grid point.
  EXPECT_NE(agg.to_string().find("1.50"), std::string::npos);
}

}  // namespace
}  // namespace mmptcp::exp
