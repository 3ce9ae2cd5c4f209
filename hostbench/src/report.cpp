#include "report.h"

#include <cstdio>

namespace hostbench {

namespace {

/// Spans the benchmark records, in the order the self-time metrics list
/// them.
const char* const kSpanNames[] = {
    "bench.iteration", "workload.setup", "sim.run",     "stats.extract",
    "bench.check",     "probe.topo",     "topo.build",  "probe.sched",
    "probe.qdisc",     "probe.sketch",
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", "s", e.setup_s},
      {"run_s", "s", e.run_s},
      {"wall_s", "s", e.wall_s},
      {"peak_rss_mb", "MB", e.peak_rss_mb},
  };
}

std::vector<Metric> per_layer_metrics(const Traced& t) {
  const Counters& c = t.counters;
  const ProbeResults& p = t.probes;
  std::vector<Metric> m = {
      {"sim.events", "count", double(c.events)},
      {"sim.events_per_s", "1/s", ratio(double(c.events), t.untraced_run_s)},
      {"sim.windows", "count", double(c.windows)},
      {"sim.events_per_window", "events/window",
       ratio(double(c.events), double(c.windows))},
      {"sim.domain_claim_ratio", "ratio",
       ratio(double(c.domains_claimed),
             double(c.domains_claimed + c.domains_skipped))},
      {"sim.engine_s", "s", c.engine_s},
      {"sim.barrier_wait_s", "s", c.barrier_wait_s},
      {"sim.workers", "count", double(c.workers)},
      {"sim.sched_ns_per_event", "ns", p.sched_ns_per_event},
      {"topo.build_s", "s", p.topo_build_s},
      {"topo.lookahead_us", "us", c.lookahead_us},
      {"topo.cross_domain_channels", "count", double(c.cross_domain_channels)},
      {"net.pkts_offered", "count", double(c.pkts_offered)},
      {"net.drop_ratio", "ratio",
       ratio(double(c.pkts_dropped), double(c.pkts_offered))},
      {"net.peak_queue_pkts", "pkts", double(c.peak_queue_pkts)},
      {"net.ecn_marked", "count", double(c.ecn_marked)},
      {"net.unroutable", "count", double(c.unroutable)},
      {"net.qdisc_ns_per_pkt", "ns", p.qdisc_ns_per_pkt},
      {"tcp.rtos", "count", double(c.rtos)},
      {"tcp.spurious_rtx", "count", double(c.spurious_rtx)},
      {"tcp.syn_timeouts", "count", double(c.syn_timeouts)},
      {"mptcp.long_goodput_mbps", "Mb/s",
       c.long_goodput_mbps.count() > 0 ? c.long_goodput_mbps.mean() : 0},
      {"core.ps_phase_ms", "ms", c.ps_phase_ms.mean()},
      {"stats.peak_flow_slots", "count", double(c.peak_flow_slots)},
      {"stats.flows_completed", "count", double(c.flows_completed)},
      {"stats.sketch_add_ns", "ns", p.sketch_add_ns},
      {"stats.extract_s", "s", t.extract_s},
      {"workload.build_s", "s",
       t.builds_in_setup ? t.setup_s - p.topo_build_s : t.setup_s},
      {"workload.shorts_started", "count", double(c.shorts_started)},
      {"workload.short_fct_mean_ms", "ms", c.fct_ms.mean()},
      {"workload.short_fct_p90_ms", "ms", c.fct_ms.quantile(0.9)},
      {"bench.trace_overhead_share", "ratio",
       ratio(t.traced_run_s - t.untraced_run_s, t.untraced_run_s)},
  };
  for (const char* name : kSpanNames) {
    double self = 0;
    for (const SelfTime& s : t.self_times) {
      if (s.name == name && s.runs > 0) self = s.self_s / double(s.runs);
    }
    m.push_back({std::string("span.") + name + ".self_s", "s", self});
  }
  return m;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %-24s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace hostbench
