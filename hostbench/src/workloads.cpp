#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>

namespace hostbench {

using namespace mmptcp;

namespace {

// ------------------------------------------------------------ inputs

/// k=8 4:1 fat-tree (512 hosts), 4000 MMPTCP 70 KB shorts only, Poisson
/// 10/s/host, 100 us core delay, streaming stats, 1 s server linger: the
/// inputs of `mmptcp_exp --run scale_sweep --set shorts=4000`.
ScenarioConfig fabric_config(std::uint64_t seed, unsigned sim_threads) {
  ScenarioConfig cfg;
  cfg.fat_tree.k = 8;
  cfg.fat_tree.oversubscription = 4;
  cfg.fat_tree.core_link_delay = Time::micros(100);
  cfg.transport.protocol = Protocol::kMmptcp;
  cfg.transport.subflows = 8;
  cfg.short_flow_count = 4000;
  cfg.short_rate_per_host = 10.0;
  cfg.short_flow_bytes = 70 * 1024;
  cfg.start_long_flows = false;
  cfg.server_linger = Time::seconds(1);
  cfg.exact_stats = false;
  cfg.seed = seed;
  cfg.sim_threads = sim_threads;
  return cfg;
}

Inputs fabric_shorts(std::uint64_t seed) {
  Inputs in;
  in.scenarios.push_back(fabric_config(seed, 1));
  return in;
}

Inputs fabric_shorts_t2(std::uint64_t seed) {
  Inputs in;
  in.scenarios.push_back(fabric_config(seed, 2));
  return in;
}

/// The paper's Figure 1 mix on a k=4 4:1 fat-tree: one third of hosts run
/// long flows, 150 Poisson 70 KB shorts at 8/s/host over drop-tail
/// queues, exact stats; one MPTCP(8) and one MMPTCP(8) run — the inputs
/// of `mmptcp_exp --run text_summary --k 4 --shorts 150`.
Inputs paper_battle(std::uint64_t seed) {
  Inputs in;
  for (Protocol p : {Protocol::kMptcp, Protocol::kMmptcp}) {
    ScenarioConfig cfg;
    cfg.fat_tree.k = 4;
    cfg.fat_tree.oversubscription = 4;
    cfg.transport.protocol = p;
    cfg.transport.subflows = 8;
    cfg.short_flow_count = 150;
    cfg.short_rate_per_host = 8.0;
    cfg.short_flow_bytes = 70 * 1024;
    cfg.seed = seed;
    in.scenarios.push_back(cfg);
  }
  return in;
}

/// The incast_ecn grid (6 transport/qdisc variants x fan-in {8, 24}, 4
/// elephants, 300 ms warmup, ECN K=20, 2 priority bands) over 8
/// consecutive seeds starting at the workload seed.
Inputs incast_ensemble(std::uint64_t seed) {
  QdiscConfig ecn;
  ecn.kind = QdiscKind::kEcnRed;
  ecn.ecn_threshold_packets = 20;
  QdiscConfig prio;
  prio.kind = QdiscKind::kPriority;
  prio.bands = 2;
  prio.classifier = PrioClassifierKind::kPsFlag;
  struct Variant {
    Protocol protocol;
    std::uint32_t subflows;
    const QdiscConfig* qdisc;  // null = drop-tail
  };
  // ECN-aware MPTCP variants keep a 2-subflow pool, as incast_ecn does.
  const Variant variants[] = {
      {Protocol::kTcp, 8, nullptr},       {Protocol::kDctcp, 8, &ecn},
      {Protocol::kMmptcp, 8, nullptr},    {Protocol::kMmptcp, 8, &prio},
      {Protocol::kMptcpDctcp, 2, &ecn},   {Protocol::kMmptcpDctcp, 2, &ecn},
  };
  Inputs in;
  for (std::uint64_t s = seed; s < seed + 8; ++s) {
    for (const Variant& v : variants) {
      for (std::uint32_t senders : {8u, 24u}) {
        IncastConfig cfg;
        cfg.fat_tree.k = 4;
        cfg.fat_tree.oversubscription = 4;
        if (v.qdisc != nullptr) cfg.fat_tree.qdisc = *v.qdisc;
        cfg.transport.protocol = v.protocol;
        cfg.transport.subflows = v.subflows;
        cfg.senders = senders;
        cfg.long_senders = 4;
        cfg.short_start = Time::millis(300);
        cfg.bytes = 70 * 1024;
        cfg.max_sim_time = Time::seconds(15);
        cfg.seed = s;
        in.incasts.push_back(cfg);
      }
    }
  }
  return in;
}

// ------------------------------------------------------------ digests

void put(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
  out += buf;
}

void put_sketches(std::string& out, const FlowSketches& s) {
  for (const QuantileSketch* q :
       {&s.fct_ms, &s.handshake_ms, &s.rto_stall_ms, &s.fast_recovery_ms,
        &s.transfer_ms, &s.reorder_wait_ms, &s.ttfb_ms, &s.ps_phase_ms,
        &s.mptcp_phase_ms}) {
    out += q->serialize();
    out += '|';
  }
}

// ------------------------------------------------------------ extract

void extract_scenario(Scenario& sc, const ScenarioConfig& cfg, Counters& c,
                      RunCheck& run) {
  const Metrics& m = sc.metrics();
  const FlowSketches& sk = m.short_flow_sketches(cfg.transport.protocol);
  const EngineStats& es = sc.engine_stats();
  const auto layers = sc.layer_stats();
  const std::uint64_t events = sc.sim().total_executed();
  const std::uint64_t rtos = sc.short_flow_rtos();
  const std::uint64_t spurious = sc.total_spurious_retransmits();
  const std::uint64_t syn = m.total(
      [](const FlowRecord& r) { return std::uint64_t(r.syn_timeouts); },
      [](const FlowRecord& r) { return !r.long_flow; });
  const Summary goodput = sc.long_goodput_mbps();
  const std::uint64_t peak_queue = sc.peak_switch_queue_packets();
  const std::uint64_t marked = sc.ecn_marked_packets();
  const std::uint64_t unroutable = sc.network().unroutable_total();

  c.events += events;
  c.windows += es.windows;
  c.domains_claimed += es.domains_claimed;
  c.domains_skipped += es.domains_skipped;
  c.engine_s += double(es.wall_ns) * 1e-9;
  c.barrier_wait_s += double(es.barrier_wait_ns) * 1e-9;
  c.workers = std::max(c.workers, sc.workers_used());
  c.lookahead_us = std::max(c.lookahead_us, sc.lookahead().ns() * 1e-3);
  c.cross_domain_channels = std::max<std::uint64_t>(
      c.cross_domain_channels, sc.network().cross_domain_channel_count());
  for (const auto& [layer, ls] : layers) {
    c.pkts_offered += ls.offered_packets;
    c.pkts_dropped += ls.dropped_packets;
  }
  c.peak_queue_pkts = std::max(c.peak_queue_pkts, peak_queue);
  c.ecn_marked += marked;
  c.unroutable += unroutable;
  c.rtos += rtos;
  c.spurious_rtx += spurious;
  c.syn_timeouts += syn;
  c.long_goodput_mbps.merge(goodput);
  if (has_ps_phase(cfg.transport.protocol)) c.ps_phase_ms.merge(sk.ps_phase_ms);
  c.peak_flow_slots =
      std::max<std::uint64_t>(c.peak_flow_slots, m.flow_count());
  c.flows_completed += m.short_flows_completed();
  c.shorts_started += sc.shorts_started();
  c.fct_ms.merge(sk.fct_ms);

  std::string& d = run.digest;
  put(d, "started", sc.shorts_started());
  put(d, "completed", double(m.short_flows_completed()));
  put(d, "completion", sc.short_completion_ratio());
  put(d, "events", double(events));
  put(d, "windows", double(es.windows));
  put(d, "end_ns", double(sc.end_time().ns()));
  put(d, "rtos", double(rtos));
  put(d, "spurious", double(spurious));
  put(d, "syn", double(syn));
  put(d, "slots", double(m.flow_count()));
  put(d, "goodput_n", double(goodput.count()));
  put(d, "goodput_sum", goodput.sum());
  put(d, "marked", double(marked));
  put(d, "peak_queue", double(peak_queue));
  for (const auto& [layer, ls] : layers) {
    d += to_string(layer) + ':';
    put(d, "enq", double(ls.enqueued_packets));
    put(d, "drop", double(ls.dropped_packets));
    put(d, "tx", double(ls.tx_packets));
    put(d, "tx_bytes", double(ls.tx_bytes));
    put(d, "peak", double(ls.peak_queue_packets));
  }
  put_sketches(d, sk);
}

void extract_incast(const IncastConfig& cfg, const IncastResult& r,
                    Counters& c, RunCheck& run) {
  c.events += r.events_executed;
  c.peak_queue_pkts = std::max(c.peak_queue_pkts, r.peak_queue_packets);
  c.ecn_marked += r.ecn_marked;
  c.rtos += r.rtos + r.syn_timeouts;
  c.syn_timeouts += r.syn_timeouts;
  c.long_goodput_mbps.merge(r.long_goodput_mbps);
  if (has_ps_phase(cfg.transport.protocol)) {
    c.ps_phase_ms.merge(r.short_sketches.ps_phase_ms);
  }
  c.flows_completed += r.short_sketches.fct_ms.count();
  c.shorts_started += cfg.senders;
  c.fct_ms.merge(r.short_sketches.fct_ms);

  std::string& d = run.digest;
  put(d, "completion", r.completion_ratio);
  put(d, "events", double(r.events_executed));
  put(d, "makespan_ns", double(r.makespan.ns()));
  put(d, "rtos", double(r.rtos));
  put(d, "syn", double(r.syn_timeouts));
  put(d, "fast_rtx", double(r.fast_retransmits));
  put(d, "marked", double(r.ecn_marked));
  put(d, "peak_queue", double(r.peak_queue_packets));
  put(d, "peak_at_ns", double(r.peak_queue_at.ns()));
  put(d, "goodput_n", double(r.long_goodput_mbps.count()));
  put(d, "goodput_sum", r.long_goodput_mbps.sum());
  put_sketches(d, r.short_sketches);
}

// ------------------------------------------------------------ checks

void fail(RunCheck& run, const std::string& what) {
  run.failures.push_back(what);
}

void check_incast(const IncastConfig& cfg, const IncastResult& r,
                  RunCheck& run) {
  if (r.completion_ratio != 1.0) {
    fail(run, "incast completion " + std::to_string(r.completion_ratio) +
                  " < 1");
  }
  if (r.short_sketches.fct_ms.count() != cfg.senders) {
    fail(run, "incast sketch holds " +
                  std::to_string(r.short_sketches.fct_ms.count()) +
                  " FCTs for " + std::to_string(cfg.senders) + " shorts");
  }
  if (r.fct_ms.count() != r.short_sketches.fct_ms.count()) {
    fail(run, "incast exact and sketch FCT counts differ");
  }
}

void check_scenario(const Scenario& sc, const ScenarioConfig& cfg,
                    RunCheck& run) {
  const Metrics& m = sc.metrics();
  const double completion = sc.short_completion_ratio();
  if (completion != 1.0) {
    fail(run, "completion " + std::to_string(completion) + " < 1");
  }
  // The ratio counts started flows only; a run cut short must not pass.
  if (sc.shorts_started() != cfg.short_flow_count) {
    fail(run, "completion: " + std::to_string(sc.shorts_started()) + " of " +
                  std::to_string(cfg.short_flow_count) +
                  " configured shorts started");
  }
  const auto layers = sc.layer_stats();
  std::uint64_t unroutable = 0;
  for (const auto& [layer, ls] : layers) {
    unroutable += ls.unroutable_packets;
    if (ls.offered_packets != ls.enqueued_packets + ls.dropped_packets) {
      fail(run, "layer " + to_string(layer) +
                    ": offered != enqueued + dropped");
    }
    if (ls.tx_packets > ls.enqueued_packets) {
      fail(run, "layer " + to_string(layer) +
                    ": transmitted more packets than were enqueued");
    }
  }
  if (unroutable != 0) {
    fail(run, std::to_string(unroutable) + " unroutable packets");
  }
  const std::uint64_t completed = m.short_flows_completed();
  const std::uint64_t sketched =
      m.short_flow_sketches(cfg.transport.protocol).fct_ms.count();
  if (sketched != completed) {
    fail(run, "sketch holds " + std::to_string(sketched) + " FCTs for " +
                  std::to_string(completed) + " completed shorts");
  }
  if (cfg.exact_stats) {
    std::uint64_t mismatched = 0;
    for (const FlowRecord* rec :
         m.flows([](const FlowRecord& r) { return r.is_complete(); })) {
      if (rec->budget_total() != rec->fct()) ++mismatched;
    }
    if (mismatched != 0) {
      fail(run, std::to_string(mismatched) +
                    " flows whose time budget does not sum to their FCT");
    }
  }
  if (sc.workers_used() !=
      std::min<std::size_t>(cfg.sim_threads, sc.domain_count())) {
    fail(run, "ran on " + std::to_string(sc.workers_used()) +
                  " workers, asked for " + std::to_string(cfg.sim_threads));
  }
}

}  // namespace

std::uint64_t Iteration::failed_runs() const {
  std::uint64_t n = 0;
  for (const RunCheck& r : runs) n += r.failures.empty() ? 0 : 1;
  return n;
}

void compare_digests(const std::vector<RunCheck>& expected, Iteration& it,
                     const std::string& what) {
  for (std::size_t i = 0; i < it.runs.size(); ++i) {
    if (i >= expected.size() || expected[i].digest != it.runs[i].digest) {
      fail(it.runs[i], "simulated statistics differ from " + what);
    }
  }
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"fabric_shorts",
       "k=8 fat-tree, 4000 MMPTCP shorts, 1 thread: serial engine barrier "
       "bookkeeping and streaming stats, queues nearly empty",
       fabric_shorts, nullptr},
      {"fabric_shorts_t2",
       "fabric_shorts at 2 simulation threads: the worker pool, claiming, "
       "parking and barrier wait; statistics must equal fabric_shorts'",
       fabric_shorts_t2, "fabric_shorts"},
      {"paper_battle",
       "Fig. 1 MPTCP vs MMPTCP on k=4 with long flows: transport, RTOs, "
       "scatter reordering, full drop-tail queues, exact stats",
       paper_battle, nullptr},
      {"incast_ensemble",
       "96 incast runs over 6 transport/qdisc variants: run_incast bypasses "
       "the engine; ECN-RED, priority qdiscs and DCTCP; per-run fixed costs",
       incast_ensemble, nullptr},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

/// Generates the iteration's inputs and builds its simulations.
void set_up(const Workload& w, std::uint64_t seed, Inputs& in,
            std::vector<std::unique_ptr<Scenario>>& sims) {
  in = w.make_inputs(seed);
  for (const ScenarioConfig& cfg : in.scenarios) {
    sims.push_back(std::make_unique<Scenario>(cfg));
  }
}

}  // namespace

double time_setup(const Workload& w, std::uint64_t seed) {
  Inputs in;
  std::vector<std::unique_ptr<Scenario>> sims;
  const Clock::time_point start = Clock::now();
  set_up(w, seed, in, sims);
  return seconds_since(start);  // teardown is not set-up
}

Iteration run_iteration(const Workload& w, std::uint64_t seed,
                        Tracer& tracer) {
  Iteration it;
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope iteration(tracer, "bench.iteration");
    Inputs in;
    std::vector<std::unique_ptr<Scenario>> sims;
    try {
      Tracer::Scope setup(tracer, "workload.setup", &it.setup_s);
      set_up(w, seed, in, sims);
    } catch (const std::exception& e) {
      it.runs.resize(std::max<std::size_t>(in.run_count(), 1));
      for (RunCheck& r : it.runs) fail(r, std::string("setup: ") + e.what());
      it.wall_s = seconds_since(start);
      return it;
    }
    it.runs.resize(in.run_count());
    for (std::size_t i = 0; i < sims.size(); ++i) {
      RunCheck& run = it.runs[i];
      try {
        {
          Tracer::Scope s(tracer, "sim.run", &it.run_s);
          sims[i]->run();
        }
        {
          Tracer::Scope s(tracer, "stats.extract", &it.extract_s);
          extract_scenario(*sims[i], in.scenarios[i], it.counters, run);
        }
        Tracer::Scope s(tracer, "bench.check");
        check_scenario(*sims[i], in.scenarios[i], run);
      } catch (const std::exception& e) {
        fail(run, std::string("threw: ") + e.what());
      }
    }
    for (std::size_t i = 0; i < in.incasts.size(); ++i) {
      RunCheck& run = it.runs[sims.size() + i];
      try {
        IncastResult res;
        {
          Tracer::Scope s(tracer, "sim.run", &it.run_s);
          res = run_incast(in.incasts[i]);
        }
        {
          Tracer::Scope s(tracer, "stats.extract", &it.extract_s);
          extract_incast(in.incasts[i], res, it.counters, run);
        }
        Tracer::Scope s(tracer, "bench.check");
        check_incast(in.incasts[i], res, run);
      } catch (const std::exception& e) {
        fail(run, std::string("threw: ") + e.what());
      }
    }
    sims.clear();
  }
  it.wall_s = seconds_since(start);
  return it;
}

}  // namespace hostbench
