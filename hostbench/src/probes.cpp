#include "probes.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "net/qdisc/qdisc.h"
#include "sim/scheduler.h"
#include "topo/fat_tree.h"
#include "util/rng.h"

namespace hostbench {

using namespace mmptcp;

namespace {

constexpr std::uint64_t kSchedEvents = 2'000'000;
constexpr std::uint64_t kQdiscPackets = 1'000'000;
constexpr std::size_t kSketchAdds = 1'000'000;

/// Wire time of `bytes` at `rate_bps`.
Time serialisation(std::uint64_t bytes, std::uint64_t rate_bps) {
  return Time::nanos(static_cast<std::int64_t>(bytes * 8 * 1'000'000'000ull /
                                               rate_bps));
}

// ------------------------------------------------------------ topology

/// One FatTree construction on a fresh simulation, decomposed into
/// domains first when the workload runs through Scenario, which
/// decomposes (run_incast does not).
double build_once(const FatTreeConfig& ft, bool decompose, Tracer& tracer) {
  Simulation sim;
  if (decompose) {
    const FatTreeDomainPlan plan = FatTree::domain_plan(ft);
    if (plan.domains > 1) sim.configure_domains(plan.domains);
  }
  double secs = 0;
  std::unique_ptr<FatTree> tree;
  {
    Tracer::Scope span(tracer, "topo.build", &secs);
    tree = std::make_unique<FatTree>(sim, ft);
  }
  return secs;
}

/// Median-of-reps build time of every simulation's fabric, summed.
double probe_topology(const Inputs& in, Tracer& tracer) {
  const int reps = in.run_count() >= 8 ? 1 : 3;
  double total = 0;
  auto add = [&](const FatTreeConfig& ft, bool decompose) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) t.push_back(build_once(ft, decompose, tracer));
    std::sort(t.begin(), t.end());
    total += t[t.size() / 2];
  };
  for (const ScenarioConfig& c : in.scenarios) add(c.fat_tree, true);
  for (const IncastConfig& c : in.incasts) add(c.fat_tree, false);
  return total;
}

// ------------------------------------------------------------ scheduler

/// Chains of events, one per host, each hopping by the workload's delay
/// mix and re-arming a retransmission timer per hop the way a TCP sender
/// does per ACK.
struct SchedProbe {
  Scheduler sched;
  std::vector<Time> mix;
  Time rto;
  std::vector<EventId> timers;
  std::vector<std::uint32_t> cursor;
  std::uint64_t budget = 0;
};

struct Hop {
  SchedProbe* p;
  std::uint32_t chain;
  void operator()() const {
    if (p->budget == 0) return;
    --p->budget;
    p->sched.cancel(p->timers[chain]);
    p->timers[chain] = p->sched.schedule(p->rto, [] {});
    const Time d = p->mix[p->cursor[chain]++ % p->mix.size()];
    p->sched.schedule(d, Hop{p, chain});
  }
};

double probe_scheduler(const FatTreeConfig& ft, const TcpConfig& tcp) {
  SchedProbe p;
  const Time core =
      ft.core_link_delay.is_zero() ? ft.link_delay : ft.core_link_delay;
  const std::uint64_t header = Packet::kBaseHeaderBytes +
                               Packet::kDssOptionBytes;
  p.mix = {ft.link_delay, core,
           serialisation(tcp.mss + header, ft.link_rate_bps),
           serialisation(header, ft.link_rate_bps)};
  p.rto = tcp.rto.min_rto;
  const std::uint32_t chains =
      ft.oversubscription * ft.k * ft.k * ft.k / 4;  // host count
  p.timers.resize(chains);
  p.cursor.assign(chains, 0);
  p.budget = kSchedEvents;
  for (std::uint32_t c = 0; c < chains; ++c) {
    p.sched.schedule(p.mix[c % p.mix.size()] + Time::nanos(c), Hop{&p, c});
  }
  const Clock::time_point start = Clock::now();
  p.sched.run();
  const double secs = seconds_since(start);
  return secs * 1e9 / double(p.sched.executed());
}

// ------------------------------------------------------------ qdisc

double probe_one_qdisc(const QdiscConfig& qc, QueueLimits limits) {
  std::unique_ptr<Qdisc> q = make_qdisc(qc, limits, nullptr);
  // Fill a quarter past the limit so admission drops (or marks) too.
  const std::uint32_t depth =
      limits.max_packets > 0 ? limits.max_packets + limits.max_packets / 4
                             : 128;
  Packet pkt;
  pkt.payload = 1400;
  pkt.ecn = ecn_bits::kEct;
  Packet out;
  std::uint64_t offered = 0, accepted = 0, popped = 0;
  const Clock::time_point start = Clock::now();
  while (offered < kQdiscPackets) {
    for (std::uint32_t i = 0; i < depth; ++i) {
      pkt.seq += pkt.payload;
      // Alternate sprayed and plain segments for the priority classifier.
      pkt.flags = (i & 1) != 0 ? (pkt_flags::kDss | pkt_flags::kPs)
                               : pkt_flags::kDss;
      accepted += q->try_push(pkt) ? 1 : 0;
      ++offered;
    }
    while (q->pop_into(out)) ++popped;
  }
  const double secs = seconds_since(start);
  if (popped != accepted) {
    throw std::runtime_error("qdisc probe: " + to_string(qc.kind) +
                             " returned a different number of packets "
                             "than it accepted");
  }
  return secs * 1e9 / double(offered);
}

/// Mean over the distinct qdisc kinds on the workload's switch ports.
double probe_qdiscs(const Inputs& in) {
  std::vector<std::pair<QdiscConfig, QueueLimits>> kinds;
  auto note = [&](const FatTreeConfig& ft) {
    for (const auto& k : kinds) {
      if (k.first.kind == ft.qdisc.kind) return;
    }
    kinds.emplace_back(ft.qdisc, ft.queue);
  };
  for (const ScenarioConfig& c : in.scenarios) note(c.fat_tree);
  for (const IncastConfig& c : in.incasts) note(c.fat_tree);
  double sum = 0;
  for (const auto& [qc, limits] : kinds) sum += probe_one_qdisc(qc, limits);
  return kinds.empty() ? 0 : sum / double(kinds.size());
}

// ------------------------------------------------------------ sketch

double probe_sketch(double mean_fct_ms, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> samples(kSketchAdds);
  for (double& v : samples) v = rng.exponential(mean_fct_ms);
  QuantileSketch sk;
  const Clock::time_point start = Clock::now();
  for (double v : samples) sk.add(v);
  const double secs = seconds_since(start);
  if (sk.count() != samples.size()) {
    throw std::runtime_error("sketch probe: count does not match adds");
  }
  return secs * 1e9 / double(samples.size());
}

}  // namespace

ProbeResults run_probes(const Inputs& in, double mean_fct_ms,
                        std::uint64_t seed, Tracer& tracer) {
  const FatTreeConfig& ft = in.scenarios.empty()
                                ? in.incasts.front().fat_tree
                                : in.scenarios.front().fat_tree;
  const TcpConfig& tcp = in.scenarios.empty()
                             ? in.incasts.front().transport.tcp
                             : in.scenarios.front().transport.tcp;
  ProbeResults r;
  {
    Tracer::Scope s(tracer, "probe.topo");
    r.topo_build_s = probe_topology(in, tracer);
  }
  {
    Tracer::Scope s(tracer, "probe.sched");
    r.sched_ns_per_event = probe_scheduler(ft, tcp);
  }
  {
    Tracer::Scope s(tracer, "probe.qdisc");
    r.qdisc_ns_per_pkt = probe_qdiscs(in);
  }
  {
    Tracer::Scope s(tracer, "probe.sketch");
    r.sketch_add_ns = probe_sketch(mean_fct_ms > 0 ? mean_fct_ms : 1.0, seed);
  }
  return r;
}

}  // namespace hostbench
