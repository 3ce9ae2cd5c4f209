#include "topo/network.h"

#include <algorithm>
#include <cstdint>

namespace mmptcp {

Host& Network::make_host(std::string name, Addr addr) {
  hosts_.push_back(
      std::make_unique<Host>(sim_, next_id_++, std::move(name), addr));
  return *hosts_.back();
}

Switch& Network::make_switch(std::string name) {
  switches_.push_back(
      std::make_unique<Switch>(sim_, next_id_++, std::move(name)));
  return *switches_.back();
}

void Network::connect(Node& a, Node& b, const LinkSpec& spec) {
  auto pool_of = [](Node& n) -> SharedBufferPool* {
    if (auto* sw = dynamic_cast<Switch*>(&n)) return sw->shared_buffer();
    return nullptr;
  };
  // Arrivals run in the receiving node's domain.  The two directions of
  // one full-duplex link may therefore live in different schedulers.
  Scheduler& a_sched = sim_.domain_scheduler(a.domain());
  Scheduler& b_sched = sim_.domain_scheduler(b.domain());
  channels_.push_back(std::make_unique<Channel>(b_sched, spec.delay));
  Channel& ab = *channels_.back();
  channels_.push_back(std::make_unique<Channel>(a_sched, spec.delay));
  Channel& ba = *channels_.back();
  // With domains unconfigured nothing ever crosses (pure serial path).
  if (sim_.num_domains() > 0 && a.domain() != b.domain()) {
    ab.make_cross_domain(a_sched, &outbox(a.domain()));
    ba.make_cross_domain(b_sched, &outbox(b.domain()));
    cross_delay_min_ = std::min(cross_delay_min_, spec.delay);
    cross_channels_ += 2;
  }

  const std::size_t ap = a.add_port(spec.rate_bps, spec.queue, &ab,
                                    spec.layer, pool_of(a), spec.qdisc);
  const std::size_t bp =
      b.add_port(spec.rate_bps, spec.queue_b.value_or(spec.queue), &ba,
                 spec.layer, pool_of(b), spec.qdisc_b.value_or(spec.qdisc));
  ab.attach_sink(&b, bp);
  ba.attach_sink(&a, ap);
}

CrossDomainOutbox& Network::outbox(std::size_t domain) {
  while (outboxes_.size() <= domain) {
    outboxes_.push_back(std::make_unique<CrossDomainOutbox>());
  }
  return *outboxes_[domain];
}

void Network::flush_cross_domain() {
  flush_scratch_.clear();
  for (std::size_t d = 0; d < outboxes_.size(); ++d) {
    for (CrossDomainOutbox::Entry& e : outboxes_[d]->entries()) {
      flush_scratch_.push_back(FlushRef{e.at, d, e.seq, &e});
    }
  }
  if (flush_scratch_.empty()) return;
  std::sort(flush_scratch_.begin(), flush_scratch_.end(),
            [](const FlushRef& x, const FlushRef& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.key != y.key) return x.key < y.key;
              return x.seq < y.seq;
            });
  for (const FlushRef& ref : flush_scratch_) {
    ref.entry->channel->deliver_at(ref.at, ref.entry->pkt);
  }
  for (const auto& box : outboxes_) box->clear();
}

std::uint64_t Network::unroutable_total() const {
  std::uint64_t sum = 0;
  for (const auto& s : switches_) sum += s->unroutable();
  return sum;
}

void Network::for_each_port(
    const std::function<void(const Node&, const Port&)>& fn) const {
  for (const auto& h : hosts_) {
    for (std::size_t i = 0; i < h->port_count(); ++i) fn(*h, h->port(i));
  }
  for (const auto& s : switches_) {
    for (std::size_t i = 0; i < s->port_count(); ++i) fn(*s, s->port(i));
  }
}

}  // namespace mmptcp
