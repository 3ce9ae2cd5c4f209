// Domain decomposition of the FatTree: one domain per pod, the node
// tagging it relies on, and the cross-domain accounting the Network
// derives from it.  Only agg<->core links cross pods, so the lookahead
// is the core delay.

#include <gtest/gtest.h>

#include "topo/fat_tree.h"

namespace mmptcp {
namespace {

TEST(DomainPlan, OneDomainPerPod) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const FatTreeDomainPlan plan = FatTree::domain_plan(cfg);
  EXPECT_EQ(plan.domains, 4u);
  EXPECT_EQ(plan.lookahead, cfg.link_delay);  // core delay defaults to it
}

TEST(DomainPlan, LookaheadIsTheCoreDelay) {
  // Edge<->agg links stay inside a pod, so their delay never bounds the
  // window: a longer spine widens it, a shorter one narrows it.
  FatTreeConfig cfg;
  cfg.k = 8;
  cfg.core_link_delay = Time::micros(100);
  EXPECT_EQ(FatTree::domain_plan(cfg).lookahead, Time::micros(100));
  EXPECT_EQ(FatTree::domain_plan(cfg).domains, 8u);

  cfg.core_link_delay = Time::micros(5);
  EXPECT_EQ(FatTree::domain_plan(cfg).lookahead, Time::micros(5));

  cfg.link_delay = Time::zero();  // intra-pod delay is irrelevant
  cfg.core_link_delay = Time::micros(100);
  EXPECT_EQ(FatTree::domain_plan(cfg).lookahead, Time::micros(100));
}

TEST(DomainPlan, ZeroCrossDelayFallsBackToSerial) {
  // Conservative execution needs strictly positive lookahead; a fabric
  // with zero-delay links cannot be windowed.
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.link_delay = Time::zero();
  const FatTreeDomainPlan plan = FatTree::domain_plan(cfg);
  EXPECT_EQ(plan.domains, 1u);
  EXPECT_EQ(plan.lookahead, Time::zero());
}

TEST(DomainPlan, EveryNodeTaggedByPodRule) {
  // Hosts, edge and aggregation switches carry their pod's domain; core
  // switch c goes to domain c % k so the spine spreads evenly.
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.oversubscription = 2;
  Simulation sim(1);
  FatTree ft(sim, cfg);
  for (std::uint32_t p = 0; p < ft.pods(); ++p) {
    for (std::uint32_t e = 0; e < ft.edges_per_pod(); ++e) {
      EXPECT_EQ(ft.edge_switch(p, e).domain(), p);
      for (std::uint32_t h = 0; h < ft.hosts_per_edge(); ++h) {
        EXPECT_EQ(ft.host_at(p, e, h).domain(), p);
      }
    }
    for (std::uint32_t a = 0; a < ft.aggs_per_pod(); ++a) {
      EXPECT_EQ(ft.agg_switch(p, a).domain(), p);
    }
  }
  for (std::uint32_t c = 0; c < ft.core_count(); ++c) {
    EXPECT_EQ(ft.core_switch(c).domain(), c % cfg.k);
  }
}

TEST(DomainPlan, OnlyAggCoreLinksCross) {
  // k=4 has k x (k/2)^2 = 16 agg<->core links; core c's link into pod
  // c % k stays inside that pod's domain, so 12 cross = 24 channels.  A
  // spine longer than the intra-pod links makes the census observable:
  // had any host<->edge or edge<->agg link crossed, the minimum
  // cross-domain delay would be link_delay, not the core delay.
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.core_link_delay = Time::micros(100);
  Simulation sim(1);
  sim.configure_domains(FatTree::domain_plan(cfg).domains);
  FatTree ft(sim, cfg);
  EXPECT_EQ(ft.network().cross_domain_channel_count(), 2u * 12u);
  EXPECT_EQ(ft.network().min_cross_domain_delay(), ft.core_delay());
  EXPECT_EQ(ft.network().min_cross_domain_delay(),
            FatTree::domain_plan(cfg).lookahead);
}

TEST(DomainPlan, UnconfiguredSimulationWiresEverythingSerial) {
  // Same topology, domains never configured: every node resolves to the
  // control scheduler and nothing registers as cross-domain.
  FatTreeConfig cfg;
  cfg.k = 4;
  Simulation sim(1);
  FatTree ft(sim, cfg);
  EXPECT_EQ(ft.network().cross_domain_channel_count(), 0u);
}

}  // namespace
}  // namespace mmptcp
