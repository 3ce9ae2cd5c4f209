// Property tests under adversarial random loss: whatever the drop
// pattern, a completed flow delivered every byte exactly once, and flows
// complete whenever loss stops short of killing the connection.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "util/rng.h"

namespace mmptcp {
namespace {

using testing::MiniFatTree;

// gtest prints a parameter's raw bytes into the test name, so every byte
// of Param is a zero-initialised member: compiler padding after `proto`
// would carry leftover heap bytes and rename the test on every run.
struct Param {
  Param(Protocol p, double l, std::uint64_t s) : proto(p), loss(l), seed(s) {}
  Protocol proto;
  std::uint8_t reserved[7] = {};
  double loss;
  std::uint64_t seed;
};
static_assert(sizeof(Param) == sizeof(Protocol) + 7 + sizeof(double) +
                                   sizeof(std::uint64_t),
              "Param must have no padding bytes");

class RandomLoss : public ::testing::TestWithParam<Param> {};

TEST_P(RandomLoss, CompletedFlowsConserveBytes) {
  const Param p = GetParam();
  MiniFatTree net(FatTreeConfig{}, p.seed);
  // Bernoulli loss on every host NIC: data drops on the senders' side,
  // ACK drops on the receivers' side.
  auto rng = std::make_shared<Rng>(p.seed * 7919 + 13);
  const double rate = p.loss;
  auto bernoulli_drop = [rng, rate](const Packet& pkt, std::uint64_t) {
    // Never drop SYNs: SYN give-up would legitimately fail the flow and
    // this property targets the data path.
    if (pkt.is_syn()) return false;
    return rng->bernoulli(rate);
  };
  for (std::size_t h = 0; h < net.ft.host_count(); ++h) {
    net.ft.host(h).port(0).set_drop_filter(bernoulli_drop);
  }

  TransportConfig cfg;
  cfg.protocol = p.proto;
  cfg.subflows = 4;
  cfg.tcp.rto.min_rto = Time::millis(100);
  cfg.tcp.rto.initial_rto = Time::millis(100);
  cfg.tcp.conn_timeout = Time::millis(200);

  std::vector<ClientFlow*> flows;
  for (int i = 0; i < 6; ++i) {
    flows.push_back(&net.flow(i, 15 - i, cfg, 40 * 1024 + i * 1317));
  }
  net.run(Time::seconds(120));

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& rec = net.record(*flows[i]);
    ASSERT_TRUE(rec.is_complete())
        << to_string(p.proto) << " loss=" << p.loss << " flow " << i;
    ASSERT_EQ(rec.delivered_bytes, rec.request_bytes)
        << to_string(p.proto) << " loss=" << p.loss << " flow " << i;
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return to_string(info.param.proto) + "_loss" +
         std::to_string(int(info.param.loss * 100)) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLoss,
    ::testing::Values(Param{Protocol::kTcp, 0.01, 1},
                      Param{Protocol::kTcp, 0.05, 2},
                      Param{Protocol::kMptcp, 0.01, 3},
                      Param{Protocol::kMptcp, 0.05, 4},
                      Param{Protocol::kPacketScatter, 0.01, 5},
                      Param{Protocol::kPacketScatter, 0.05, 6},
                      Param{Protocol::kMmptcp, 0.01, 7},
                      Param{Protocol::kMmptcp, 0.05, 8},
                      Param{Protocol::kMmptcp, 0.10, 9}),
    param_name);

TEST(RandomLossReceiver, DuplicatesNeverDoubleCount) {
  // Heavy ACK loss forces many retransmissions of data the receiver
  // already holds; delivered_bytes must still match exactly.
  MiniFatTree net;
  auto rng = std::make_shared<Rng>(99);
  net.ft.host(15).port(0).set_drop_filter(
      [rng](const Packet& pkt, std::uint64_t) {
        return pkt.payload == 0 && !pkt.is_syn() && rng->bernoulli(0.3);
      });
  TransportConfig cfg;
  cfg.protocol = Protocol::kMmptcp;
  cfg.tcp.rto.min_rto = Time::millis(100);
  cfg.tcp.rto.initial_rto = Time::millis(100);
  auto& flow = net.flow(0, 15, cfg, 200 * 1024);
  net.run(Time::seconds(60));
  const FlowRecord& rec = net.record(flow);
  ASSERT_TRUE(rec.is_complete());
  EXPECT_EQ(rec.delivered_bytes, 200u * 1024u);
  EXPECT_GT(rec.spurious_retransmits, 0u);  // the dup path was exercised
}

}  // namespace
}  // namespace mmptcp
