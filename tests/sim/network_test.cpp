#include "src/sim/network.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/net/topology.hpp"

namespace sensornet::sim {
namespace {

/// Records deliveries; optionally relays each message one hop right (for
/// line topologies).
class Recorder : public ProtocolHandler {
 public:
  struct Delivery {
    NodeId receiver;
    std::uint16_t kind;
    SimTime at;
  };
  std::vector<Delivery> deliveries;
  bool relay_right = false;

  void on_message(Network& net, NodeId receiver, const Message& msg) override {
    deliveries.push_back({receiver, msg.kind, net.now()});
    if (relay_right && receiver + 1 < net.node_count()) {
      Message fwd = msg;
      fwd.from = receiver;
      fwd.to = receiver + 1;
      net.send(std::move(fwd));
    }
  }
};

Message one_bit_message(NodeId from, NodeId to, std::uint16_t kind = 1) {
  BitWriter w;
  w.write_bit(true);
  return Message::make(from, to, /*session=*/0, kind, std::move(w));
}

TEST(Network, ItemsRoundTrip) {
  Network net(net::make_line(3), 1);
  net.set_items(1, {10, 20});
  EXPECT_EQ(net.items(1).size(), 2u);
  EXPECT_TRUE(net.items(0).empty());
}

TEST(Network, RejectsNegativeItems) {
  Network net(net::make_line(2), 1);
  EXPECT_THROW(net.set_items(0, {-1}), PreconditionError);
}

TEST(Network, OneItemPerNode) {
  Network net(net::make_line(3), 1);
  net.set_one_item_per_node({5, 6, 7});
  ASSERT_EQ(net.items(2).size(), 1u);
  EXPECT_EQ(net.items(2)[0], 7);
  EXPECT_THROW(net.set_one_item_per_node({1, 2}), PreconditionError);
}

TEST(Network, SendRequiresEdge) {
  Network net(net::make_line(3), 1);
  EXPECT_THROW(net.send(one_bit_message(0, 2)), ProtocolError);
}

TEST(Network, UnitDelayDelivery) {
  Network net(net::make_line(3), 1);
  net.send(one_bit_message(0, 1));
  Recorder rec;
  rec.relay_right = true;
  net.run(rec);
  ASSERT_EQ(rec.deliveries.size(), 2u);
  EXPECT_EQ(rec.deliveries[0].receiver, 1u);
  EXPECT_EQ(rec.deliveries[0].at, 1u);
  EXPECT_EQ(rec.deliveries[1].receiver, 2u);
  EXPECT_EQ(rec.deliveries[1].at, 2u);
}

TEST(Network, FifoTieBreakIsDeterministic) {
  Network net(net::make_complete(4), 1);
  net.send(one_bit_message(0, 1, 1));
  net.send(one_bit_message(0, 2, 2));
  net.send(one_bit_message(0, 3, 3));
  Recorder rec;
  net.run(rec);
  ASSERT_EQ(rec.deliveries.size(), 3u);
  EXPECT_EQ(rec.deliveries[0].kind, 1u);
  EXPECT_EQ(rec.deliveries[1].kind, 2u);
  EXPECT_EQ(rec.deliveries[2].kind, 3u);
}

TEST(Network, AccountingChargesBothEnds) {
  Network net(net::make_line(2), 1);
  BitWriter w;
  w.write_bits(0b10110, 5);
  net.send(Message::make(0, 1, 0, 1, std::move(w)));
  Recorder rec;
  net.run(rec);
  EXPECT_EQ(net.stats(0).payload_bits_sent, 5u);
  EXPECT_EQ(net.stats(0).payload_bits_received, 0u);
  EXPECT_EQ(net.stats(1).payload_bits_received, 5u);
  EXPECT_EQ(net.stats(0).header_bits_sent, kHeaderBits);
  EXPECT_EQ(net.stats(1).header_bits_received, kHeaderBits);
  EXPECT_EQ(net.stats(0).messages_sent, 1u);
  EXPECT_EQ(net.stats(1).messages_received, 1u);
}

TEST(Network, ConservationTotalSentEqualsReceived) {
  Network net(net::make_grid(3, 3), 1);
  // Flood some traffic.
  for (NodeId u = 0; u < 9; ++u) {
    for (const NodeId v : net.graph().neighbors(u)) {
      net.send(one_bit_message(u, v));
    }
  }
  Recorder rec;
  net.run(rec);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (NodeId u = 0; u < 9; ++u) {
    sent += net.stats(u).payload_bits_sent;
    received += net.stats(u).payload_bits_received;
  }
  EXPECT_EQ(sent, received);
  EXPECT_GT(sent, 0u);
}

TEST(Network, MediumBroadcastChargesAllReceivers) {
  Network net(net::make_complete(5), 1);
  BitWriter w;
  w.write_bits(0xF, 4);
  net.send_medium(Message::make(2, kNoNode, 0, 1, std::move(w)));
  Recorder rec;
  net.run(rec);
  EXPECT_EQ(net.stats(2).payload_bits_sent, 4u);  // transmits once
  for (NodeId u = 0; u < 5; ++u) {
    if (u == 2) continue;
    EXPECT_EQ(net.stats(u).payload_bits_received, 4u);
  }
  EXPECT_EQ(rec.deliveries.size(), 4u);
}

TEST(Network, MediumBroadcastNeedsSingleHop) {
  Network net(net::make_line(3), 1);
  EXPECT_THROW(net.send_medium(one_bit_message(0, kNoNode)), ProtocolError);
}

TEST(Network, DeliveryBudgetGuardsRunaways) {
  Network net(net::make_line(2), 1);
  net.send(one_bit_message(0, 1));
  // A handler that ping-pongs forever.
  class PingPong : public ProtocolHandler {
   public:
    void on_message(Network& net, NodeId receiver, const Message& msg) override {
      Message reply = msg;
      reply.from = receiver;
      reply.to = msg.from;
      net.send(std::move(reply));
    }
  } handler;
  EXPECT_THROW(net.run(handler, /*max_deliveries=*/100), ProtocolError);
}

TEST(Network, DeliveryBudgetEnforcedBeforeDispatch) {
  Network net(net::make_complete(4), 1);
  net.send(one_bit_message(0, 1, 1));
  net.send(one_bit_message(0, 2, 2));
  net.send(one_bit_message(0, 3, 3));
  Recorder rec;
  // Budget 2, three queued: the guard must fire BEFORE the third dispatch —
  // the handler sees exactly max_deliveries messages, never one more.
  EXPECT_THROW(net.run(rec, /*max_deliveries=*/2), ProtocolError);
  ASSERT_EQ(rec.deliveries.size(), 2u);
  EXPECT_EQ(rec.deliveries[0].kind, 1u);
  EXPECT_EQ(rec.deliveries[1].kind, 2u);
}

TEST(Network, DeliveryBudgetExactlyMetSucceeds) {
  Network net(net::make_complete(3), 1);
  net.send(one_bit_message(0, 1, 1));
  net.send(one_bit_message(0, 2, 2));
  Recorder rec;
  EXPECT_NO_THROW(net.run(rec, /*max_deliveries=*/2));
  EXPECT_EQ(rec.deliveries.size(), 2u);
}

TEST(Network, PeakInFlightBytesIsTracked) {
  Network net(net::make_line(2), 1);
  BitWriter w;
  for (int i = 0; i < 5; ++i) w.write_bits(0xFFFFFFFFFFFFFFFFULL, 64);
  net.send(Message::make(0, 1, 0, 1, std::move(w)));  // 40-byte heap slab
  Recorder rec;
  net.run(rec);
  EXPECT_GE(net.peak_in_flight_bytes(), 40u + sizeof(Message));
  net.reset_accounting();
  EXPECT_EQ(net.peak_in_flight_bytes(), 0u);
}

TEST(Network, WatchedEdgeCountsBothDirections) {
  Network net(net::make_line(3), 1);
  net.watch_edge(1, 2);
  net.send(one_bit_message(0, 1));  // not on the watched edge
  Recorder rec;
  net.run(rec);
  EXPECT_EQ(net.watched_edge_bits(), 0u);
  net.send(one_bit_message(1, 2));
  net.send(one_bit_message(2, 1));
  net.run(rec);
  EXPECT_EQ(net.watched_edge_bits(), 2u);
}

TEST(Network, ResetAccountingClears) {
  Network net(net::make_line(2), 1);
  net.send(one_bit_message(0, 1));
  Recorder rec;
  net.run(rec);
  ASSERT_GT(net.stats(0).payload_bits_sent, 0u);
  net.reset_accounting();
  EXPECT_EQ(net.stats(0).payload_bits_sent, 0u);
  EXPECT_EQ(net.now(), 0u);
}

/// The running sent totals agree with a full pass over the node meters.
void expect_totals_match_summary(const Network& net) {
  const CommSummary with_headers = net.summary(/*include_headers=*/true);
  const CommSummary payload_only = net.summary(/*include_headers=*/false);
  const Network::DirStats& t = net.sent_totals();
  EXPECT_EQ(t.payload_bits, payload_only.total_bits);
  EXPECT_EQ(t.payload_bits + t.header_bits, with_headers.total_bits);
  EXPECT_EQ(t.messages, with_headers.total_messages);
}

TEST(Network, SentTotalsTrackSummaryAcrossTrafficAndResets) {
  Network net(net::make_complete(6), 1);
  Recorder rec;
  const auto traffic = [&] {
    for (NodeId u = 0; u < 6; ++u) {
      for (const NodeId v : net.graph().neighbors(u)) {
        net.send(one_bit_message(u, v));
      }
    }
    BitWriter w;
    w.write_bits(0x2A, 7);
    net.send_medium(Message::make(3, kNoNode, 0, 1, std::move(w)));
    net.run(rec);
  };
  traffic();
  EXPECT_EQ(net.sent_totals().messages, 31u);  // 30 unicasts + 1 broadcast
  expect_totals_match_summary(net);

  net.set_message_loss(0.1);  // lost messages still cost their sender
  traffic();
  traffic();
  EXPECT_EQ(net.sent_totals().messages, 93u);
  expect_totals_match_summary(net);

  net.reset_accounting();
  EXPECT_EQ(net.sent_totals().messages, 0u);
  expect_totals_match_summary(net);
  traffic();
  expect_totals_match_summary(net);

  net.reset(1);
  EXPECT_EQ(net.sent_totals().messages, 0u);
  expect_totals_match_summary(net);
  traffic();
  expect_totals_match_summary(net);
}

TEST(Network, RngStreamsPerNodeDiffer) {
  Network net(net::make_line(2), 42);
  EXPECT_NE(net.rng(0).next_u64(), net.rng(1).next_u64());
}

}  // namespace
}  // namespace sensornet::sim
