#include "src/sim/comm_stats.hpp"

#include <algorithm>

namespace sensornet::sim {

NodeCommStats& NodeCommStats::operator+=(const NodeCommStats& other) {
  payload_bits_sent += other.payload_bits_sent;
  payload_bits_received += other.payload_bits_received;
  header_bits_sent += other.header_bits_sent;
  header_bits_received += other.header_bits_received;
  messages_sent += other.messages_sent;
  messages_received += other.messages_received;
  return *this;
}

namespace {

/// Folds node `u`'s counters into `s`.
void add_node(CommSummary& s, NodeId u, const NodeCommStats& st,
              bool include_headers) {
  const std::uint64_t bits = st.bits(include_headers);
  if (bits > s.max_node_bits) {
    s.max_node_bits = bits;
    s.max_node = u;
  }
  s.total_bits += st.payload_bits_sent;
  if (include_headers) s.total_bits += st.header_bits_sent;
  s.total_messages += st.messages_sent;
}

}  // namespace

CommSummary summarize(const std::vector<NodeCommStats>& per_node,
                      SimTime rounds, bool include_headers) {
  CommSummary s;
  s.rounds = rounds;
  for (NodeId u = 0; u < per_node.size(); ++u) {
    add_node(s, u, per_node[u], include_headers);
  }
  return s;
}

CommSummary window_summary(const std::vector<NodeCommStats>& before,
                           const std::vector<NodeCommStats>& after,
                           SimTime rounds, bool include_headers) {
  // Node by node: a per-node difference vector would be one more snapshot's
  // worth of memory for each caller.
  CommSummary s;
  s.rounds = rounds;
  for (NodeId u = 0; u < after.size(); ++u) {
    const NodeCommStats& b = u < before.size() ? before[u] : NodeCommStats{};
    NodeCommStats delta;
    delta.payload_bits_sent = after[u].payload_bits_sent - b.payload_bits_sent;
    delta.payload_bits_received =
        after[u].payload_bits_received - b.payload_bits_received;
    delta.header_bits_sent = after[u].header_bits_sent - b.header_bits_sent;
    delta.header_bits_received =
        after[u].header_bits_received - b.header_bits_received;
    delta.messages_sent = after[u].messages_sent - b.messages_sent;
    delta.messages_received =
        after[u].messages_received - b.messages_received;
    add_node(s, u, delta, include_headers);
  }
  return s;
}

std::uint64_t max_payload_bits_sent(const std::vector<NodeCommStats>& per_node) {
  std::uint64_t best = 0;
  for (const auto& st : per_node) {
    best = std::max(best, st.payload_bits_sent);
  }
  return best;
}

std::uint64_t max_payload_bits_received(
    const std::vector<NodeCommStats>& per_node) {
  std::uint64_t best = 0;
  for (const auto& st : per_node) {
    best = std::max(best, st.payload_bits_received);
  }
  return best;
}

}  // namespace sensornet::sim
