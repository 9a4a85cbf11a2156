#include "src/sim/network.hpp"

#include <utility>

#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace sensornet::sim {

Network::Network(net::Graph graph, std::uint64_t master_seed)
    : graph_(std::move(graph)),
      master_seed_(master_seed),
      sent_(graph_.node_count()),
      received_(graph_.node_count()),
      item_refs_(graph_.node_count()) {
  // Deployment builders compact eagerly; this covers hand-built graphs so
  // the simulator never reads a stale CSR (and trials can share graph_
  // safely through the const accessor).
  graph_.compact();
}

void Network::set_items(NodeId node, ValueSet items) {
  SENSORNET_EXPECTS(node < item_refs_.size());
  for (const Value v : items) SENSORNET_EXPECTS(v >= 0);
  // Append-only slab: the node's record points at the new run. Replaced
  // runs are not reclaimed until the next set_one_item_per_node — per-node
  // re-installs are a test-setup pattern, not a hot path.
  SENSORNET_EXPECTS(item_slab_.size() + items.size() <=
                    std::numeric_limits<std::uint32_t>::max());
  ItemRef& ref = item_refs_[node];
  ref.offset = static_cast<std::uint32_t>(item_slab_.size());
  ref.len = static_cast<std::uint32_t>(items.size());
  item_slab_.insert(item_slab_.end(), items.begin(), items.end());
}

void Network::set_one_item_per_node(const ValueSet& flat) {
  SENSORNET_EXPECTS(flat.size() == item_refs_.size());
  for (const Value v : flat) SENSORNET_EXPECTS(v >= 0);
  item_slab_ = flat;
  for (NodeId u = 0; u < item_refs_.size(); ++u) {
    item_refs_[u] = ItemRef{u, 1};
  }
}

void Network::update_item(NodeId node, std::size_t index, Value v) {
  SENSORNET_EXPECTS(node < item_refs_.size());
  SENSORNET_EXPECTS(v >= 0);
  const ItemRef ref = item_refs_[node];
  SENSORNET_EXPECTS(index < ref.len);
  item_slab_[ref.offset + index] = v;
}

std::span<const Value> Network::items(NodeId node) const {
  SENSORNET_EXPECTS(node < item_refs_.size());
  const ItemRef ref = item_refs_[node];
  return {item_slab_.data() + ref.offset, ref.len};
}

void Network::ensure_rngs() {
  if (!rngs_.empty() || node_count() == 0) return;
  rngs_.reserve(node_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    rngs_.push_back(node_rng(master_seed_, u));
  }
}

Xoshiro256& Network::rng(NodeId node) {
  SENSORNET_EXPECTS(node < node_count());
  ensure_rngs();
  return rngs_[node];
}

void Network::charge_send(NodeId node, const Message& msg) {
  sent_[node].charge(msg.payload_bits);
  sent_total_.charge(msg.payload_bits);
}

void Network::charge_receive(NodeId node, const Message& msg) {
  received_[node].charge(msg.payload_bits);
}

void Network::note_in_flight_high_water() {
  const std::size_t footprint = in_flight_payload_bytes_ + slot_store_bytes_;
  if (footprint > peak_in_flight_bytes_) peak_in_flight_bytes_ = footprint;
}

void Network::schedule(Message msg, NodeId to) {
  msg.to = to;
  const SimTime due = now_ + 1;
  if (pending_ == 0) {
    // Fresh round: everything scheduled from quiescence lands together.
    round_now_.clear();
    round_next_.clear();
    cursor_ = 0;
    round_time_ = due;
  }
  // Unit delay means a send targets the round being drained... never — a
  // handler runs at now_ == round_time_, so its sends land one tick later.
  // Sends from quiescent state extend the freshly opened round.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(msg);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(msg));
    slot_store_bytes_ = slots_.capacity() * sizeof(Message);
  }
  const Message& queued = slots_[slot];
  if (queued.payload.size_bytes() > Payload::kInlineBytes) {
    // Shared slabs are counted once per queued reference; inline payloads
    // are part of the slot footprint already.
    in_flight_payload_bytes_ += queued.payload.size_bytes();
  }
  if (due == round_time_) {
    round_now_.push_back(slot);
  } else {
    SENSORNET_EXPECTS(due == round_time_ + 1);
    round_next_.push_back(slot);
  }
  ++pending_;
  note_in_flight_high_water();
}

void Network::set_message_loss(double p) {
  SENSORNET_EXPECTS(p >= 0.0 && p <= 1.0);
  loss_probability_ = p;
}

void Network::send(Message msg) {
  SENSORNET_EXPECTS(msg.from < node_count());
  SENSORNET_EXPECTS(msg.to < node_count());
  if (!graph_.has_edge(msg.from, msg.to)) {
    throw ProtocolError("send: no link between sender and destination");
  }
  ++obs_unicasts_;
  obs_payload_bits_ += msg.payload_bits;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("msg.send", "sim", now_, 0, "from", msg.from, "to", msg.to);
  }
  charge_send(msg.from, msg);
  if (loss_probability_ > 0.0 && loss_rng_.next_bool(loss_probability_)) {
    ++obs_drops_;
    return;  // transmitted into the void; the sender's bits are spent
  }
  charge_receive(msg.to, msg);
  if ((msg.from == watch_u_ && msg.to == watch_v_) ||
      (msg.from == watch_v_ && msg.to == watch_u_)) {
    watched_bits_ += msg.payload_bits;
  }
  const NodeId to = msg.to;
  schedule(std::move(msg), to);
}

void Network::send_medium(Message msg) {
  SENSORNET_EXPECTS(msg.from < node_count());
  // Single-hop check: with self-loops and parallel edges rejected, degree
  // n-1 is equivalent to "linked to everyone" — one O(1) test instead of a
  // per-receiver edge probe.
  if (graph_.degree(msg.from) + 1 != node_count()) {
    throw ProtocolError("send_medium: deployment is not single-hop");
  }
  // The radio transmits once; every other node's receiver pays. Every
  // scheduled copy shares msg's payload slab by refcount.
  ++obs_broadcasts_;
  obs_payload_bits_ += msg.payload_bits;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("msg.broadcast", "sim", now_, 0, "from", msg.from, "bits",
                 msg.payload_bits);
  }
  charge_send(msg.from, msg);
  for (NodeId u = 0; u < node_count(); ++u) {
    if (u == msg.from) continue;
    // Loss is per receiver: fading is independent at each radio.
    if (loss_probability_ > 0.0 && loss_rng_.next_bool(loss_probability_)) {
      ++obs_drops_;
      continue;
    }
    charge_receive(u, msg);
    schedule(msg, u);  // copy shares the payload slab
  }
}

void Network::run(ProtocolHandler& handler, std::uint64_t max_deliveries) {
  obs::TraceRing& ring = obs::TraceRing::global();
  std::uint64_t delivered = 0;
  while (pending_ > 0) {
    if (cursor_ == round_now_.size()) {
      // Current round drained: the filling round becomes the draining one.
      round_now_.clear();
      cursor_ = 0;
      round_now_.swap(round_next_);
      ++round_time_;
      continue;
    }
    if (delivered == max_deliveries) {
      throw ProtocolError("run: delivery budget exceeded (runaway protocol?)");
    }
    ++delivered;
    const std::uint32_t slot = round_now_[cursor_++];
    now_ = round_time_;
    // Move the message out before dispatch: the handler may send, growing
    // slots_, which would invalidate a reference into it.
    Message msg = std::move(slots_[slot]);
    if (msg.payload.size_bytes() > Payload::kInlineBytes) {
      in_flight_payload_bytes_ -= msg.payload.size_bytes();
    }
    free_slots_.push_back(slot);
    --pending_;
    ++obs_deliveries_;
    if (ring.enabled()) {
      ring.instant("msg.deliver", "sim", now_, 0, "from", msg.from, "to",
                   msg.to);
    }
    handler.on_message(*this, msg.to, msg);
  }
  round_now_.clear();
  round_next_.clear();
  cursor_ = 0;
  flush_obs_counters();
}

void Network::flush_obs_counters() {
  if (obs_unicasts_ == 0 && obs_broadcasts_ == 0 && obs_deliveries_ == 0 &&
      obs_drops_ == 0 && obs_payload_bits_ == 0) {
    return;
  }
  obs::Registry& reg = obs::Registry::global();
  reg.add(reg.counter("sim.unicasts"), obs_unicasts_);
  reg.add(reg.counter("sim.broadcasts"), obs_broadcasts_);
  reg.add(reg.counter("sim.deliveries"), obs_deliveries_);
  reg.add(reg.counter("sim.drops"), obs_drops_);
  reg.add(reg.counter("sim.payload_bits_sent"), obs_payload_bits_);
  obs_unicasts_ = 0;
  obs_broadcasts_ = 0;
  obs_deliveries_ = 0;
  obs_drops_ = 0;
  obs_payload_bits_ = 0;
}

NodeCommStats Network::stats(NodeId node) const {
  SENSORNET_EXPECTS(node < node_count());
  const DirStats& tx = sent_[node];
  const DirStats& rx = received_[node];
  return NodeCommStats{
      .payload_bits_sent = tx.payload_bits,
      .payload_bits_received = rx.payload_bits,
      .header_bits_sent = tx.header_bits,
      .header_bits_received = rx.header_bits,
      .messages_sent = tx.messages,
      .messages_received = rx.messages,
  };
}

std::vector<NodeCommStats> Network::all_stats() const {
  std::vector<NodeCommStats> out;
  out.reserve(node_count());
  for (NodeId u = 0; u < node_count(); ++u) out.push_back(stats(u));
  return out;
}

CommSummary Network::summary(bool include_headers) const {
  CommSummary s;
  s.rounds = now_;
  for (NodeId u = 0; u < node_count(); ++u) {
    const DirStats& tx = sent_[u];
    const DirStats& rx = received_[u];
    std::uint64_t bits = tx.payload_bits + rx.payload_bits;
    if (include_headers) bits += tx.header_bits + rx.header_bits;
    if (bits > s.max_node_bits) {
      s.max_node_bits = bits;
      s.max_node = u;
    }
    s.total_bits += tx.payload_bits;
    if (include_headers) s.total_bits += tx.header_bits;
    s.total_messages += tx.messages;
  }
  return s;
}

void Network::watch_edge(NodeId u, NodeId v) {
  SENSORNET_EXPECTS(u < node_count() && v < node_count());
  watch_u_ = u;
  watch_v_ = v;
  watched_bits_ = 0;
}

void Network::reset_accounting() {
  for (DirStats& st : sent_) st = DirStats{};
  for (DirStats& st : received_) st = DirStats{};
  sent_total_ = DirStats{};
  now_ = 0;
  watched_bits_ = 0;
  peak_in_flight_bytes_ = 0;
  // Pending obs counters describe the window being discarded, not the next
  // one; anything unflushed (sends queued but never run()) dies with it.
  obs_unicasts_ = 0;
  obs_broadcasts_ = 0;
  obs_deliveries_ = 0;
  obs_drops_ = 0;
  obs_payload_bits_ = 0;
}

void Network::reset(std::uint64_t master_seed) {
  reset_accounting();
  master_seed_ = master_seed;
  rngs_.clear();  // next rng() call re-derives from the new master seed
  loss_rng_ = Xoshiro256(kLossSeed);
  loss_probability_ = 0.0;
  watch_u_ = kNoNode;
  watch_v_ = kNoNode;
  // Release the queue slabs rather than keeping their capacity: a reset
  // network must be byte-identical to a freshly built one — including the
  // peak_in_flight_bytes() meter, which counts slot-store capacity.
  slots_ = std::vector<Message>{};
  free_slots_ = std::vector<std::uint32_t>{};
  round_now_ = std::vector<std::uint32_t>{};
  round_next_ = std::vector<std::uint32_t>{};
  round_time_ = 0;
  cursor_ = 0;
  pending_ = 0;
  in_flight_payload_bytes_ = 0;
  slot_store_bytes_ = 0;
}

}  // namespace sensornet::sim
