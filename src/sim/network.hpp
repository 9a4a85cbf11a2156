// Event-driven network simulator.
//
// Unit-delay message delivery over an explicit communication graph, with
// bit-exact per-node accounting. Protocols are state machines driven by
// `on_message` callbacks; the root-side orchestrators inject the first
// message(s) and call run() to quiescence.
//
// Hot-path architecture: because every delivery is scheduled exactly one
// tick ahead, the event queue is a two-bucket calendar — one bucket of slot
// indices for the round being drained, one for the round being filled — with
// message slots recycled through a free list. Delivery order is (time, send
// order), identical to a (time, seq) priority queue but with O(1) push/pop
// and no per-run storage growth.
//
// Node state is struct-of-arrays so a single trial scales to 10^6+ nodes:
// the deliver loop's accounting lives in two flat arrays of 24-byte
// direction records (send-side charged at the sender's slot, receive-side at
// the receiver's), node readings live in one shared value slab addressed by
// (offset, len) records instead of a vector-of-vectors, and the per-node RNG
// streams materialize lazily on first use. Nothing per-node is individually
// heap-allocated, so building a 2^20-node network costs a handful of slab
// allocations rather than a million.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/net/graph.hpp"
#include "src/sim/comm_stats.hpp"
#include "src/sim/message.hpp"

namespace sensornet::sim {

class Network;

/// A protocol's receive handler. Implementations keep their own per-node
/// session state; the simulator only moves bits.
class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;
  virtual void on_message(Network& net, NodeId receiver, const Message& msg) = 0;
};

class Network {
 public:
  /// One direction of a meter: a node's sent or received side (the unit the
  /// deliver loop touches; 24 bytes, so charging a node dirties one cache
  /// line, not two), or the whole network's sent side.
  struct DirStats {
    std::uint64_t payload_bits = 0;
    std::uint64_t header_bits = 0;
    std::uint64_t messages = 0;

    /// One message of `payload` bits plus its header.
    void charge(std::uint64_t payload) {
      payload_bits += payload;
      header_bits += kHeaderBits;
      messages += 1;
    }
  };

  /// Takes ownership of the deployment graph (compacting it if the builder
  /// has not already). `master_seed` derives every node's private random
  /// stream, making runs reproducible.
  Network(net::Graph graph, std::uint64_t master_seed);

  std::size_t node_count() const { return sent_.size(); }
  const net::Graph& graph() const { return graph_; }

  // ---- node-local state -------------------------------------------------

  /// Installs the input multiset at `node` (Section 2.1: each node holds
  /// input items). Values must be non-negative.
  void set_items(NodeId node, ValueSet items);

  /// Distributes one item per node; `flat.size()` must equal node_count().
  void set_one_item_per_node(const ValueSet& flat);

  /// The node's items, as a view into the shared value slab. Invalidated by
  /// the next set_items / set_one_item_per_node call.
  std::span<const Value> items(NodeId node) const;

  /// Overwrites the node's `index`-th item in place — the sensor-update feed
  /// of the continuous-query service. Unlike set_items this never grows the
  /// slab, so a long-running stream of per-epoch update batches has zero
  /// allocation cost. The value must be non-negative and `index` must
  /// address an existing item.
  void update_item(NodeId node, std::size_t index, Value v);

  /// The node's private random stream ("infinite tape of random bits").
  Xoshiro256& rng(NodeId node);

  // ---- messaging ----------------------------------------------------------

  /// Unicast along a graph edge; delivered at now()+1. Accounting is charged
  /// to sender and receiver immediately (bits on air are bits paid).
  void send(Message msg);

  /// Makes every subsequent transmission vanish with probability `p`
  /// (per message, from a dedicated reproducible stream). The sender still
  /// pays its bits — radios don't know the packet died. Tree waves stall
  /// under loss (and their drivers throw); duplicate-insensitive multipath
  /// aggregation degrades gracefully — see proto/multipath.hpp.
  void set_message_loss(double p);

  /// Shared-medium broadcast: every other node receives the message at
  /// now()+1. Only meaningful on single-hop (complete) deployments; the
  /// sender pays the bits once, every receiver pays them too. All receivers
  /// share one payload slab — the broadcast costs no per-receiver copies.
  void send_medium(Message msg);

  /// Drains the event queue, dispatching each delivery to `handler`.
  /// Throws ProtocolError before dispatching the (max_deliveries + 1)-th
  /// message (runaway-protocol guard): at most `max_deliveries` messages
  /// ever reach `handler`.
  void run(ProtocolHandler& handler, std::uint64_t max_deliveries = 1ULL << 32);

  SimTime now() const { return now_; }

  // ---- accounting -----------------------------------------------------

  /// One node's accounting, assembled from the direction arrays.
  NodeCommStats stats(NodeId node) const;

  /// Whole-network accounting snapshot (materialized; use it for windowed
  /// before/after diffs and determinism comparisons).
  std::vector<NodeCommStats> all_stats() const;

  /// Starts metering payload bits that cross the undirected edge {u, v}
  /// (either direction). Used by the Theorem 5.1 reduction to measure the
  /// information flow across the A|B cut of the line network.
  void watch_edge(NodeId u, NodeId v);

  /// Payload bits that crossed the watched edge so far.
  std::uint64_t watched_edge_bits() const { return watched_bits_; }

  /// High-water mark of simulator memory committed to undelivered messages:
  /// out-of-line payload bytes referenced by queued messages (a shared slab
  /// counts once per reference — an upper bound) plus the message-slot array
  /// footprint. The perf harness tracks this to keep queue memory bounded by
  /// per-round traffic instead of whole-run traffic.
  std::size_t peak_in_flight_bytes() const { return peak_in_flight_bytes_; }

  /// Clears stats and the clock (keeps items and RNG streams).
  void reset_accounting();

  /// Full trial reset: accounting, clock, queue, loss model, and RNG
  /// streams return to the state of a freshly built Network(graph,
  /// master_seed); the graph and installed items are kept. A reset network
  /// is byte-identical to a fresh one for the same seed, so experiment
  /// arenas can reuse one deployment across trials without re-paying
  /// topology construction.
  void reset(std::uint64_t master_seed);

  /// Summary over the current accounting window (single pass over the
  /// direction arrays; no per-node materialization).
  CommSummary summary(bool include_headers = false) const;

  /// Network-wide sent totals over the current accounting window, kept
  /// running by every send: O(1), and equal to summary()'s total_bits
  /// (payload_bits, plus header_bits with headers) and total_messages.
  const DirStats& sent_totals() const { return sent_total_; }

 private:
  /// Where a node's items live in the shared slab.
  struct ItemRef {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  void charge_send(NodeId node, const Message& msg);
  void charge_receive(NodeId node, const Message& msg);
  void schedule(Message msg, NodeId to);
  void note_in_flight_high_water();
  void ensure_rngs();
  /// Publishes the batched sim.* counters to the obs registry and zeroes
  /// the pending fields. Called once per run() — the send/deliver hot paths
  /// only bump plain members, never the (locked) registry.
  void flush_obs_counters();

  net::Graph graph_;
  std::uint64_t master_seed_ = 0;

  // ---- SoA node state (parallel arrays indexed by NodeId) ---------------
  std::vector<DirStats> sent_;      // hot: charge_send
  std::vector<DirStats> received_;  // hot: charge_receive
  DirStats sent_total_;             // sum of sent_, kept by charge_send
  std::vector<ItemRef> item_refs_;
  std::vector<Value> item_slab_;
  std::vector<Xoshiro256> rngs_;  // empty until the first rng() call

  Xoshiro256 loss_rng_{kLossSeed};
  double loss_probability_ = 0.0;
  static constexpr std::uint64_t kLossSeed = 0x10c5;

  // Calendar queue: slots_ stores queued messages; round_now_ / round_next_
  // hold slot indices due at round_time_ / round_time_ + 1, in send order.
  // Delivered slots return to free_slots_ for reuse, so steady-state runs
  // stop touching the allocator entirely.
  std::vector<Message> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> round_now_;
  std::vector<std::uint32_t> round_next_;
  SimTime round_time_ = 0;   // delivery time of round_now_ entries
  std::size_t cursor_ = 0;   // drain position within round_now_
  std::uint64_t pending_ = 0;  // undelivered messages across both rounds

  std::size_t in_flight_payload_bytes_ = 0;
  std::size_t slot_store_bytes_ = 0;  // slots_.capacity() * sizeof(Message)
  std::size_t peak_in_flight_bytes_ = 0;

  SimTime now_ = 0;
  NodeId watch_u_ = kNoNode;
  NodeId watch_v_ = kNoNode;
  std::uint64_t watched_bits_ = 0;

  // Pending observability counters (flushed by flush_obs_counters). Plain
  // integers: cheaper than a registry lock at per-message frequency, and
  // reset with the accounting window they describe.
  std::uint64_t obs_unicasts_ = 0;
  std::uint64_t obs_broadcasts_ = 0;
  std::uint64_t obs_deliveries_ = 0;
  std::uint64_t obs_drops_ = 0;
  std::uint64_t obs_payload_bits_ = 0;
};

}  // namespace sensornet::sim
