// Generic broadcast-convergecast wave over a spanning tree.
//
// One wave = the root floods an encoded request down the tree; every node
// computes a local partial aggregate from its (view of its) items; leaves
// answer immediately and internal nodes fold children's partials into their
// own before answering — the TAG-style in-network aggregation that Fact 2.1
// builds on. The engine is a template over an AggregationSpec, so the same
// carefully-tested state machine carries every protocol in the library.
//
// Individual communication per wave: each node sends/receives one request
// per tree edge it touches and one response, so a node of tree-degree d pays
// d * (|request| + |partial|) bits — with bounded-degree trees and O(log N)
// partials this is Fact 2.1's O(log N) per node.
//
// An optional edge policy makes the same engine carry incremental and pruned
// collections. A tree edge is named (node, child) — the child alone
// identifies it, since every non-root node has exactly one parent edge.
// Before a node forwards the request it asks the policy about each child
// edge: descend, fold a cached partial for the subtree into the node's
// accumulator instead (no message), or prune the subtree outright. The
// policy also sees every partial a child sends up, so it can keep it for the
// next wave, keyed by the child, which stays valid when the children list
// of a node changes.
//
// Per-wave state is sparse — one slot index per node plus state for the
// nodes the wave reaches — because incremental waves touch only a few root
// paths of a large tree. The state vector reserves room for every node up
// front, so states never move while the wave grows; slots of nodes the wave
// does not reach are never constructed.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/proto/item_view.hpp"
#include "src/sim/network.hpp"

namespace sensornet::proto {

/// What a type must provide to ride the wave engine. The members are called
/// on a spec instance, so a spec may carry node-resident state (say, a region
/// an install broadcast put at every node); static members work unchanged.
template <typename A>
concept AggregationSpec = requires(const A& a, BitWriter& w, BitReader& r,
                                   const typename A::Request& req,
                                   typename A::Partial& acc,
                                   const typename A::Partial& in,
                                   sim::Network& net, NodeId id,
                                   const LocalItemView& view) {
  { a.encode_request(w, req) };
  { a.decode_request(r) } -> std::same_as<typename A::Request>;
  { a.encode_partial(w, in, req) };
  { a.decode_partial(r, req) } -> std::same_as<typename A::Partial>;
  { a.local(net, id, req, view) } -> std::same_as<typename A::Partial>;
  { a.combine(acc, in, req) };
};

/// An edge policy's verdict on one child edge.
enum class EdgeAction {
  kDescend,  // send the request down the edge
  kCached,   // the policy folded a cached partial of the subtree into acc
  kPrune,    // the subtree contributes nothing
};

/// The default edge policy: every edge descends and nothing is kept.
struct DescendAll {
  template <typename Partial>
  EdgeAction edge(NodeId /*node*/, NodeId /*child*/, Partial& /*acc*/) {
    return EdgeAction::kDescend;
  }
  template <typename Partial>
  void collected(NodeId /*node*/, NodeId /*child*/, Partial&& /*in*/) {}
};

template <AggregationSpec A, typename Edges = DescendAll>
class TreeWave final : public sim::ProtocolHandler {
 public:
  using Request = typename A::Request;
  using Partial = typename A::Partial;

  /// The tree and view must outlive the wave. `edges` decides, per child
  /// edge of a node the wave reaches, whether the request descends it
  /// (edge(node, child, acc)), and is handed each partial a child sends up
  /// (collected(node, child, partial)) after it was combined.
  TreeWave(const net::SpanningTree& tree, std::uint32_t session,
           const LocalItemView& view = raw_item_view(), A spec = {},
           Edges edges = {})
      : tree_(tree),
        view_(view),
        session_(session),
        spec_(std::move(spec)),
        edges_(std::move(edges)) {}

  /// Runs one complete wave; returns the root's aggregate.
  Partial execute(sim::Network& net, const Request& request) {
    SENSORNET_EXPECTS(net.node_count() == tree_.node_count());
    slot_.assign(tree_.node_count(), kNoSlot);
    state_.clear();
    state_.reserve(tree_.node_count());
    root_result_.reset();
    start_node(net, tree_.root, request);
    net.run(*this);
    if (!root_result_) {
      throw ProtocolError("TreeWave: wave drained without a root result");
    }
    return std::move(*root_result_);
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    if (msg.session != session_) {
      throw ProtocolError("TreeWave: message for a foreign session");
    }
    if (msg.kind == kRequestKind) {
      BitReader r = msg.reader();
      start_node(net, receiver, spec_.decode_request(r));
    } else if (msg.kind == kResponseKind) {
      if (slot_[receiver] == kNoSlot || state_[slot_[receiver]].pending == 0) {
        throw ProtocolError("TreeWave: unexpected response");
      }
      NodeState& st = state_[slot_[receiver]];
      BitReader r = msg.reader();
      Partial in = spec_.decode_partial(r, st.request);
      spec_.combine(st.acc, in, st.request);
      edges_.collected(receiver, msg.from, std::move(in));
      if (--st.pending == 0) finish_node(net, receiver);
    } else {
      throw ProtocolError("TreeWave: unknown message kind");
    }
  }

 private:
  static constexpr std::uint16_t kRequestKind = 1;
  static constexpr std::uint16_t kResponseKind = 2;
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  struct NodeState {
    Request request;
    Partial acc;
    std::size_t pending = 0;
  };

  /// A node learns the request: compute local contribution, forward the
  /// request down the edges the policy descends, or answer right away when
  /// there are none.
  void start_node(sim::Network& net, NodeId node, Request request) {
    if (slot_[node] != kNoSlot) {
      throw ProtocolError("TreeWave: node started twice");
    }
    slot_[node] = static_cast<std::uint32_t>(state_.size());
    Partial acc = spec_.local(net, node, request, view_);
    state_.push_back(NodeState{std::move(request), std::move(acc), 0});
    NodeState& st = state_.back();
    // Encode the request once; every child gets a refcounted view of the
    // same payload slab (identical wire bits, no per-child re-encode).
    std::optional<sim::Payload> slab;
    std::uint32_t bits = 0;
    for (const NodeId child : tree_.children[node]) {
      if (edges_.edge(node, child, st.acc) != EdgeAction::kDescend) continue;
      if (!slab) {
        BitWriter w;
        spec_.encode_request(w, st.request);
        bits = static_cast<std::uint32_t>(w.bit_count());
        slab.emplace(w.bytes().data(), w.bytes().size());
      }
      net.send(sim::Message::with_payload(node, child, session_, kRequestKind,
                                          *slab, bits));
      ++st.pending;
    }
    if (st.pending == 0) finish_node(net, node);
  }

  /// All descended children answered: report to the parent (or finish at
  /// the root).
  void finish_node(sim::Network& net, NodeId node) {
    NodeState& st = state_[slot_[node]];
    if (node == tree_.root) {
      root_result_ = std::move(st.acc);
      return;
    }
    BitWriter w;
    spec_.encode_partial(w, st.acc, st.request);
    net.send(sim::Message::make(node, tree_.parent[node], session_,
                                kResponseKind, std::move(w)));
  }

  const net::SpanningTree& tree_;
  const LocalItemView& view_;
  std::uint32_t session_;
  A spec_;
  Edges edges_;
  std::vector<std::uint32_t> slot_;  // node -> index into state_, or kNoSlot
  std::vector<NodeState> state_;     // only the nodes the wave reached
  std::optional<Partial> root_result_;
};

}  // namespace sensornet::proto
