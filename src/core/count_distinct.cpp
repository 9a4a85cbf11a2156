#include "src/core/count_distinct.hpp"

#include "src/proto/aggregations.hpp"
#include "src/proto/tree_wave.hpp"
#include "src/sim/comm_stats.hpp"

namespace sensornet::core {

namespace {

/// The largest per-node payload traffic since `before`.
std::uint64_t window_max_node_bits(const sim::Network& net,
                                   const std::vector<sim::NodeCommStats>& before) {
  return sim::window_summary(before, net.all_stats(), /*rounds=*/0,
                             /*include_headers=*/false)
      .max_node_bits;
}

}  // namespace

ExactDistinctResult exact_count_distinct(sim::Network& net,
                                         const net::SpanningTree& tree,
                                         const proto::LocalItemView& view) {
  const auto before = net.all_stats();
  proto::TreeWave<proto::DistinctSetAgg> wave(tree, /*session=*/0x7001, view);
  const ValueSet distinct = wave.execute(
      net, proto::DistinctSetAgg::Request{proto::Predicate::always_true()});
  ExactDistinctResult res;
  res.distinct = distinct.size();
  res.max_node_bits = window_max_node_bits(net, before);
  return res;
}

ApproxDistinctResult approx_count_distinct(sim::Network& net,
                                           const net::SpanningTree& tree,
                                           unsigned registers,
                                           proto::EstimatorKind estimator,
                                           const proto::LocalItemView& view) {
  const auto before = net.all_stats();
  proto::ApxCountConfig cfg;
  cfg.registers = registers;
  cfg.estimator = estimator;
  cfg.mode = proto::LogLogAgg::Mode::kHashed;
  proto::TreeApproxCountingService svc(net, tree, cfg, view);
  ApproxDistinctResult res;
  res.estimate = svc.apx_count(proto::Predicate::always_true());
  res.expected_sigma = svc.sigma();
  res.max_node_bits = window_max_node_bits(net, before);
  return res;
}

}  // namespace sensornet::core
