// EXP-CMP — Section 1's related-work landscape as one table: every median
// algorithm in the library on the same deployment. Who wins on individual
// communication, at what accuracy, and where the crossovers fall.
#include <cmath>
#include <cstdint>

#include "src/baseline/gk_median.hpp"
#include "src/baseline/sampling_median.hpp"
#include "src/baseline/singlehop_median.hpp"
#include "src/baseline/tag_collect.hpp"
#include "src/common/mathutil.hpp"
#include "src/core/apx_median.hpp"
#include "src/core/apx_median2.hpp"
#include "src/core/det_median.hpp"
#include "src/proto/counting_service.hpp"
#include "util/experiment.hpp"
#include "util/table.hpp"

namespace sensornet::bench {
namespace {

struct Row {
  std::string name;
  Value value = 0;
  std::uint64_t max_bits = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t rounds = 0;
  bool exact = false;
};

Row measure(const std::string& name, const ValueSet& items, Value result,
            const sim::Network& net, bool exact) {
  Row r;
  r.name = name;
  r.value = result;
  const auto s = net.summary();
  r.max_bits = s.max_node_bits;
  r.total_bits = s.total_bits;
  r.rounds = s.rounds;
  r.exact = exact;
  (void)items;
  return r;
}

void comparison_at(std::size_t n, Value X, bool include_randomized) {
  Xoshiro256 rng(77);
  const ValueSet xs = generate_workload(WorkloadKind::kUniform, n, X, rng);
  const Value truth = reference_median(xs);
  std::vector<Row> rows;

  const auto fresh_grid = [&]() {
    auto net = std::make_unique<sim::Network>(
        net::make_grid(static_cast<std::size_t>(std::sqrt(n)),
                       n / static_cast<std::size_t>(std::sqrt(n))),
        99);
    for (NodeId u = 0; u < net->node_count(); ++u) {
      if (u < n) net->set_items(u, {xs[u]});
    }
    return net;
  };

  {
    auto net = fresh_grid();
    const auto tree = net::bfs_tree(net->graph(), 0);
    proto::TreeCountingService svc(*net, tree);
    const auto res = core::deterministic_median(svc);
    rows.push_back(measure("Fig.1 deterministic (this paper)", xs, res.value,
                           *net, true));
  }
  if (include_randomized) {
    auto net = fresh_grid();
    const auto tree = net::bfs_tree(net->graph(), 0);
    proto::TreeCountingService minmax(*net, tree);
    proto::ApxCountConfig cfg;
    cfg.registers = 64;
    proto::TreeApproxCountingService counter(*net, tree, cfg);
    core::ApxSelectionParams params;
    params.epsilon = 0.25;
    params.rep_scale = 0.05;  // practical schedule
    const auto res = core::approx_median(minmax, counter, params);
    rows.push_back(measure("Fig.2 randomized (this paper)", xs, res.value,
                           *net, false));
  }
  if (include_randomized) {
    auto net = fresh_grid();
    const auto tree = net::bfs_tree(net->graph(), 0);
    core::ApxMedian2Params params;
    params.beta = 1.0 / 256;
    params.epsilon = 0.25;
    params.rep_scale = 0.05;
    params.registers = 64;
    params.max_value_bound = X;
    const auto res = core::approx_median2(*net, tree, params);
    rows.push_back(measure("Fig.4 polyloglog (this paper)", xs, res.value,
                           *net, false));
  }
  {
    auto net = fresh_grid();
    const auto tree = net::bfs_tree(net->graph(), 0);
    const auto res = baseline::tag_collect_median(*net, tree);
    rows.push_back(measure("TAG collect-all [9]", xs, res.median, *net, true));
  }
  {
    auto net = fresh_grid();
    const auto tree = net::bfs_tree(net->graph(), 0);
    const auto res = baseline::sampling_median(*net, tree, 64);
    rows.push_back(
        measure("uniform sampling (s=64) [10]", xs, res.median, *net, false));
  }
  {
    auto net = fresh_grid();
    const auto tree = net::bfs_tree(net->graph(), 0);
    const auto res = baseline::gk_median(*net, tree, 16);
    rows.push_back(
        measure("GK summary (B=16) [4]", xs, res.median, *net, false));
  }
  if (n <= 512) {
    sim::Network net(net::make_complete(n), 99);
    net.set_one_item_per_node(xs);
    const auto res = baseline::single_hop_median(net, 0, X);
    rows.push_back(
        measure("single-hop presence bits [14]", xs, res.median, net, true));
  }

  Table table({"algorithm", "exact?", "value", "rank err/N", "max bits/node",
               "total bits", "rounds"});
  for (const auto& r : rows) {
    const double rank = static_cast<double>(rank_below(xs, r.value + 1));
    const double err =
        std::abs(rank - static_cast<double>(n) / 2.0) / static_cast<double>(n);
    table.add_row({r.name, r.exact ? "yes" : "no", std::to_string(r.value),
                   fmt(err, 3), fmt_bits(r.max_bits), fmt_bits(r.total_bits),
                   fmt_bits(r.rounds)});
  }
  std::cout << "### N = " << n << ", X = " << X
            << " (true median = " << truth << ")\n\n";
  table.print();
}

void run() {
  print_banner(
      "EXP-CMP", "Section 1 related work",
      "medians compared on one deployment: Fig. 1 is exact at fewer bits "
      "per node than collect-all at every N; Fig. 4's repetition schedule "
      "makes it the costliest row at both N it runs (over 1 Mbit per "
      "node), so its polyloglog bound does not pay off at these sizes; "
      "sampling and GK are cheapest on bits but approximate; [14] trades "
      "tiny transmit for huge receive (single-hop only)");
  comparison_at(256, 1 << 16, /*include_randomized=*/true);
  comparison_at(1024, 1 << 20, /*include_randomized=*/true);
  // At 4096 the randomized drivers' repetition schedules dominate bench
  // runtime; their scaling story is EXP-C48's table.
  comparison_at(4096, 1 << 24, /*include_randomized=*/false);
}

}  // namespace
}  // namespace sensornet::bench

int main() {
  sensornet::bench::run();
  return 0;
}
