// Architecture builders, routing-resource graph invariants, simulated
// annealing placement and PathFinder routing properties.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/arch.hpp"
#include "mapper/place.hpp"
#include "mapper/route.hpp"
#include "mapper/rrgraph.hpp"

namespace dsra::map {
namespace {

/// Random netlist of adders in a chain with some fan-out, for stress tests.
Netlist random_netlist(int nodes, int width, std::uint64_t seed) {
  Rng rng(seed);
  Netlist nl("rand");
  std::vector<NetId> nets;
  nets.push_back(nl.add_input("in0", width));
  nets.push_back(nl.add_input("in1", width));
  for (int i = 0; i < nodes; ++i) {
    const NodeId n = nl.add_node("n" + std::to_string(i),
                                 AddShiftCfg{width, AddShiftOp::kAdd, 0, false});
    nl.connect_input(n, "a", nets[rng.next_below(nets.size())]);
    nl.connect_input(n, "b", nets[rng.next_below(nets.size())]);
    nets.push_back(nl.output_net(n, "y"));
  }
  nl.add_output("out", nets.back());
  return nl;
}

TEST(Arch, BuildersProduceExpectedComposition) {
  const ArrayArch me = ArrayArch::motion_estimation(4, 3);
  EXPECT_EQ(me.width(), 17);
  EXPECT_EQ(me.height(), 3);
  EXPECT_EQ(me.count_of(ClusterKind::kMuxReg), 2 * 4 * 3);
  EXPECT_EQ(me.count_of(ClusterKind::kAbsDiff), 4 * 3);
  EXPECT_EQ(me.count_of(ClusterKind::kAddAcc), 4 * 3);
  EXPECT_EQ(me.count_of(ClusterKind::kComp), 3);
  EXPECT_EQ(me.count_of(ClusterKind::kMem), 0);

  const ArrayArch da = ArrayArch::distributed_arithmetic(8, 4, 4);
  EXPECT_EQ(da.count_of(ClusterKind::kMem), 2 * 4);        // 2 mem columns
  EXPECT_EQ(da.count_of(ClusterKind::kAddShift), 6 * 4);
  EXPECT_EQ(da.tile_count(), 32);

  // Composition sums to the tile count.
  int total = 0;
  for (const auto& [kind, count] : da.composition()) total += count;
  EXPECT_EQ(total, da.tile_count());
}

TEST(Arch, SitesOfMatchesKindAt) {
  const ArrayArch da = ArrayArch::distributed_arithmetic(6, 5);
  for (const auto& site : da.sites_of(ClusterKind::kMem))
    EXPECT_EQ(da.kind_at(site), ClusterKind::kMem);
  EXPECT_EQ(static_cast<int>(da.sites_of(ClusterKind::kMem).size()),
            da.count_of(ClusterKind::kMem));
}

TEST(RRGraph, AdjacencyIsSymmetricAndLayered) {
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 5, 4);
  const RRGraph g(arch);
  for (RRNodeId n = 0; n < g.node_count(); ++n) {
    for (const RRNodeId m : g.neighbors(n)) {
      EXPECT_EQ(g.layer_of(n), g.layer_of(m)) << "no inter-layer switches";
      const auto& back = g.neighbors(m);
      EXPECT_NE(std::find(back.begin(), back.end(), n), back.end()) << "symmetric";
    }
  }
}

TEST(RRGraph, TileAccessNodesBorderTheTile) {
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 4, 4);
  const RRGraph g(arch);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const auto access = g.tile_access({x, y}, Layer::kBus);
      EXPECT_EQ(access.size(), 4u);
      for (const RRNodeId n : access) {
        const auto [px, py] = g.position(n);
        EXPECT_LE(std::abs(px - (x + 0.5)) + std::abs(py - (y + 0.5)), 1.01);
      }
    }
  }
}

TEST(RRGraph, DemandUnitsFollowBusWidth) {
  EXPECT_EQ(RRGraph::demand_units(1), 1);
  EXPECT_EQ(RRGraph::demand_units(8), 1);
  EXPECT_EQ(RRGraph::demand_units(9), 2);
  EXPECT_EQ(RRGraph::demand_units(16), 2);
  EXPECT_EQ(RRGraph::demand_units(32), 4);
  EXPECT_EQ(RRGraph::layer_for_width(1), Layer::kBit);
  EXPECT_EQ(RRGraph::layer_for_width(8), Layer::kBus);
}

TEST(Place, LegalKindMatchingAndDeterminism) {
  const Netlist nl = random_netlist(24, 16, 5);
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 8, 8);
  PlaceParams params;
  params.seed = 9;
  const PlaceResult r1 = place(nl, arch, params);
  const PlaceResult r2 = place(nl, arch, params);
  for (std::size_t i = 0; i < r1.placement.node_tile.size(); ++i)
    EXPECT_EQ(r1.placement.node_tile[i], r2.placement.node_tile[i]) << "determinism";

  // Legality: every node on a site of its kind, no two nodes share a tile.
  std::set<std::pair<int, int>> used;
  for (std::size_t i = 0; i < nl.nodes().size(); ++i) {
    const TileCoord t = r1.placement.node_tile[i];
    EXPECT_EQ(arch.kind_at(t), kind_of(nl.nodes()[i].config));
    EXPECT_TRUE(used.insert({t.x, t.y}).second) << "overlap at " << t.x << "," << t.y;
  }
}

TEST(Place, AnnealingImprovesWirelength) {
  const Netlist nl = random_netlist(60, 16, 6);
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 10, 10);
  const PlaceResult r = place(nl, arch, PlaceParams{});
  EXPECT_LE(r.final_wirelength, r.initial_wirelength);
  EXPECT_GT(r.moves_accepted, 0);
  EXPECT_DOUBLE_EQ(r.final_wirelength, wirelength(nl, r.placement));
}

TEST(Place, ThrowsWhenFabricTooSmall) {
  const Netlist nl = random_netlist(30, 16, 7);
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 5, 5);
  EXPECT_THROW((void)place(nl, arch, PlaceParams{}), std::runtime_error);
}

class RouteChannels : public ::testing::TestWithParam<int> {};

TEST_P(RouteChannels, NoOveruseOnSuccess) {
  const int bus_tracks = GetParam();
  const Netlist nl = random_netlist(30, 16, 8);
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 8, 8,
                                                ChannelSpec{bus_tracks, 4});
  const PlaceResult placed = place(nl, arch, PlaceParams{});
  const RRGraph graph(arch);
  const RouteResult routes = route(nl, placed.placement, graph, RouteParams{});
  if (!routes.success) GTEST_SKIP() << "unroutable at " << bus_tracks << " bus tracks";

  // Re-derive usage from the route trees and check every channel.
  std::vector<int> usage(static_cast<std::size_t>(graph.node_count()), 0);
  for (const auto& rn : routes.nets)
    for (const RRNodeId n : rn.tree) usage[static_cast<std::size_t>(n)] += rn.demand;
  for (RRNodeId n = 0; n < graph.node_count(); ++n)
    EXPECT_LE(usage[static_cast<std::size_t>(n)], graph.capacity(n));
  EXPECT_EQ(routes.overused_nodes, 0);
}

INSTANTIATE_TEST_SUITE_P(BusTracks, RouteChannels, ::testing::Values(2, 4, 8));

TEST(Route, EveryNetTreeTouchesAllItsTerminals) {
  const Netlist nl = random_netlist(20, 16, 10);
  const ArrayArch arch = ArrayArch::homogeneous(ClusterKind::kAddShift, 8, 8);
  const PlaceResult placed = place(nl, arch, PlaceParams{});
  const RRGraph graph(arch);
  const RouteResult routes = route(nl, placed.placement, graph, RouteParams{});
  ASSERT_TRUE(routes.success);

  for (std::size_t i = 0; i < nl.nets().size(); ++i) {
    const Net& net = nl.nets()[i];
    if (net.sinks.empty()) continue;
    const auto& rn = routes.nets[i];
    EXPECT_FALSE(rn.tree.empty()) << net.name;
    EXPECT_EQ(rn.sink_hops.size(), net.sinks.size());
    std::set<RRNodeId> tree(rn.tree.begin(), rn.tree.end());
    const Layer layer = RRGraph::layer_for_width(net.width);
    // Driver and every sink must have at least one access node in the tree.
    auto touches = [&](const PinRef& pin, bool is_driver) {
      TileCoord t{};
      if (pin.node != kInvalidId) {
        t = placed.placement.tile_of(pin.node);
      } else {
        t = is_driver ? placed.placement.input_pad[static_cast<std::size_t>(pin.port)].tile
                      : placed.placement.output_pad[static_cast<std::size_t>(pin.port)].tile;
      }
      for (const RRNodeId n : graph.tile_access(t, layer))
        if (tree.count(n)) return true;
      return false;
    };
    EXPECT_TRUE(touches(net.driver, true)) << net.name;
    for (const auto& s : net.sinks) EXPECT_TRUE(touches(s, false)) << net.name;
  }
}

TEST(Route, WiderChannelsReduceIterations) {
  const Netlist nl = random_netlist(40, 16, 11);
  const ArrayArch narrow = ArrayArch::homogeneous(ClusterKind::kAddShift, 7, 7, ChannelSpec{3, 4});
  const ArrayArch wide = ArrayArch::homogeneous(ClusterKind::kAddShift, 7, 7, ChannelSpec{10, 8});
  const PlaceParams pp;
  const PlaceResult p1 = place(nl, narrow, pp);
  const PlaceResult p2 = place(nl, wide, pp);
  const RouteResult r1 = route(nl, p1.placement, RRGraph(narrow), RouteParams{});
  const RouteResult r2 = route(nl, p2.placement, RRGraph(wide), RouteParams{});
  ASSERT_TRUE(r2.success);
  if (r1.success) {
    EXPECT_LE(r2.iterations, r1.iterations);
  }
}

}  // namespace
}  // namespace dsra::map
