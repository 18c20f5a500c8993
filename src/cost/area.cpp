#include "cost/area.hpp"

#include <utility>

namespace dsra::cost {

double cluster_area(const ClusterConfig& cfg, const DomainCost& c) {
  if (const auto* mem = std::get_if<MemCfg>(&cfg)) {
    const double bits = static_cast<double>(mem->words) * mem->width;
    return c.cluster_overhead + bits * c.mem_bit_area;
  }
  return c.cluster_overhead + element_count(cfg) * c.element_area;
}

namespace {

AreaReport accumulate(const std::vector<const ClusterConfig*>& configs, int tile_count,
                      const ChannelSpec& channels, const DomainCost& c) {
  AreaReport r;
  r.clusters = static_cast<int>(configs.size());
  std::int64_t cluster_cfg_bits = 0;
  std::int64_t mem_content_bits = 0;
  for (const ClusterConfig* cfg : configs) {
    r.cluster_area += cluster_area(*cfg, c);
    cluster_cfg_bits += config_bit_count(*cfg);
    if (const auto* mem = std::get_if<MemCfg>(cfg))
      mem_content_bits += static_cast<std::int64_t>(mem->words) * mem->width;
  }
  const double routing_per_tile =
      channels.bus_tracks * c.bus_track_area + channels.bit_tracks * c.bit_track_area;
  r.routing_area = routing_per_tile * tile_count;
  const double routing_cfg_bits =
      c.routing_config_bits_per_tile(channels.bus_tracks, channels.bit_tracks) * tile_count;
  r.config_bits = cluster_cfg_bits + static_cast<std::int64_t>(routing_cfg_bits);
  // Memory contents are realised as the memory macro itself (counted in
  // cluster_area at mem_bit_area); only the remaining bits are standalone
  // configuration SRAM.
  r.config_area =
      static_cast<double>(r.config_bits - mem_content_bits) * c.config_bit_area;
  return r;
}

}  // namespace

AreaReport domain_design_area(const Netlist& netlist, const ChannelSpec& channels,
                              const DomainCost& c) {
  std::vector<const ClusterConfig*> configs;
  configs.reserve(netlist.nodes().size());
  for (const auto& node : netlist.nodes()) configs.push_back(&node.config);
  // The occupied region spans roughly one tile per cluster.
  return accumulate(configs, static_cast<int>(configs.size()), channels, c);
}

AreaReport domain_fabric_area(const ArrayArch& arch, const DomainCost& c) {
  // Cost every site with a representative full-width configuration.
  std::vector<ClusterConfig> cfgs;
  cfgs.reserve(static_cast<std::size_t>(arch.tile_count()));
  for (int i = 0; i < arch.tile_count(); ++i) {
    switch (arch.kind_at(arch.coord_of(i))) {
      case ClusterKind::kMuxReg: cfgs.push_back(MuxRegCfg{16, true}); break;
      case ClusterKind::kAbsDiff: cfgs.push_back(AbsDiffCfg{16, AbsDiffOp::kAbsDiff, true}); break;
      case ClusterKind::kAddAcc: cfgs.push_back(AddAccCfg{16, AddAccOp::kAccumulate, false}); break;
      case ClusterKind::kComp: cfgs.push_back(CompCfg{16, CompOp::kRunMin}); break;
      case ClusterKind::kAddShift: cfgs.push_back(AddShiftCfg{16, AddShiftOp::kAdd, 0, false}); break;
      case ClusterKind::kMem: {
        MemCfg m;
        m.words = 256;
        m.width = 8;
        cfgs.emplace_back(std::in_place_type<MemCfg>, std::move(m));
        break;
      }
    }
  }
  std::vector<const ClusterConfig*> ptrs;
  ptrs.reserve(cfgs.size());
  for (const auto& cfg : cfgs) ptrs.push_back(&cfg);
  return accumulate(ptrs, arch.tile_count(), arch.channels(), c);
}

}  // namespace dsra::cost
