// Experiment F3 - Fig 3: the Distributed-Arithmetic array. Prints the
// fabric composition and reproduces the comparison from [2]: "the array
// provides a 38% reduction in power consumption, 14% in area and 54%
// decrease in the maximum operating frequency" vs a generic FPGA.
#include <cstdio>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "cost/compare.hpp"
#include "dct/impl.hpp"
#include "mapper/flow.hpp"

int main() {
  using namespace dsra;
  BenchJson json("fig3_da_array");

  const ArrayArch arch = ArrayArch::distributed_arithmetic(12, 8);
  ReportTable comp("Fig 3 fabric: " + arch.name());
  comp.set_header({"cluster kind", "sites"});
  for (const auto& [kind, count] : arch.composition())
    comp.add_row({to_string(kind), format_i64(count)});
  comp.add_row({"tiles total", format_i64(arch.tile_count())});
  comp.print();

  // Workload: the basic DA DCT transforming random 12-bit blocks.
  auto impl = dct::make_da_basic();
  const Netlist nl = impl->build_netlist();
  map::FlowParams flow;
  flow.place.seed = 5;
  const map::CompiledDesign design = map::compile(nl, arch, flow);

  Simulator sim(nl);
  impl->drive_constants(sim);
  Rng rng(9);
  for (int t = 0; t < 64; ++t) {
    dct::IVec8 x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    (void)dct::run_da_transform(sim, x, impl->serial_width());
  }

  const cost::FabricComparison cmp =
      cost::compare_fabrics(nl, design, sim, 100.0, arch.channels());

  ReportTable vs("DA-DCT netlist: domain-specific array vs generic FPGA");
  vs.set_header({"metric", "domain array", "generic FPGA", "delta", "paper [2]"});
  vs.add_row({"power (mW)", format_double(cmp.domain.power_mw, 3),
              format_double(cmp.fpga.power_mw, 3),
              "-" + format_percent(cmp.power_reduction()), "-38%"});
  vs.add_row({"area (um^2)", format_double(cmp.domain.area_um2, 0),
              format_double(cmp.fpga.area_um2, 0), "-" + format_percent(cmp.area_reduction()),
              "-14%"});
  vs.add_row({"Fmax (MHz)", format_double(cmp.domain.fmax_mhz, 1),
              format_double(cmp.fpga.fmax_mhz, 1),
              format_percent(cmp.timing_improvement()), "-54%"});
  vs.print();

  std::printf("\n%s\n", paper_vs_measured("power reduction", 38.0,
                                          cmp.power_reduction() * 100.0, "%").c_str());
  std::printf("%s\n", paper_vs_measured("area reduction", 14.0,
                                        cmp.area_reduction() * 100.0, "%").c_str());
  std::printf("%s\n", paper_vs_measured("Fmax change", -54.0,
                                        cmp.timing_improvement() * 100.0, "%").c_str());
  std::printf("\n(the DA array trades clock rate for power: its wide shared ROMs are slower\n"
              " than the FPGA's distributed LUT-RAM, exactly the mechanism behind [2])\n");

  json.metric("power_reduction_pct", cmp.power_reduction() * 100.0);
  json.metric("area_reduction_pct", cmp.area_reduction() * 100.0);
  json.metric("fmax_change_pct", cmp.timing_improvement() * 100.0);
  json.write();
  return 0;
}
