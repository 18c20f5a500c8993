// Experiment F2 - Fig 2: the Motion-Estimation array. Prints the fabric
// composition and reproduces the paper's headline comparison from [1]:
// "reduction of around 75% in power consumption when compared to generic
// FPGAs, while the area is reduced by 45% and timing improved by 23%".
#include <cstdio>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "cost/compare.hpp"
#include "me/systolic.hpp"
#include "video/synthetic.hpp"

int main() {
  using namespace dsra;
  BenchJson json("fig2_me_array");

  // --- fabric composition (the figure itself) ----------------------------
  const ArrayArch arch = ArrayArch::motion_estimation(6, 4, ChannelSpec{6, 12});
  ReportTable comp("Fig 2 fabric: " + arch.name());
  comp.set_header({"cluster kind", "sites"});
  for (const auto& [kind, count] : arch.composition())
    comp.add_row({to_string(kind), format_i64(count)});
  comp.add_row({"tiles total", format_i64(arch.tile_count())});
  comp.print();

  // --- workload: systolic SAD netlist searching real (synthetic) video ---
  me::SystolicParams params;
  params.block = 4;
  params.modules = 2;
  const Netlist nl = me::build_systolic_netlist(params);

  map::FlowParams flow;
  flow.place.seed = 3;
  const map::CompiledDesign design = map::compile(nl, arch, flow);

  Simulator sim(nl);
  video::SyntheticConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.frames = 2;
  const auto frames = video::generate_sequence(cfg);
  for (int bx = 4; bx <= 20; bx += 4)
    (void)me::run_systolic_netlist(sim, frames[1], frames[0], bx, 12, 2, params);

  const cost::FabricComparison cmp =
      cost::compare_fabrics(nl, design, sim, 100.0, arch.channels());

  ReportTable vs("ME netlist: domain-specific array vs generic FPGA");
  vs.set_header({"metric", "domain array", "generic FPGA", "delta", "paper [1]"});
  vs.add_row({"power (mW)", format_double(cmp.domain.power_mw, 3),
              format_double(cmp.fpga.power_mw, 3),
              "-" + format_percent(cmp.power_reduction()), "-75%"});
  vs.add_row({"area (um^2)", format_double(cmp.domain.area_um2, 0),
              format_double(cmp.fpga.area_um2, 0), "-" + format_percent(cmp.area_reduction()),
              "-45%"});
  vs.add_row({"Fmax (MHz)", format_double(cmp.domain.fmax_mhz, 1),
              format_double(cmp.fpga.fmax_mhz, 1),
              "+" + format_percent(cmp.timing_improvement()), "+23%"});
  vs.print();

  std::printf("\n%s\n", paper_vs_measured("power reduction", 75.0,
                                          cmp.power_reduction() * 100.0, "%").c_str());
  std::printf("%s\n", paper_vs_measured("area reduction", 45.0,
                                        cmp.area_reduction() * 100.0, "%").c_str());
  std::printf("%s\n", paper_vs_measured("timing improvement", 23.0,
                                        cmp.timing_improvement() * 100.0, "%").c_str());

  json.metric("power_reduction_pct", cmp.power_reduction() * 100.0);
  json.metric("area_reduction_pct", cmp.area_reduction() * 100.0);
  json.metric("timing_improvement_pct", cmp.timing_improvement() * 100.0);
  json.write();
  return 0;
}
