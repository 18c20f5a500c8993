// Experiment T1 - regenerates Table 1 of the paper: "Area usage of the
// DCT implementations", as cluster counts of the generated netlists, side
// by side with the published numbers.
#include <cstdio>

#include "common/report.hpp"
#include "dct/impl.hpp"

namespace {

struct PaperColumn {
  const char* impl;
  int adders, subtracters, shift_regs, accs, add_shift_total, mems, total;
};

// Table 1 as printed in the paper (da_basic / Fig 4 is not a column there;
// its budget equals the basic-DA structure and is reported for context).
constexpr PaperColumn kPaper[] = {
    {"mixed_rom", 4, 4, 8, 8, 24, 8, 32},
    {"cordic1", 8, 8, 8, 12, 36, 12, 48},
    {"cordic2", 10, 10, 6, 6, 32, 6, 38},
    {"scc_even_odd", 4, 4, 8, 8, 24, 8, 32},
    {"scc_full", 0, 0, 8, 8, 16, 8, 24},
};

}  // namespace

int main() {
  using namespace dsra;
  BenchJson json("table1_dct_area");
  std::printf("=== Table 1: Area usage of the DCT implementations ===\n");
  std::printf("(paper value / measured from generated netlist)\n\n");

  auto impls = dct::all_implementations();

  ReportTable table("Table 1 reproduction");
  table.set_header({"row", "MIX ROM", "CORDIC 1", "CORDIC 2", "SCC E/O", "SCC", "DA (Fig4)"});

  auto cell = [](int paper, int measured) {
    return format_i64(paper) + " / " + format_i64(measured) +
           (paper == measured ? "" : "  <-- MISMATCH");
  };

  // Collect censuses keyed by name.
  std::map<std::string, ClusterCensus> census;
  for (const auto& impl : impls) census[impl->name()] = impl->build_netlist().census();

  const char* order[] = {"mixed_rom", "cordic1", "cordic2", "scc_even_odd", "scc_full"};
  auto row = [&](const char* label, auto paper_field, auto measured_field) {
    std::vector<std::string> cells{label};
    for (int c = 0; c < 5; ++c) {
      const PaperColumn& p = kPaper[c];
      cells.push_back(cell(paper_field(p), measured_field(census[order[c]])));
    }
    cells.push_back(format_i64(measured_field(census["da_basic"])));
    table.add_row(std::move(cells));
  };

  row("a) adders", [](const PaperColumn& p) { return p.adders; },
      [](const ClusterCensus& c) { return c.adders; });
  row("b) subtracters", [](const PaperColumn& p) { return p.subtracters; },
      [](const ClusterCensus& c) { return c.subtracters; });
  row("c) shift reg", [](const PaperColumn& p) { return p.shift_regs; },
      [](const ClusterCensus& c) { return c.shift_regs; });
  row("d) acc", [](const PaperColumn& p) { return p.accs; },
      [](const ClusterCensus& c) { return c.accumulators; });
  table.add_separator();
  row("add-shift total", [](const PaperColumn& p) { return p.add_shift_total; },
      [](const ClusterCensus& c) { return c.add_shift_total(); });
  row("mem clusters", [](const PaperColumn& p) { return p.mems; },
      [](const ClusterCensus& c) { return c.mem_clusters; });
  table.add_separator();
  row("total clusters", [](const PaperColumn& p) { return p.total; },
      [](const ClusterCensus& c) { return c.total(); });
  table.print();

  // Secondary claims from the text of section 3.
  std::printf("\nsection 3.2: Mixed-ROM words per ROM = 16 (16x less than the 256 of Fig 4)\n");
  std::printf("  measured: mixed_rom ROM bits = %lld, da_basic ROM bits = %lld (ratio %.1fx)\n",
              static_cast<long long>(impls[1]->build_netlist().rom_bits()),
              static_cast<long long>(impls[0]->build_netlist().rom_bits()),
              static_cast<double>(impls[0]->build_netlist().rom_bits()) /
                  static_cast<double>(impls[1]->build_netlist().rom_bits()));
  std::printf("section 3.5: SCC full needs 16x the ROM of SCC even/odd\n");
  std::printf("  measured: %lld vs %lld (ratio %.1fx)\n",
              static_cast<long long>(impls[5]->build_netlist().rom_bits()),
              static_cast<long long>(impls[4]->build_netlist().rom_bits()),
              static_cast<double>(impls[5]->build_netlist().rom_bits()) /
                  static_cast<double>(impls[4]->build_netlist().rom_bits()));

  int mismatches = 0;
  for (int c = 0; c < 5; ++c) {
    const ClusterCensus& m = census[order[c]];
    const PaperColumn& p = kPaper[c];
    if (m.adders != p.adders || m.subtracters != p.subtracters || m.shift_regs != p.shift_regs ||
        m.accumulators != p.accs || m.mem_clusters != p.mems || m.total() != p.total)
      ++mismatches;
  }
  std::printf("\nresult: %d/5 Table 1 columns reproduced exactly\n", 5 - mismatches);

  for (int c = 0; c < 5; ++c)
    json.metric(std::string("total_clusters_") + order[c], census[order[c]].total());
  json.bar("table1_columns_mismatched", mismatches, "<=", 0.0);
  json.write();
  return json.all_passed() ? 0 : 1;
}
