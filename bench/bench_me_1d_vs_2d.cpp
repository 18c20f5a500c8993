// Experiment A3 - 1-D vs 2-D ME array architectures.
//
// Section 4 of the paper motivates the 2-D organisation: "The 1-D array
// architectures proposed among which are [12]-[14] require high operating
// frequencies in order to fulfill the data-flow requirements of these
// demanding complex algorithms". This bench quantifies that: the clock a
// 1-D row (one candidate at a time) needs for real-time full search vs the
// 4-module 2-D array, across frame formats and search ranges.
#include <cstdio>

#include "common/report.hpp"
#include "me/systolic.hpp"

int main() {
  using namespace dsra;
  BenchJson json("me_1d_vs_2d");

  struct Format {
    const char* name;
    int width, height, fps;
  };
  const Format formats[] = {
      {"QCIF 176x144 @15", 176, 144, 15},
      {"QCIF 176x144 @30", 176, 144, 30},
      {"CIF  352x288 @30", 352, 288, 30},
  };

  ReportTable table("required clock for real-time full-search ME (MHz)");
  table.set_header({"format", "range", "macroblocks", "1-D array (1 cand)",
                    "2-D 4x16 (4 cand)", "speedup"});
  for (const Format& f : formats) {
    for (const int range : {8, 16}) {
      const int mbs = ((f.width + 15) / 16) * ((f.height + 15) / 16);
      me::SystolicParams d2;  // 4 modules
      me::SystolicParams d1;
      d1.modules = 1;
      const double c2 = static_cast<double>(me::systolic_cycles_per_block(range, d2));
      const double c1 = static_cast<double>(me::systolic_cycles_per_block(range, d1));
      const double f2 = c2 * mbs * f.fps / 1e6;
      const double f1 = c1 * mbs * f.fps / 1e6;
      table.add_row({f.name, format_i64(range), format_i64(mbs), format_double(f1, 1),
                     format_double(f2, 1), format_double(f1 / f2, 2) + "x"});
    }
  }
  table.print();

  std::printf("\nthe 2-D organisation cuts the required operating frequency ~4x - the\n"
              "paper's reason for the 4x16 module structure (lower clock -> lower power\n"
              "at the same throughput, the core low-power argument).\n\n");

  // Scaling with module count at fixed range.
  ReportTable scale("cycles per macroblock vs module count (range 8)");
  scale.set_header({"modules", "cycles/MB", "vs 1-D", "PE count"});
  const double base =
      static_cast<double>(me::systolic_cycles_per_block(8, me::SystolicParams{16, 1, 8}));
  for (const int modules : {1, 2, 4, 8}) {
    me::SystolicParams p;
    p.modules = modules;
    const double c = static_cast<double>(me::systolic_cycles_per_block(8, p));
    scale.add_row({format_i64(modules), format_double(c, 0),
                   format_double(base / c, 2) + "x", format_i64(16 * modules)});
  }
  scale.print();
  std::printf("\nreturns diminish once the band count stops dividing evenly - the paper's\n"
              "choice of 4 modules balances PE count against the 17-candidate rows of a\n"
              "+/-8 search window.\n");

  for (const int modules : {1, 2, 4, 8}) {
    me::SystolicParams p;
    p.modules = modules;
    json.metric("cycles_per_mb_" + std::to_string(modules) + "mod",
                static_cast<double>(me::systolic_cycles_per_block(8, p)));
  }
  json.write();
  return 0;
}
