// Experiment F6 - Fig 6: CORDIC-based DCT #1 (6 DA-CORDIC rotators and 16
// butterfly adders). Additionally shows that each rotator's ROM contents
// correspond to a rotation the iterative shift-add CORDIC converges to.
#include <cmath>

#include "dct/cordic.hpp"
#include "dct_bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsra;
  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  auto impl = dct::make_cordic1();

  // Rotator/ROM correspondence: iterative CORDIC vs ROM-based DA rotator.
  constexpr double kPi = 3.14159265358979323846;
  ReportTable rot("DA rotator ROMs vs iterative CORDIC (angle pi/8, 16 iterations)");
  rot.set_header({"quantity", "rotation coefficient", "iterative CORDIC", "delta"});
  const auto [cx, cy] = dct::cordic_rotate(1.0, 0.0, kPi / 8, 16);
  rot.add_row({"cos(pi/8)", format_double(std::cos(kPi / 8), 6), format_double(cx, 6),
               format_double(std::abs(cx - std::cos(kPi / 8)), 6)});
  rot.add_row({"sin(pi/8)", format_double(std::sin(kPi / 8), 6), format_double(cy, 6),
               format_double(std::abs(cy - std::sin(kPi / 8)), 6)});
  rot.print();
  std::printf("\n");

  return bench::run_dct_fig_bench(json, argc, argv, std::move(impl));
}
