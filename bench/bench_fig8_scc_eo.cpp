// Experiment F8 - Fig 8: Li's skew-circular-convolution DCT (even/odd
// split). Prints the negacyclic kernel and index mappings that make the
// odd half a convolution, then the standard per-figure report.
#include "dct/scc_tables.hpp"
#include "dct_bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsra;
  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  const dct::Scc4Tables& t = dct::scc4_tables();

  ReportTable map("length-4 skew-circular index mapping (odd outputs)");
  map.set_header({"exponent a", "input d_i", "input sign", "conv row j -> output X_u",
                  "row sign", "kernel h_a = cos(3^a pi/16)"});
  for (int a = 0; a < 4; ++a) {
    map.add_row({format_i64(a), "d" + std::to_string(t.input_of_a[static_cast<std::size_t>(a)]),
                 t.sign_in[static_cast<std::size_t>(a)] > 0 ? "+" : "-",
                 "row " + std::to_string(a) + " -> X" +
                     std::to_string(t.odd_u_of_row[static_cast<std::size_t>(a)]),
                 t.sign_out[static_cast<std::size_t>(a)] > 0 ? "+" : "-",
                 format_double(t.kernel[static_cast<std::size_t>(a)], 6)});
  }
  map.print();
  std::printf("skew wrap: h_(b+4) = -h_b since 3^(b+4) = 3^b + 16 (mod 32)\n\n");

  return bench::run_dct_fig_bench(json, argc, argv, dct::make_scc_even_odd());
}
