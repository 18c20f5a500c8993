// Experiment F9 - Fig 9: full skew-circular-convolution DCT (256-word
// ROMs, no input adders). Quantifies the circulant ROM-sharing structure:
// the four odd-output ROMs realise rotations of one shared kernel.
#include "dct/scc_tables.hpp"
#include "dct_bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsra;
  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  const dct::Scc8Tables& t = dct::scc8_tables();

  ReportTable kernel("length-8 circulant kernel C_b = cos(3^b pi/16)");
  kernel.set_header({"b", "3^b mod 32", "C_b"});
  int p = 1;
  for (int b = 0; b < 8; ++b) {
    kernel.add_row({format_i64(b), format_i64(p), format_double(t.kernel[static_cast<std::size_t>(b)], 6)});
    p = (p * 3) % 32;
  }
  kernel.print();

  // ROM sharing: distinct single-bit-address coefficient multisets across
  // the odd-output ROMs (1 shared kernel => maximal sharing).
  auto impl = dct::make_scc_full();
  const Netlist nl = impl->build_netlist();
  std::set<std::multiset<std::int64_t>> distinct;
  for (const auto& node : nl.nodes()) {
    if (const auto* mem = std::get_if<MemCfg>(&node.config)) {
      if (node.name[3] == '1' || node.name[3] == '3' || node.name[3] == '5' ||
          node.name[3] == '7') {
        std::multiset<std::int64_t> coeffs;
        for (int b = 0; b < 8; ++b) coeffs.insert(mem->contents[static_cast<std::size_t>(1 << b)]);
        distinct.insert(std::move(coeffs));
      }
    }
  }
  std::printf("\nodd-output ROMs: 4 ROMs carry %zu distinct coefficient multiset(s)\n",
              distinct.size());
  std::printf("(1 = perfect rotation sharing; the paper instantiates 8 Mem clusters anyway)\n\n");

  return bench::run_dct_fig_bench(json, argc, argv, std::move(impl));
}
