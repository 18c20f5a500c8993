// Experiment F5 - Fig 5: Mixed-ROM DCT (4x4 even/odd matrices, 16-word
// ROMs, input butterflies).
#include "dct_bench_common.hpp"

int main(int argc, char** argv) {
  dsra::BenchJson json(dsra::BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  return dsra::bench::run_dct_fig_bench(json, argc, argv, dsra::dct::make_mixed_rom());
}
