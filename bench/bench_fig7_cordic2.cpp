// Experiment F7 - Fig 7: scaled CORDIC DCT #2 (3 rotators, 20 butterfly
// adders). Demonstrates the paper's claim that "the constant scale factor
// ... can be combined with the quantization constants without requiring
// any extra hardware": quantising the scaled outputs with the folded
// matrix gives the same levels as an exact DCT with the base matrix.
#include "dct_bench_common.hpp"
#include "video/quant.hpp"

int main(int argc, char** argv) {
  using namespace dsra;
  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  auto impl = dct::make_cordic2();

  // Scale-folding demonstration.
  const auto readout = impl->readout();
  std::array<double, 8> g{};
  for (std::size_t u = 0; u < 8; ++u) g[u] = readout[u].scale;
  video::QuantMatrix base = video::QuantMatrix::mpeg_intra(8.0);
  std::array<double, 8> ones{};
  ones.fill(1.0);
  const video::QuantMatrix folded = base.folded(g, ones);

  Rng rng(55);
  int matches = 0, total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    dct::IVec8 x{};
    for (auto& v : x) v = rng.next_range(-128, 127);
    dct::Vec8 xd{};
    for (int i = 0; i < 8; ++i) xd[static_cast<std::size_t>(i)] = static_cast<double>(x[static_cast<std::size_t>(i)]);
    const dct::Vec8 truth = dct::dct8(xd);
    const dct::IVec8 raw = impl->transform(x);
    for (int u = 0; u < 8; ++u) {
      // Scaled output, de-quantised through the folded step.
      const double scaled = impl->to_real(u, raw[static_cast<std::size_t>(u)]) *
                            g[static_cast<std::size_t>(u)];
      const int level_folded =
          static_cast<int>(std::lround(scaled / folded.step[static_cast<std::size_t>(u)][0]));
      const int level_true =
          static_cast<int>(std::lround(truth[static_cast<std::size_t>(u)] /
                                       base.step[static_cast<std::size_t>(u)][0]));
      matches += level_folded == level_true;
      ++total;
    }
  }
  std::printf("scale folding: %d / %d quantised levels identical to exact DCT + base matrix\n\n",
              matches, total);

  return bench::run_dct_fig_bench(json, argc, argv, std::move(impl));
}
