// The host block path's integer forms against the references they replace:
// forward_2d's int32 affine kernel against the per-vector composition
// (compared as raw doubles), which implementations take the kernel, the
// libm-free rounding helper against std::lround / std::llround, and the
// integer bit estimate against its log2 formula.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/fixed.hpp"
#include "common/rng.hpp"
#include "dct/dct2d.hpp"
#include "video/quant.hpp"

namespace dsra::dct {
namespace {

/// 8-bit ROMs holding 8 fraction bits: every implementation has
/// coefficient sums past 127, so some of its ROM words saturate.
DaPrecision saturating_precision() { return {12, 8, 8, 32}; }

struct Labeled {
  std::string label;
  std::unique_ptr<DctImplementation> impl;
};

/// All six implementations at wide, paper and saturating precision, plus
/// Fig 4's exact-label datapath.
std::vector<Labeled> every_implementation() {
  std::vector<Labeled> out;
  for (const auto& [tag, p] : {std::pair{"wide/", DaPrecision::wide()},
                               std::pair{"paper/", DaPrecision::paper()},
                               std::pair{"saturating/", saturating_precision()}})
    for (auto& impl : all_implementations(p)) out.push_back({tag + impl->name(), std::move(impl)});
  out.push_back({"fig4_exact", make_da_basic_fig4_exact()});
  return out;
}

/// True when every ROM of the implementation's netlist is linear: each
/// word is the sum of the single-bit words its address selects.
bool every_rom_linear(const DctImplementation& impl) {
  const Netlist netlist = impl.build_netlist();
  for (const Node& node : netlist.nodes()) {
    const auto* mem = std::get_if<MemCfg>(&node.config);
    if (mem == nullptr) continue;
    for (std::size_t s = 0; s < mem->contents.size(); ++s) {
      std::int64_t sum = 0;
      for (std::size_t bit = 1; bit < mem->contents.size(); bit <<= 1)
        if (s & bit) sum += mem->contents[bit];
      if (sum != mem->contents[s]) return false;
    }
  }
  return true;
}

void expect_kernel_matches_reference(const DctImplementation& impl, const PixelBlock& block,
                                     const std::string& what) {
  const Block8x8 got = forward_2d(impl, block);
  const Block8x8 want = forward_2d_per_vector(impl, block);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << what;
}

PixelBlock filled(int v) {
  PixelBlock b{};
  for (auto& row : b) row.fill(v);
  return b;
}

TEST(DctKernels, KernelTakenExactlyWhereTheDatapathIsAffine) {
  for (const auto& [label, impl] : every_implementation()) {
    SCOPED_TRACE(label);
    const bool taken = impl->affine_kernel() != nullptr;
    // The six paper-precision datapaths keep every coefficient sum inside
    // their 8-bit ROM words, so they are affine like the wide ones.
    if (label.starts_with("wide/") || label.starts_with("paper/")) {
      EXPECT_TRUE(taken);
      EXPECT_TRUE(every_rom_linear(*impl));
    }
    if (label.starts_with("saturating/")) {
      EXPECT_FALSE(every_rom_linear(*impl));
      EXPECT_FALSE(taken);
    }
    // Truncating shift-accumulators are not affine, although the ROMs are.
    if (label == "fig4_exact") {
      EXPECT_TRUE(every_rom_linear(*impl));
      EXPECT_FALSE(taken);
    }
  }
}

TEST(DctKernels, KernelReproducesTheTransformOnItsInputRange) {
  Rng rng(2201);
  for (const auto& [label, impl] : every_implementation()) {
    const AffineKernel* k = impl->affine_kernel();
    if (k == nullptr) continue;
    SCOPED_TRACE(label);
    const std::int64_t hi = (1ll << (impl->precision().input_bits - 1)) - 1;
    for (int trial = 0; trial < 500; ++trial) {
      IVec8 x{};
      for (auto& v : x) v = trial == 0 ? hi : trial == 1 ? -hi - 1 : rng.next_range(-hi - 1, hi);
      const IVec8 want = impl->transform(x);
      for (std::size_t u = 0; u < kN; ++u) {
        std::int64_t raw = k->bias[u];
        for (std::size_t i = 0; i < kN; ++i) raw += k->column[i][u] * x[i];
        ASSERT_EQ(raw, want[u]) << "output " << u << " trial " << trial;
      }
    }
  }
}

TEST(DctKernels, ForwardEqualsPerVectorReferenceOnRandomBlocks) {
  for (const auto& [label, impl] : every_implementation()) {
    Rng rng(2202);
    for (int trial = 0; trial < 600; ++trial) {
      // Residual-sized samples, then the whole 12-bit input range, which
      // saturates the transpose buffer and makes rounding ties common.
      const int hi = trial < 400 ? 255 : 2047;
      PixelBlock block{};
      for (auto& row : block)
        for (auto& v : row) v = static_cast<int>(rng.next_range(-hi - 1, hi));
      expect_kernel_matches_reference(*impl, block, label + " trial " + std::to_string(trial));
    }
  }
}

TEST(DctKernels, ForwardEqualsPerVectorReferenceOnExtremeBlocks) {
  std::vector<std::pair<std::string, PixelBlock>> blocks = {
      {"all +255", filled(255)},   {"all -255", filled(-255)},
      {"all +2047", filled(2047)}, {"all -2048", filled(-2048)},
  };
  PixelBlock checker{}, checker_inv{};
  for (std::size_t r = 0; r < kN; ++r)
    for (std::size_t c = 0; c < kN; ++c) {
      checker[r][c] = (r + c) % 2 == 0 ? 255 : -255;
      checker_inv[r][c] = -checker[r][c];
    }
  blocks.emplace_back("checkerboard", checker);
  blocks.emplace_back("inverse checkerboard", checker_inv);
  for (std::size_t r = 0; r < kN; ++r)
    for (std::size_t c = 0; c < kN; ++c)
      for (const int v : {255, -255, 1, -1}) {
        PixelBlock impulse{};
        impulse[r][c] = v;
        blocks.emplace_back("impulse " + std::to_string(v) + " at " + std::to_string(r) + "," +
                                std::to_string(c),
                            impulse);
      }
  for (const auto& [label, impl] : every_implementation())
    for (const auto& [what, block] : blocks)
      expect_kernel_matches_reference(*impl, block, label + " " + what);
}

TEST(DctKernels, SaturatingBlocksSaturateTheTransposeBuffer) {
  // The premise of the extreme-block cases: an all-255 row's DC, stored
  // with two fraction bits, overflows a 12-bit transpose word, so pass 2
  // sees saturated inputs.
  const auto impl = make_mixed_rom();
  IVec8 row{};
  row.fill(255);
  const double dc = impl->transform_real(row)[0];
  EXPECT_GT(std::llround(dc * 4.0), (1 << (impl->precision().input_bits - 1)) - 1);
}

TEST(DctKernels, OutOfRangeBlocksTakeThePerVectorPath) {
  Rng rng(2203);
  for (const auto& [label, impl] : every_implementation()) {
    for (int trial = 0; trial < 40; ++trial) {
      PixelBlock block{};
      for (auto& row : block)
        for (auto& v : row) v = static_cast<int>(rng.next_range(-255, 255));
      block[rng.next_below(kN)][rng.next_below(kN)] = trial % 2 == 0 ? 5000 : -5000;
      expect_kernel_matches_reference(*impl, block, label + " trial " + std::to_string(trial));
    }
    expect_kernel_matches_reference(*impl, filled(5000), label + " all +5000");
    expect_kernel_matches_reference(*impl, filled(-5000), label + " all -5000");
  }
}

TEST(DctKernels, ConcurrentFirstUseDerivesOneKernel) {
  const auto impl = make_cordic2();
  PixelBlock block{};
  for (std::size_t r = 0; r < kN; ++r)
    for (std::size_t c = 0; c < kN; ++c) block[r][c] = static_cast<int>(r * 31 + c * 7) - 128;
  const Block8x8 want = forward_2d_per_vector(*impl, block);
  std::vector<Block8x8> got(4);
  std::vector<const AffineKernel*> kernels(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      got[t] = forward_2d(*impl, block);
      kernels[t] = impl->affine_kernel();
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(std::memcmp(&got[t], &want, sizeof want), 0) << "thread " << t;
    EXPECT_EQ(kernels[t], kernels[0]);
  }
  EXPECT_NE(kernels[0], nullptr);
}

// --- libm-free rounding --------------------------------------------------

void expect_rounds_like_libm(double x) {
  EXPECT_EQ(round_half_away(x), std::llround(x)) << std::hexfloat << x;
  EXPECT_EQ(round_half_away(x), std::lround(x)) << std::hexfloat << x;
}

TEST(RoundHalfAway, EqualsLibmOnTiesAndTheirNeighbours) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ks;
  for (int k = 0; k <= 1100; ++k) ks.push_back(k);
  for (const double k : {0x1p20, 0x1p31, 0x1p40, 0x1p51 - 1, 0x1p51}) ks.push_back(k);
  for (const double k : ks)
    for (const double sign : {1.0, -1.0}) {
      const double tie = sign * (k + 0.5);
      expect_rounds_like_libm(tie);
      expect_rounds_like_libm(std::nextafter(tie, inf));
      expect_rounds_like_libm(std::nextafter(tie, -inf));
      expect_rounds_like_libm(sign * k);
    }
}

TEST(RoundHalfAway, EqualsLibmOnZerosAndAtTheExactnessEdge) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
                         0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p52 - 1.0, -(0x1p52 - 1.0), 0x1p52,
                         -0x1p52, 0x1p52 + 1.0, -(0x1p52 + 1.0), 0x1p53, -0x1p53, 0x1p53 + 2.0,
                         0x1p62, -0x1p62}) {
    expect_rounds_like_libm(x);
    expect_rounds_like_libm(std::nextafter(x, inf));
    expect_rounds_like_libm(std::nextafter(x, -inf));
  }
}

TEST(RoundHalfAway, EqualsLibmOnRandomValues) {
  Rng rng(2204);
  for (int trial = 0; trial < 200000; ++trial) {
    const double scale = std::ldexp(1.0, static_cast<int>(rng.next_below(60)));
    expect_rounds_like_libm((rng.next_double() - 0.5) * scale);
  }
}

}  // namespace
}  // namespace dsra::dct

namespace dsra::video {
namespace {

/// The bit estimate as written before the integer form: Exp-Golomb
/// lengths through std::log2, summed in double.
double log2_block_bits(const QBlock& levels) {
  double bits = 0.0;
  int run = 0;
  for (const auto& [r, c] : zigzag_order()) {
    const int v = levels[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    if (v == 0) {
      ++run;
      continue;
    }
    bits += 2.0 * std::floor(std::log2(run + 1.0)) + 1.0;
    bits += 2.0 * std::floor(std::log2(std::abs(v) + 1.0)) + 1.0;
    bits += 1.0;
    run = 0;
  }
  return bits + 4.0;
}

TEST(BlockBits, IntegerEstimateEqualsLog2Formula) {
  Rng rng(2205);
  for (int trial = 0; trial < 20000; ++trial) {
    QBlock levels{};
    const double density = rng.next_double();
    const int max_bits = 1 + static_cast<int>(rng.next_below(21));  // |v| up to 2^20
    for (auto& row : levels)
      for (auto& v : row) {
        if (!rng.next_bool(density)) continue;
        const std::int64_t hi = 1ll << (max_bits - 1);
        v = static_cast<int>(rng.next_range(-hi, hi));
      }
    ASSERT_EQ(estimate_block_bits(levels), log2_block_bits(levels)) << "trial " << trial;
  }
}

TEST(BlockBits, IntegerEstimateEqualsLog2FormulaAtPowerOfTwoEdges) {
  for (int k = 0; k <= 20; ++k)
    for (const int delta : {-2, -1, 0, 1}) {
      const int mag = (1 << k) + delta;
      if (mag <= 0) continue;
      QBlock levels{};
      levels[0][0] = mag;
      levels[7][7] = -mag;
      levels[3][4] = mag;
      ASSERT_EQ(estimate_block_bits(levels), log2_block_bits(levels)) << mag;
    }
  QBlock none{}, all{};
  for (auto& row : all) row.fill(-3);
  EXPECT_EQ(estimate_block_bits(none), log2_block_bits(none));
  EXPECT_EQ(estimate_block_bits(all), log2_block_bits(all));
}

TEST(Quantize, EqualsLroundOfTheQuotient) {
  Rng rng(2206);
  for (const double scale : {8.0, 16.0, 5.5, 13.7}) {
    const QuantMatrix q = QuantMatrix::mpeg_intra(scale);
    for (int trial = 0; trial < 2000; ++trial) {
      RBlock coeffs{};
      for (std::size_t u = 0; u < 8; ++u)
        for (std::size_t v = 0; v < 8; ++v) {
          // Every fourth coefficient sits on a rounding tie of its step.
          const double level = static_cast<double>(rng.next_range(-300, 300));
          coeffs[u][v] = (trial + u + v) % 4 == 0 ? (level + 0.5) * q.step[u][v]
                                                  : (rng.next_double() - 0.5) * 4000.0;
        }
      const QBlock got = quantize(coeffs, q);
      for (std::size_t u = 0; u < 8; ++u)
        for (std::size_t v = 0; v < 8; ++v)
          ASSERT_EQ(got[u][v], static_cast<int>(std::lround(coeffs[u][v] / q.step[u][v])))
              << scale << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace dsra::video
