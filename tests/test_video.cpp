// Video substrate: frames, synthetic sequences, metrics, quantisation
// (including the scaled-DCT folding) and the toy encoder loop.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "me/fast_search.hpp"
#include "me/systolic.hpp"
#include "video/codec.hpp"
#include "video/synthetic.hpp"

namespace dsra::video {
namespace {

TEST(Frame, ClampedAccess) {
  Frame f(4, 3);
  f.set(0, 0, 10);
  f.set(3, 2, 99);
  EXPECT_EQ(f.clamped_at(-5, -5), 10);
  EXPECT_EQ(f.clamped_at(100, 100), 99);
  EXPECT_EQ(f.at(3, 2), 99);
}

TEST(Frame, PgmRoundTrip) {
  Rng rng(1);
  const Frame f = textured_frame(24, 16, 4, rng);
  const std::string path = testing::TempDir() + "dsra_frame_test.pgm";
  f.save_pgm(path);
  const Frame g = Frame::load_pgm(path);
  EXPECT_EQ(g.width(), f.width());
  EXPECT_EQ(g.height(), f.height());
  EXPECT_EQ(g.data(), f.data());
  std::remove(path.c_str());
}

TEST(Synthetic, DeterministicFromSeed) {
  SyntheticConfig cfg;
  cfg.frames = 2;
  const auto a = generate_sequence(cfg);
  const auto b = generate_sequence(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].data(), b[i].data());
  cfg.seed += 1;
  const auto c = generate_sequence(cfg);
  EXPECT_NE(a[0].data(), c[0].data());
}

TEST(Synthetic, PanIsVisibleInFrameDifferences) {
  SyntheticConfig cfg;
  cfg.frames = 2;
  cfg.noise_sigma = 0.0;
  cfg.objects.clear();
  const auto frames = generate_sequence(cfg);
  // Frame 1 equals frame 0 shifted by (pan_x, pan_y) in the interior.
  int mismatches = 0;
  for (int y = 10; y < cfg.height - 10; ++y)
    for (int x = 10; x < cfg.width - 10; ++x)
      if (frames[1].at(x, y) != frames[0].at(x + cfg.pan_x, y + cfg.pan_y)) ++mismatches;
  EXPECT_EQ(mismatches, 0);
}

std::string sequence_digest(const std::vector<Frame>& frames) {
  std::string bytes;
  for (const Frame& f : frames) bytes.append(f.data().begin(), f.data().end());
  return fnv1a_hex(bytes);
}

TEST(Synthetic, SequencesMatchTheirRecordedDigests) {
  // Recorded from the generator that rendered the whole panning
  // background before cutting each frame out of it; sampling the same
  // texture only where the frames read it must not move a pixel.
  struct Case {
    int width, height, frames, pan_x, pan_y;
    std::vector<MovingObject> objects;
    const char* digest;
  };
  const std::vector<MovingObject> small = {{2, 3, 8, 6, 1, 0, 45}, {10, 9, 5, 5, -1, -1, -30}};
  const Case cases[] = {
      {96, 96, 5, 2, 1, SyntheticConfig{}.objects, "58070259c03b2818"},
      {16, 16, 100, -3, 1, small, "666c9394568a4d3b"},
      {16, 16, 2000, 2, -1, small, "90e3f86811d1eea9"},
      {40, 24, 7, -2, -3, {}, "85aaddebc75742dd"},
  };
  for (const Case& c : cases) {
    SyntheticConfig cfg;
    cfg.width = c.width;
    cfg.height = c.height;
    cfg.frames = c.frames;
    cfg.pan_x = c.pan_x;
    cfg.pan_y = c.pan_y;
    cfg.objects = c.objects;
    cfg.seed = 77 + static_cast<std::uint64_t>(c.frames);
    const std::vector<Frame> frames = generate_sequence(cfg);
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(c.frames));
    EXPECT_EQ(sequence_digest(frames), c.digest)
        << c.width << "x" << c.height << " x " << c.frames << " frames, pan " << c.pan_x << ","
        << c.pan_y;
  }
}

TEST(Metrics, PsnrBehaviour) {
  Rng rng(2);
  const Frame f = textured_frame(32, 32, 4, rng);
  EXPECT_EQ(psnr(f, f), 99.0);
  Frame noisy = f;
  for (auto& p : noisy.data())
    p = static_cast<std::uint8_t>(std::clamp(static_cast<int>(p) + static_cast<int>(rng.next_range(-5, 5)), 0, 255));
  const double p1 = psnr(f, noisy);
  EXPECT_GT(p1, 25.0);
  EXPECT_LT(p1, 99.0);
}

TEST(Quant, RoundTripErrorBoundedByHalfStep) {
  Rng rng(3);
  const QuantMatrix q = QuantMatrix::flat(4.0);
  RBlock coeffs{};
  for (auto& row : coeffs)
    for (auto& v : row) v = rng.next_double() * 200.0 - 100.0;
  const RBlock back = dequantize(quantize(coeffs, q), q);
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v)
      EXPECT_LE(std::abs(back[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] -
                         coeffs[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)]),
                2.0 + 1e-9);
}

TEST(Quant, MpegMatrixCoarsensHighFrequencies) {
  const QuantMatrix q = QuantMatrix::mpeg_intra(8.0);
  EXPECT_LT(q.step[0][0], q.step[7][7]);
  EXPECT_LT(q.step[0][0], q.step[0][7]);
}

TEST(Quant, FoldedMatrixEqualsScalingTheCoefficients) {
  // Quantising g-scaled coefficients with the folded matrix must give the
  // same levels as quantising true coefficients with the base matrix -
  // the paper's "combined with the quantization constants" claim.
  Rng rng(4);
  const QuantMatrix base = QuantMatrix::mpeg_intra(6.0);
  std::array<double, 8> g_row{}, g_col{};
  for (auto& g : g_row) g = 0.5 + rng.next_double();
  for (auto& g : g_col) g = 0.5 + rng.next_double();
  const QuantMatrix folded = base.folded(g_row, g_col);
  for (int trial = 0; trial < 50; ++trial) {
    RBlock truth{}, scaled{};
    for (int u = 0; u < 8; ++u)
      for (int v = 0; v < 8; ++v) {
        const double x = rng.next_double() * 400.0 - 200.0;
        truth[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = x;
        scaled[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] =
            x * g_row[static_cast<std::size_t>(u)] * g_col[static_cast<std::size_t>(v)];
      }
    EXPECT_EQ(quantize(scaled, folded), quantize(truth, base));
  }
}

TEST(Quant, ZigzagVisitsEveryCellOnce) {
  const auto& order = zigzag_order();
  std::set<std::pair<int, int>> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(order[0], (std::pair<int, int>{0, 0}));
  EXPECT_EQ(order[1], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(order[2], (std::pair<int, int>{1, 0}));
  EXPECT_EQ(order[63], (std::pair<int, int>{7, 7}));
}

TEST(Quant, BitEstimateMonotoneInContent) {
  QBlock empty{};
  QBlock sparse{};
  sparse[0][0] = 5;
  QBlock dense{};
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v) dense[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = 9;
  EXPECT_LT(estimate_block_bits(empty), estimate_block_bits(sparse));
  EXPECT_LT(estimate_block_bits(sparse), estimate_block_bits(dense));
}

TEST(Codec, IntraReconstructionQualityImprovesWithFinerQuantiser) {
  SyntheticConfig scfg;
  scfg.width = 48;
  scfg.height = 48;
  scfg.frames = 1;
  const auto frames = generate_sequence(scfg);

  double prev_psnr = 0.0;
  double prev_bits = 0.0;
  for (const double qs : {16.0, 8.0, 2.0}) {
    CodecConfig cfg;
    cfg.quantiser_scale = qs;
    const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);
    Frame recon;
    const FrameStats stats = enc.encode_intra(frames[0], recon);
    EXPECT_GT(stats.psnr_db, prev_psnr) << "finer quantiser must raise PSNR";
    EXPECT_GT(stats.bits, prev_bits) << "finer quantiser must cost more bits";
    prev_psnr = stats.psnr_db;
    prev_bits = stats.bits;
  }
  EXPECT_GT(prev_psnr, 34.0);
}

TEST(Codec, InterFramesCheaperThanIntraOnPannedContent) {
  SyntheticConfig scfg;
  scfg.width = 64;
  scfg.height = 64;
  scfg.frames = 3;
  const auto frames = generate_sequence(scfg);
  CodecConfig cfg;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);
  const auto stats = enc.encode_sequence(frames);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_LT(stats[1].bits, stats[0].bits) << "motion compensation must pay off";
  EXPECT_GT(stats[1].psnr_db, 28.0);
  EXPECT_GT(stats[1].mean_abs_mv, 0.0) << "panned content has non-zero motion";
}

TEST(Codec, FrameAtATimeMatchesEncodeSequence) {
  SyntheticConfig scfg;
  scfg.width = 48;
  scfg.height = 48;
  scfg.frames = 3;
  const auto frames = generate_sequence(scfg);
  CodecConfig cfg;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);

  const auto batch = enc.encode_sequence(frames);
  Frame recon_state;  // empty -> first encode_frame call is intra
  ASSERT_EQ(batch.size(), frames.size());
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const FrameStats step = enc.encode_frame(frames[k], recon_state);
    EXPECT_DOUBLE_EQ(step.bits, batch[k].bits) << k;
    EXPECT_DOUBLE_EQ(step.psnr_db, batch[k].psnr_db) << k;
    EXPECT_EQ(step.blocks_coded, batch[k].blocks_coded) << k;
  }
}

TEST(Codec, ArrayDctImplementationsMatchReferencePsnrClosely) {
  SyntheticConfig scfg;
  scfg.width = 48;
  scfg.height = 48;
  scfg.frames = 2;
  const auto frames = generate_sequence(scfg);
  CodecConfig cfg;
  const ToyEncoder ref_enc(nullptr, me::systolic_search_fn(), cfg);
  const auto ref_stats = ref_enc.encode_sequence(frames);

  for (const auto& impl : dct::all_implementations(dct::DaPrecision::wide())) {
    const ToyEncoder enc(impl.get(), me::systolic_search_fn(), cfg);
    const auto stats = enc.encode_sequence(frames);
    EXPECT_NEAR(stats[1].psnr_db, ref_stats[1].psnr_db, 0.6) << impl->name();
    EXPECT_GT(stats[1].dct_array_cycles, 0u) << impl->name();
  }
}

}  // namespace
}  // namespace dsra::video
