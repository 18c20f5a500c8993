// Motion estimation: golden full search properties, the cycle-accurate
// systolic model (Figs 10-11), fast-search variants, and the suspended
// (early-abort) full search.
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"
#include "me/fast_search.hpp"
#include "me/pipeline.hpp"
#include "me/systolic.hpp"
#include "video/metrics.hpp"
#include "video/synthetic.hpp"

namespace dsra::me {
namespace {

video::SyntheticConfig small_config() {
  video::SyntheticConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  cfg.frames = 2;
  cfg.pan_x = 3;
  cfg.pan_y = -2;
  cfg.noise_sigma = 1.0;
  return cfg;
}

TEST(FullSearch, ZeroDisplacementOnIdenticalFrames) {
  Rng rng(3);
  const video::Frame f = video::textured_frame(48, 48, 8, rng);
  const MotionSearchResult r = full_search(f, f, 16, 16, 16, 8);
  EXPECT_EQ(r.mv, (MotionVector{0, 0}));
  EXPECT_EQ(r.sad, 0);
  EXPECT_EQ(r.candidates_evaluated, 17 * 17);
}

TEST(FullSearch, RecoversPureTranslation) {
  // Frame 1 is frame 0 panned by (3, -2): the best match of a block in
  // frame 1 lies at displacement (pan_x, pan_y) in frame 0.
  auto cfg = small_config();
  cfg.objects.clear();
  cfg.noise_sigma = 0.0;
  const auto frames = video::generate_sequence(cfg);
  const MotionSearchResult r = full_search(frames[1], frames[0], 24, 24, 16, 8);
  EXPECT_EQ(r.mv, (MotionVector{cfg.pan_x, cfg.pan_y}));
  EXPECT_EQ(r.sad, 0);
}

TEST(FullSearch, SadIsOptimalOverTheWindow) {
  const auto frames = video::generate_sequence(small_config());
  const MotionSearchResult r = full_search(frames[1], frames[0], 16, 16, 16, 4);
  for (int dy = -4; dy <= 4; ++dy)
    for (int dx = -4; dx <= 4; ++dx)
      EXPECT_LE(r.sad, video::block_sad(frames[1], frames[0], 16, 16, 16, dx, dy));
}

class SystolicVsGolden : public ::testing::TestWithParam<int> {};

TEST_P(SystolicVsGolden, IdenticalMotionVectorsAndSads) {
  // Every block of each frame at every paper block size, which covers
  // the right and bottom edge blocks, the partial blocks odd frame sizes
  // leave and search windows reaching past every border.
  const int range = GetParam();
  const auto order = full_search_order(range);
  const std::pair<int, int> sizes[] = {{64, 64}, {17, 13}, {33, 31}};
  for (const auto& [width, height] : sizes) {
    auto cfg = small_config();
    cfg.width = width;
    cfg.height = height;
    const auto frames = video::generate_sequence(cfg);
    for (const int n : {8, 16, 32}) {
      SystolicParams params;
      params.block = n;
      for (int by = 0; by < height; by += n) {
        for (int bx = 0; bx < width; bx += n) {
          SCOPED_TRACE(::testing::Message() << width << "x" << height << " n=" << n
                                            << " block (" << bx << "," << by << ")");
          const MotionSearchResult golden =
              full_search(frames[1], frames[0], bx, by, n, range);
          const SystolicRun run = systolic_search(frames[1], frames[0], bx, by, range, params);
          EXPECT_EQ(run.result.mv, golden.mv);
          EXPECT_EQ(run.result.sad, golden.sad);
          // Every candidate SAD matches the direct computation.
          ASSERT_EQ(run.all_sads.size(), order.size());
          for (std::size_t k = 0; k < order.size(); ++k)
            ASSERT_EQ(run.all_sads[k], video::block_sad(frames[1], frames[0], bx, by, n,
                                                        order[k].dx, order[k].dy));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, SystolicVsGolden, ::testing::Values(0, 1, 2, 4, 8));

TEST(Systolic, SteadyStateCyclesMatchThePaper) {
  // Paper: "The first round of SAD calculations would take 16 clock
  // cycles" - thereafter one batch of 4 candidates per 16 cycles.
  SystolicParams params;  // 4 x 16
  const std::uint64_t cycles = systolic_cycles_per_block(8, params);
  const std::uint64_t batches = 5 * 17;  // ceil(17/4) bands * 17 dx
  EXPECT_EQ(cycles, batches * 16 + 16 + 4);  // + fill (15 + tree 4 + 1)
}

TEST(Systolic, BandwidthReductionFromModuleOverlap) {
  const auto frames = video::generate_sequence(small_config());
  const SystolicRun run = systolic_search(frames[1], frames[0], 16, 16, 8, {});
  // 4 modules sharing overlapping search rows: 19 rows fetched instead of
  // 64 per full-occupancy batch column (the last, partially idle band
  // dilutes the average, so the overall ratio lands near 0.34).
  EXPECT_LT(run.ref_pixels_fetched * 5, run.ref_pixels_fetched_naive * 2);
  // Current block fetched once for the whole search.
  EXPECT_EQ(run.cur_pixels_fetched, 256u);
  EXPECT_GT(run.pe_utilization, 0.5);
  EXPECT_LE(run.pe_utilization, 1.0);
}

class SystolicBlockSizes : public ::testing::TestWithParam<int> {};

TEST_P(SystolicBlockSizes, MatchesGoldenForAllPaperBlockSizes) {
  // Paper, SAD definition: "N is the size of the block (could be 8, 16 or
  // 32)". The systolic model is parametric in N.
  const int n = GetParam();
  auto cfg = small_config();
  cfg.width = 96;
  cfg.height = 96;
  const auto frames = video::generate_sequence(cfg);
  SystolicParams params;
  params.block = n;
  const MotionSearchResult golden = full_search(frames[1], frames[0], 32, 32, n, 4);
  const SystolicRun run = systolic_search(frames[1], frames[0], 32, 32, 4, params);
  EXPECT_EQ(run.result.mv, golden.mv);
  EXPECT_EQ(run.result.sad, golden.sad);
  // Cycle count scales linearly in N (N cycles per candidate batch).
  EXPECT_EQ(run.cycles, systolic_cycles_per_block(4, params));
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, SystolicBlockSizes, ::testing::Values(8, 16, 32));

TEST(Systolic, UtilizationAccountsForIdleModulesInLastBand) {
  // Range 2 -> 5 dy values over 4 modules -> last band 1/4 occupied.
  const auto frames = video::generate_sequence(small_config());
  const SystolicRun run = systolic_search(frames[1], frames[0], 16, 16, 2, {});
  EXPECT_LT(run.pe_utilization, 0.9);
}

TEST(FastSearch, ThreeStepFindsPureTranslationExactly) {
  auto cfg = small_config();
  cfg.objects.clear();
  cfg.noise_sigma = 0.0;
  const auto frames = video::generate_sequence(cfg);
  const MotionSearchResult r = three_step_search(frames[1], frames[0], 24, 24, 16, 8);
  EXPECT_EQ(r.mv, (MotionVector{cfg.pan_x, cfg.pan_y}));
  // TSS evaluates far fewer candidates than the 289 of full search.
  EXPECT_LT(r.candidates_evaluated, 40);
}

TEST(FastSearch, DiamondFindsPureTranslationExactly) {
  auto cfg = small_config();
  cfg.objects.clear();
  cfg.noise_sigma = 0.0;
  const auto frames = video::generate_sequence(cfg);
  const MotionSearchResult r = diamond_search(frames[1], frames[0], 24, 24, 16, 8);
  EXPECT_EQ(r.mv, (MotionVector{cfg.pan_x, cfg.pan_y}));
}

TEST(FastSearch, FastSadNeverBeatsGolden) {
  const auto frames = video::generate_sequence(small_config());
  for (int bx = 0; bx < 48; bx += 16) {
    const MotionSearchResult golden = full_search(frames[1], frames[0], bx, 16, 16, 8);
    const MotionSearchResult tss = three_step_search(frames[1], frames[0], bx, 16, 16, 8);
    const MotionSearchResult ds = diamond_search(frames[1], frames[0], bx, 16, 16, 8);
    EXPECT_GE(tss.sad, golden.sad);
    EXPECT_GE(ds.sad, golden.sad);
  }
}

TEST(SuspendedSearch, ExactResultWithFewerOperations) {
  const auto frames = video::generate_sequence(small_config());
  for (int bx = 0; bx < 48; bx += 16) {
    const MotionSearchResult golden = full_search(frames[1], frames[0], bx, 32, 16, 8);
    const SuspendedSearchResult s = suspended_full_search(frames[1], frames[0], bx, 32, 16, 8);
    EXPECT_EQ(s.result.mv, golden.mv);
    EXPECT_EQ(s.result.sad, golden.sad);
    EXPECT_GT(s.saved_fraction(), 0.1) << "suspension should skip a meaningful fraction of rows";
  }
}

TEST(Pipeline, FieldComparisonAgainstGoldenIsIdentityForSystolic) {
  const auto frames = video::generate_sequence(small_config());
  const auto golden =
      motion_field(frames[1], frames[0], 16, 4,
                   [](const Frame& c, const Frame& r, int x, int y, int n, int rg) {
                     return full_search(c, r, x, y, n, rg);
                   });
  const auto systolic = motion_field(frames[1], frames[0], 16, 4, systolic_search_fn());
  const FieldComparison cmp = compare_fields(systolic, golden);
  EXPECT_EQ(cmp.identical_mvs, cmp.blocks);
  EXPECT_DOUBLE_EQ(cmp.mean_sad_ratio, 1.0);
}

}  // namespace
}  // namespace dsra::me
