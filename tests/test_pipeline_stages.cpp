// Stage-split encode pipeline: bit-exact equivalence between the
// monolithic frame encode and the ME -> DCT/quant -> reconstruct stage
// decomposition, across synthetic sequences, quantiser scales and DCT
// array implementations; and the encoder's output pinned to recorded
// digests for every DCT implementation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/report.hpp"
#include "me/systolic.hpp"
#include "video/codec.hpp"
#include "video/synthetic.hpp"

namespace dsra::video {
namespace {

std::vector<Frame> sequence(int size, int frames, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.frames = frames;
  cfg.seed = seed;
  return generate_sequence(cfg);
}

void expect_stats_identical(const FrameStats& a, const FrameStats& b, int frame) {
  EXPECT_DOUBLE_EQ(a.psnr_db, b.psnr_db) << "frame " << frame;
  EXPECT_DOUBLE_EQ(a.bits, b.bits) << "frame " << frame;
  EXPECT_EQ(a.dct_array_cycles, b.dct_array_cycles) << "frame " << frame;
  EXPECT_EQ(a.me_array_cycles, b.me_array_cycles) << "frame " << frame;
  EXPECT_EQ(a.blocks_coded, b.blocks_coded) << "frame " << frame;
  EXPECT_DOUBLE_EQ(a.mean_abs_mv, b.mean_abs_mv) << "frame " << frame;
}

/// Drive a sequence through the stages by hand (open-loop ME against the
/// previous original frame) and through the monolithic encode_frame
/// wrapper; both must agree bit for bit, per frame.
void expect_stage_split_matches_monolithic(const ToyEncoder& enc,
                                           const std::vector<Frame>& frames) {
  Frame mono_recon;
  Frame staged_recon;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const Frame* search_ref = k > 0 ? &frames[k - 1] : nullptr;
    const FrameStats mono = enc.encode_frame(frames[k], search_ref, mono_recon);

    const MotionStageResult motion = enc.run_motion_stage(frames[k], search_ref);
    const TransformStageResult transform = enc.run_transform_stage(
        frames[k], k > 0 ? &staged_recon : nullptr, motion);
    Frame out;
    const FrameStats staged = enc.run_reconstruct_stage(frames[k], motion, transform, out);
    staged_recon = std::move(out);

    expect_stats_identical(mono, staged, static_cast<int>(k));
    EXPECT_EQ(mono_recon.data(), staged_recon.data()) << "frame " << k;
  }
}

TEST(PipelineStages, BitExactAcrossQuantiserScales) {
  const auto frames = sequence(48, 4, 99);
  for (const double qs : {16.0, 8.0, 2.0}) {
    CodecConfig cfg;
    cfg.quantiser_scale = qs;
    cfg.me_range = 4;
    const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);
    SCOPED_TRACE(qs);
    expect_stage_split_matches_monolithic(enc, frames);
  }
}

TEST(PipelineStages, BitExactAcrossArrayImplementations) {
  const auto frames = sequence(32, 3, 123);
  CodecConfig cfg;
  cfg.me_range = 4;
  for (const auto& impl : dct::all_implementations(dct::DaPrecision::wide())) {
    const ToyEncoder enc(impl.get(), me::systolic_search_fn(), cfg);
    SCOPED_TRACE(impl->name());
    expect_stage_split_matches_monolithic(enc, frames);
  }
}

TEST(PipelineStages, ClosedLoopEncodeInterEqualsItsStages) {
  const auto frames = sequence(48, 2, 7);
  CodecConfig cfg;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);

  Frame intra_recon;
  enc.encode_intra(frames[0], intra_recon);

  Frame inter_recon;
  const FrameStats wrapped = enc.encode_inter(frames[1], intra_recon, inter_recon);

  const MotionStageResult motion = enc.run_motion_stage(frames[1], &intra_recon);
  const TransformStageResult transform =
      enc.run_transform_stage(frames[1], &intra_recon, motion);
  Frame staged_recon;
  const FrameStats staged =
      enc.run_reconstruct_stage(frames[1], motion, transform, staged_recon);

  expect_stats_identical(wrapped, staged, 1);
  EXPECT_EQ(inter_recon.data(), staged_recon.data());
}

TEST(PipelineStages, IntraStagesMatchEncodeIntra) {
  const auto frames = sequence(40, 1, 11);
  CodecConfig cfg;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);

  Frame wrapped_recon;
  const FrameStats wrapped = enc.encode_intra(frames[0], wrapped_recon);

  const MotionStageResult motion = enc.run_motion_stage(frames[0], nullptr);
  EXPECT_TRUE(motion.mvs.empty());
  EXPECT_EQ(motion.me_array_cycles, 0u);
  const TransformStageResult transform = enc.run_transform_stage(frames[0], nullptr, motion);
  EXPECT_EQ(transform.prediction.width(), 0);
  Frame staged_recon;
  const FrameStats staged =
      enc.run_reconstruct_stage(frames[0], motion, transform, staged_recon);

  expect_stats_identical(wrapped, staged, 0);
  EXPECT_EQ(wrapped_recon.data(), staged_recon.data());
}

TEST(PipelineStages, StageResultsHaveExpectedShape) {
  const auto frames = sequence(48, 2, 3);
  CodecConfig cfg;
  cfg.me_block = 16;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);

  const MotionStageResult motion = enc.run_motion_stage(frames[1], &frames[0]);
  EXPECT_EQ(motion.mvs.size(), 9u);  // 48/16 = 3 macroblocks per side
  EXPECT_EQ(motion.mv_count, 9);
  EXPECT_GT(motion.me_array_cycles, 0u);

  const TransformStageResult transform = enc.run_transform_stage(frames[1], &frames[0], motion);
  EXPECT_EQ(transform.levels.size(), 36u);  // 48/8 = 6 blocks per side
  EXPECT_EQ(transform.blocks_coded, 36);
  EXPECT_EQ(transform.prediction.width(), 48);
}

TEST(PipelineStages, StageContractViolationsThrow) {
  const auto frames = sequence(32, 2, 5);
  CodecConfig cfg;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);
  const MotionStageResult motion = enc.run_motion_stage(frames[1], &frames[0]);

  // Inter motion vectors handed to the intra transform path.
  EXPECT_THROW((void)enc.run_transform_stage(frames[1], nullptr, motion),
               std::invalid_argument);

  // Reconstruct stage fed fewer level blocks than the frame needs.
  TransformStageResult truncated = enc.run_transform_stage(frames[1], &frames[0], motion);
  truncated.levels.resize(truncated.levels.size() / 2);
  Frame recon;
  EXPECT_THROW((void)enc.run_reconstruct_stage(frames[1], motion, truncated, recon),
               std::invalid_argument);
}

/// Interleaving the stage calls of two independent streams must not
/// change either stream's output: the encoder is stateless and all
/// per-frame state travels in the stage results.
TEST(PipelineStages, InterleavedStreamsStayIsolated) {
  const auto a_frames = sequence(32, 3, 21);
  const auto b_frames = sequence(32, 3, 42);
  CodecConfig cfg;
  const ToyEncoder enc(nullptr, me::systolic_search_fn(), cfg);

  // Sequential reference.
  Frame a_ref_recon, b_ref_recon;
  std::vector<FrameStats> a_ref, b_ref;
  for (std::size_t k = 0; k < a_frames.size(); ++k)
    a_ref.push_back(
        enc.encode_frame(a_frames[k], k > 0 ? &a_frames[k - 1] : nullptr, a_ref_recon));
  for (std::size_t k = 0; k < b_frames.size(); ++k)
    b_ref.push_back(
        enc.encode_frame(b_frames[k], k > 0 ? &b_frames[k - 1] : nullptr, b_ref_recon));

  // Interleaved stage execution: B's ME runs between A's stages.
  Frame a_recon, b_recon;
  for (std::size_t k = 0; k < a_frames.size(); ++k) {
    const MotionStageResult a_me =
        enc.run_motion_stage(a_frames[k], k > 0 ? &a_frames[k - 1] : nullptr);
    const MotionStageResult b_me =
        enc.run_motion_stage(b_frames[k], k > 0 ? &b_frames[k - 1] : nullptr);
    const TransformStageResult a_tq =
        enc.run_transform_stage(a_frames[k], k > 0 ? &a_recon : nullptr, a_me);
    const TransformStageResult b_tq =
        enc.run_transform_stage(b_frames[k], k > 0 ? &b_recon : nullptr, b_me);
    Frame a_out, b_out;
    const FrameStats a_stats = enc.run_reconstruct_stage(a_frames[k], a_me, a_tq, a_out);
    const FrameStats b_stats = enc.run_reconstruct_stage(b_frames[k], b_me, b_tq, b_out);
    a_recon = std::move(a_out);
    b_recon = std::move(b_out);
    expect_stats_identical(a_stats, a_ref[k], static_cast<int>(k));
    expect_stats_identical(b_stats, b_ref[k], static_cast<int>(k));
  }
  EXPECT_EQ(a_recon.data(), a_ref_recon.data());
  EXPECT_EQ(b_recon.data(), b_ref_recon.data());
}

/// Append the object representation of @p v to a digest buffer.
template <typename T>
void append_bytes(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Encode three frame shapes through @p impl (null: the double reference
/// DCT) at three quantiser scales, four frames each, intra then open-loop
/// inter: 64x64, plus 37x19 and 24x40 for edge blocks and partial
/// macroblocks. Scale 16 is one admission QP bump over the default 8;
/// 5.5 gives non-integer steps. The digest covers the bytes of every
/// FrameStats field, every level and every reconstruction byte.
std::string encoder_digest(const dct::DctImplementation* impl) {
  std::string bytes;
  for (const auto& [w, h] : {std::pair{64, 64}, std::pair{37, 19}, std::pair{24, 40}}) {
    SyntheticConfig sc;
    sc.width = w;
    sc.height = h;
    sc.frames = 4;
    sc.seed = 2200 + static_cast<std::uint64_t>(w);
    const auto frames = generate_sequence(sc);
    for (const double qs : {8.0, 16.0, 5.5}) {
      CodecConfig cfg;
      cfg.quantiser_scale = qs;
      cfg.me_range = 4;
      const ToyEncoder enc(impl, me::systolic_search_fn(), cfg);
      Frame state;
      for (std::size_t k = 0; k < frames.size(); ++k) {
        const Frame* search_ref = k > 0 ? &frames[k - 1] : nullptr;
        // The levels encode_frame codes: its own stages on the same state.
        const MotionStageResult motion = enc.run_motion_stage(frames[k], search_ref);
        const TransformStageResult transform =
            enc.run_transform_stage(frames[k], k > 0 ? &state : nullptr, motion);
        const FrameStats s = enc.encode_frame(frames[k], search_ref, state);
        append_bytes(bytes, s.psnr_db);
        append_bytes(bytes, s.bits);
        append_bytes(bytes, s.dct_array_cycles);
        append_bytes(bytes, s.me_array_cycles);
        append_bytes(bytes, s.blocks_coded);
        append_bytes(bytes, s.mean_abs_mv);
        for (const QBlock& levels : transform.levels)
          for (const auto& row : levels)
            for (const int v : row) append_bytes(bytes, v);
        bytes.append(state.data().begin(), state.data().end());
      }
    }
  }
  return fnv1a_hex(bytes);
}

/// The encoder's output for every DCT implementation, recorded before the
/// block path gained its integer kernels and libm-free rounding: any
/// change to the transform, quantiser, bit estimate or reconstruction
/// that moves one bit of output moves a digest here.
TEST(EncoderPin, EveryImplementationEncodesAsRecorded) {
  const std::map<std::string, std::string> recorded = {
      {"wide/da_basic", "a152acdfc2abb135"},      {"wide/mixed_rom", "e5e300029548073d"},
      {"wide/cordic1", "e5e300029548073d"},       {"wide/cordic2", "1de5ab950ddbcc48"},
      {"wide/scc_even_odd", "e5e300029548073d"},  {"wide/scc_full", "a152acdfc2abb135"},
      {"paper/da_basic", "297086baa9508903"},     {"paper/mixed_rom", "04fc4f79b56063a7"},
      {"paper/cordic1", "04fc4f79b56063a7"},      {"paper/cordic2", "180b39e247166b1a"},
      {"paper/scc_even_odd", "04fc4f79b56063a7"}, {"paper/scc_full", "297086baa9508903"},
      {"fig4_exact", "fa546de81584a28f"},         {"reference", "0aa132742407ca4f"},
  };
  std::vector<std::pair<std::string, std::unique_ptr<dct::DctImplementation>>> impls;
  for (auto& impl : dct::all_implementations(dct::DaPrecision::wide()))
    impls.emplace_back("wide/" + impl->name(), std::move(impl));
  for (auto& impl : dct::all_implementations(dct::DaPrecision::paper()))
    impls.emplace_back("paper/" + impl->name(), std::move(impl));
  impls.emplace_back("fig4_exact", dct::make_da_basic_fig4_exact());
  impls.emplace_back("reference", nullptr);
  for (const auto& [label, impl] : impls) {
    const auto it = recorded.find(label);
    EXPECT_EQ(encoder_digest(impl.get()), it != recorded.end() ? it->second : "") << label;
  }
}

}  // namespace
}  // namespace dsra::video
