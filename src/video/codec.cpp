#include "video/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/fixed.hpp"

namespace dsra::video {

namespace {

using PixelBlock = dct::PixelBlock;

/// True when the 8x8 block at (bx, by) lies inside @p f, so its rows are
/// read directly instead of pixel by pixel through clamped_at.
bool interior(const Frame& f, int bx, int by) {
  return bx >= 0 && by >= 0 && bx + 8 <= f.width() && by + 8 <= f.height();
}

PixelBlock extract_block(const Frame& f, int bx, int by, int offset) {
  PixelBlock b{};
  if (interior(f, bx, by)) {
    for (std::size_t y = 0; y < 8; ++y) {
      const std::uint8_t* row = f.row(by + static_cast<int>(y)) + bx;
      for (std::size_t x = 0; x < 8; ++x) b[y][x] = static_cast<int>(row[x]) - offset;
    }
    return b;
  }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      b[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
          static_cast<int>(f.clamped_at(bx + x, by + y)) - offset;
  return b;
}

PixelBlock residual_block(const Frame& cur, const Frame& pred, int bx, int by) {
  PixelBlock b{};
  if (interior(cur, bx, by) && interior(pred, bx, by)) {
    for (std::size_t y = 0; y < 8; ++y) {
      const std::uint8_t* c = cur.row(by + static_cast<int>(y)) + bx;
      const std::uint8_t* p = pred.row(by + static_cast<int>(y)) + bx;
      for (std::size_t x = 0; x < 8; ++x) b[y][x] = static_cast<int>(c[x]) - static_cast<int>(p[x]);
    }
    return b;
  }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      b[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
          static_cast<int>(cur.clamped_at(bx + x, by + y)) -
          static_cast<int>(pred.clamped_at(bx + x, by + y));
  return b;
}

/// Copy @p n pixels of row @p y from column @p x0 on, edge-clamped: one
/// direct copy when the span lies inside the frame.
void read_row(const Frame& f, int x0, int y, int n, std::uint8_t* dst) {
  if (x0 >= 0 && x0 + n <= f.width() && y >= 0 && y < f.height()) {
    std::memcpy(dst, f.row(y) + x0, static_cast<std::size_t>(n));
    return;
  }
  for (int x = 0; x < n; ++x) dst[x] = f.clamped_at(x0 + x, y);
}

bool is_intra_ref(const Frame* ref) { return ref == nullptr || ref->width() == 0; }

}  // namespace

ToyEncoder::ToyEncoder(const dct::DctImplementation* impl, MotionSearchFn motion_search,
                       CodecConfig config)
    : impl_(impl), motion_search_(std::move(motion_search)), config_(config),
      quant_(config.use_mpeg_matrix ? QuantMatrix::mpeg_intra(config.quantiser_scale)
                                    : QuantMatrix::flat(config.quantiser_scale)) {}

QBlock ToyEncoder::transform_block(const PixelBlock& block, double& bits) const {
  const dct::Block8x8 coeffs = impl_ != nullptr
                                   ? dct::forward_2d(*impl_, block)
                                   : dct::forward_2d_reference(block);
  const QBlock levels = quantize(coeffs, quant_);
  bits = estimate_block_bits(levels);
  return levels;
}

void ToyEncoder::reconstruct_block(const QBlock& levels,
                                   std::array<std::array<int, 8>, 8>& rb) const {
  const RBlock recon_coeffs = dequantize(levels, quant_);
  const dct::Block8x8 recon_real = dct::idct8x8(recon_coeffs);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      rb[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = static_cast<int>(
          round_half_away(recon_real[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)]));
}

MotionStageResult ToyEncoder::run_motion_stage(const Frame& frame,
                                               const Frame* search_ref) const {
  MotionStageResult out;
  if (is_intra_ref(search_ref)) return out;

  const int mb = config_.me_block;
  out.mvs.reserve(static_cast<std::size_t>(((frame.height() + mb - 1) / mb) *
                                           ((frame.width() + mb - 1) / mb)));
  for (int by = 0; by < frame.height(); by += mb) {
    for (int bx = 0; bx < frame.width(); bx += mb) {
      const MotionSearchResult mr =
          motion_search_(frame, *search_ref, bx, by, mb, config_.me_range);
      out.me_array_cycles += mr.array_cycles;
      out.abs_mv_sum += std::abs(mr.mv.dx) + std::abs(mr.mv.dy);
      ++out.mv_count;
      out.mv_bits += 2.0 * (2.0 * std::floor(std::log2(std::abs(mr.mv.dx) + 1.0)) + 1.0 +
                            2.0 * std::floor(std::log2(std::abs(mr.mv.dy) + 1.0)) + 1.0);
      out.mvs.push_back(mr.mv);
    }
  }
  return out;
}

TransformStageResult ToyEncoder::run_transform_stage(const Frame& frame, const Frame* mc_ref,
                                                     const MotionStageResult& motion) const {
  TransformStageResult out;
  const auto charge_block = [&](const PixelBlock& block) {
    double bits = 0.0;
    out.levels.push_back(transform_block(block, bits));
    out.bits += bits;
    ++out.blocks_coded;
    if (impl_ != nullptr)
      out.dct_array_cycles += static_cast<std::uint64_t>(dct::cycles_for_block(*impl_));
  };

  if (is_intra_ref(mc_ref)) {
    if (!motion.mvs.empty())
      throw std::invalid_argument("intra transform stage given motion vectors");
    out.levels.reserve(static_cast<std::size_t>(((frame.height() + 7) / 8) *
                                                ((frame.width() + 7) / 8)));
    for (int by = 0; by < frame.height(); by += 8)
      for (int bx = 0; bx < frame.width(); bx += 8)
        charge_block(extract_block(frame, bx, by, 128));
    return out;
  }

  const int mb = config_.me_block;
  out.prediction = Frame(frame.width(), frame.height());
  std::size_t mv_index = 0;
  for (int by = 0; by < frame.height(); by += mb) {
    for (int bx = 0; bx < frame.width(); bx += mb) {
      if (mv_index >= motion.mvs.size())
        throw std::invalid_argument("transform stage short of motion vectors");
      const MotionVector mv = motion.mvs[mv_index++];

      // Motion-compensated prediction for this macroblock. Edge-clamped
      // residual reads stay inside the macroblock (a border macroblock
      // reaches the frame edge), so one shared prediction frame matches
      // the per-macroblock prediction bit for bit.
      const int w = std::min(mb, frame.width() - bx);
      for (int y = 0; y < mb && by + y < frame.height(); ++y)
        read_row(*mc_ref, bx + mv.dx, by + y + mv.dy, w, out.prediction.row(by + y) + bx);

      for (int sy = 0; sy < mb; sy += 8)
        for (int sx = 0; sx < mb; sx += 8)
          charge_block(residual_block(frame, out.prediction, bx + sx, by + sy));
    }
  }
  return out;
}

FrameStats ToyEncoder::run_reconstruct_stage(const Frame& frame,
                                             const MotionStageResult& motion,
                                             const TransformStageResult& transform,
                                             Frame& recon) const {
  FrameStats stats;
  recon = Frame(frame.width(), frame.height());
  const bool intra = transform.prediction.width() == 0;
  std::size_t block_index = 0;
  const auto next_levels = [&]() -> const QBlock& {
    if (block_index >= transform.levels.size())
      throw std::invalid_argument("reconstruct stage short of level blocks");
    return transform.levels[block_index++];
  };

  if (intra) {
    for (int by = 0; by < frame.height(); by += 8) {
      for (int bx = 0; bx < frame.width(); bx += 8) {
        std::array<std::array<int, 8>, 8> rb{};
        reconstruct_block(next_levels(), rb);
        for (int y = 0; y < 8; ++y)
          for (int x = 0; x < 8; ++x)
            if (bx + x < frame.width() && by + y < frame.height())
              recon.set(bx + x, by + y,
                        static_cast<std::uint8_t>(std::clamp(
                            rb[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] + 128,
                            0, 255)));
      }
    }
  } else {
    const int mb = config_.me_block;
    for (int by = 0; by < frame.height(); by += mb) {
      for (int bx = 0; bx < frame.width(); bx += mb) {
        for (int sy = 0; sy < mb; sy += 8) {
          for (int sx = 0; sx < mb; sx += 8) {
            std::array<std::array<int, 8>, 8> rb{};
            reconstruct_block(next_levels(), rb);
            for (int y = 0; y < 8; ++y)
              for (int x = 0; x < 8; ++x) {
                const int fx = bx + sx + x, fy = by + sy + y;
                if (fx < frame.width() && fy < frame.height())
                  recon.set(fx, fy,
                            static_cast<std::uint8_t>(std::clamp(
                                static_cast<int>(transform.prediction.at(fx, fy)) +
                                    rb[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)],
                                0, 255)));
              }
          }
        }
      }
    }
  }

  stats.psnr_db = psnr(frame, recon);
  stats.bits = motion.mv_bits + transform.bits;
  stats.dct_array_cycles = transform.dct_array_cycles;
  stats.me_array_cycles = motion.me_array_cycles;
  stats.blocks_coded = transform.blocks_coded;
  stats.mean_abs_mv =
      motion.mv_count > 0 ? motion.abs_mv_sum / motion.mv_count : 0.0;
  return stats;
}

FrameStats ToyEncoder::encode_intra(const Frame& frame, Frame& recon) const {
  const MotionStageResult motion;
  const TransformStageResult transform = run_transform_stage(frame, nullptr, motion);
  return run_reconstruct_stage(frame, motion, transform, recon);
}

FrameStats ToyEncoder::encode_inter(const Frame& frame, const Frame& ref_recon,
                                    Frame& recon) const {
  const MotionStageResult motion = run_motion_stage(frame, &ref_recon);
  const TransformStageResult transform = run_transform_stage(frame, &ref_recon, motion);
  return run_reconstruct_stage(frame, motion, transform, recon);
}

FrameStats ToyEncoder::encode_frame(const Frame& frame, Frame& recon_state) const {
  return encode_frame(frame, nullptr, recon_state);
}

FrameStats ToyEncoder::encode_frame(const Frame& frame, const Frame* search_ref,
                                    Frame& recon_state) const {
  const bool intra = recon_state.width() == 0;
  const MotionStageResult motion = run_motion_stage(
      frame, intra ? nullptr : (is_intra_ref(search_ref) ? &recon_state : search_ref));
  const TransformStageResult transform =
      run_transform_stage(frame, intra ? nullptr : &recon_state, motion);
  Frame out;
  const FrameStats stats = run_reconstruct_stage(frame, motion, transform, out);
  recon_state = std::move(out);
  return stats;
}

std::vector<FrameStats> ToyEncoder::encode_sequence(const std::vector<Frame>& frames) const {
  std::vector<FrameStats> stats;
  Frame recon;
  stats.reserve(frames.size());
  for (const Frame& frame : frames) stats.push_back(encode_frame(frame, recon));
  return stats;
}

}  // namespace dsra::video
