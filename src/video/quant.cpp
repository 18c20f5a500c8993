#include "video/quant.hpp"

#include <algorithm>
#include <bit>

#include "common/fixed.hpp"

namespace dsra::video {

QuantMatrix QuantMatrix::flat(double s) {
  QuantMatrix q;
  for (auto& row : q.step) row.fill(s);
  return q;
}

QuantMatrix QuantMatrix::mpeg_intra(double quantiser_scale) {
  // Classic MPEG intra weighting (8 at DC rising towards high frequency),
  // normalised so weight(0,0) == 1.
  static const int w[8][8] = {
      {8, 16, 19, 22, 26, 27, 29, 34}, {16, 16, 22, 24, 27, 29, 34, 37},
      {19, 22, 26, 27, 29, 34, 34, 38}, {22, 22, 26, 27, 29, 34, 37, 40},
      {22, 26, 27, 29, 32, 35, 40, 48}, {26, 27, 29, 32, 35, 40, 48, 58},
      {26, 27, 29, 34, 38, 46, 56, 69}, {27, 29, 35, 38, 46, 56, 69, 83}};
  QuantMatrix q;
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v)
      q.step[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] =
          quantiser_scale * w[u][v] / 8.0;
  return q;
}

QuantMatrix QuantMatrix::folded(const std::array<double, 8>& g_row,
                                const std::array<double, 8>& g_col) const {
  QuantMatrix q;
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v)
      q.step[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] =
          step[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] *
          g_row[static_cast<std::size_t>(u)] * g_col[static_cast<std::size_t>(v)];
  return q;
}

QBlock quantize(const RBlock& coeffs, const QuantMatrix& q) {
  QBlock out{};
  for (std::size_t u = 0; u < 8; ++u)
    for (std::size_t v = 0; v < 8; ++v)
      out[u][v] = static_cast<int>(round_half_away(coeffs[u][v] / q.step[u][v]));
  return out;
}

RBlock dequantize(const QBlock& levels, const QuantMatrix& q) {
  RBlock out{};
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v)
      out[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] =
          levels[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] *
          q.step[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
  return out;
}

const std::array<std::pair<int, int>, 64>& zigzag_order() {
  static const auto order = [] {
    std::array<std::pair<int, int>, 64> o{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {
        for (int r = std::min(s, 7); r >= 0 && s - r <= 7; --r) o[idx++] = {r, s - r};
      } else {
        for (int c = std::min(s, 7); c >= 0 && s - c <= 7; --c) o[idx++] = {s - c, c};
      }
    }
    return o;
  }();
  return order;
}

double estimate_block_bits(const QBlock& levels) {
  // Exp-Golomb length of n >= 1: 2 * floor(log2 n) + 1, with floor(log2 n)
  // = bit_width(n) - 1. Every term is a small integer, so the integer sum
  // is the double sum of the same terms.
  const auto golomb_bits = [](std::uint64_t n) {
    return 2 * (static_cast<std::int64_t>(std::bit_width(n)) - 1) + 1;
  };
  // The levels in zig-zag order and a mask of the nonzero ones: the cost
  // loop visits only coded levels, with no per-level branch to mispredict.
  const auto& order = zigzag_order();
  std::array<int, 64> scan{};
  std::uint64_t coded = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    scan[k] = levels[static_cast<std::size_t>(order[k].first)]
                    [static_cast<std::size_t>(order[k].second)];
    coded |= static_cast<std::uint64_t>(scan[k] != 0) << k;
  }
  std::int64_t bits = 4;  // end-of-block marker
  int prev = -1;
  for (; coded != 0; coded &= coded - 1) {
    const int k = std::countr_zero(coded);
    // The zero run before the level, then its magnitude, plus sign.
    const int v = scan[static_cast<std::size_t>(k)];
    const std::uint64_t magnitude =
        v < 0 ? 0 - static_cast<std::uint64_t>(static_cast<std::int64_t>(v))
              : static_cast<std::uint64_t>(v);
    bits += golomb_bits(static_cast<std::uint64_t>(k - prev)) + golomb_bits(magnitude + 1) + 1;
    prev = k;
  }
  return static_cast<double>(bits);
}

}  // namespace dsra::video
