#include "dct/dct2d.hpp"

#include <bit>
#include <cmath>

#include "common/fixed.hpp"
#include "common/ints.hpp"

namespace dsra::dct {

namespace {

constexpr double kPass2Scale = 1 << kPass2FracBits;

bool fits_input(const PixelBlock& block, int in_bits) {
  bool fits = true;
  for (const auto& row : block)
    for (const int v : row) fits &= fits_signed(v, in_bits);
  return fits;
}

/// One output's readout, specialised for the block kernel. Where the scale
/// is 1 and frac > kPass2FracBits, raw / 2^frac * 2^kPass2FracBits is
/// exact, so std::llround of it is a round-half-away shift of the integer,
/// and the second pass's raw / 2^frac / 2^kPass2FracBits is one exact
/// multiply. Elsewhere (CORDIC #2's scaled X0/X4) the per-vector double
/// expressions run in their own order.
struct KernelReadout {
  Readout r;
  bool integer = false;
  int shift = 0;
  std::int64_t half = 0;
  double unit = 0.0;  ///< 2^-(frac + kPass2FracBits), built from its exponent bits

  KernelReadout() = default;
  explicit KernelReadout(const Readout& readout)
      : r(readout), integer(r.scale == 1.0 && r.frac_bits > kPass2FracBits),
        shift(r.frac_bits - kPass2FracBits), half(integer ? 1ll << (shift - 1) : 0),
        unit(std::bit_cast<double>(static_cast<std::uint64_t>(1023 - r.frac_bits - kPass2FracBits)
                                   << 52)) {}

  /// The transpose-buffer word, before saturation: llround(to_real(raw) * 4).
  [[nodiscard]] std::int64_t to_pass2(std::int32_t raw) const {
    if (!integer) return round_half_away(r.to_real(raw) * kPass2Scale);
    // Ties away from zero without a branch on the sign: a negative v adds
    // half - 1, so the floor of the shift rounds its magnitude half up.
    const std::int64_t v = raw - r.offset;
    return (v + half + (v >> 63)) >> shift;
  }

  /// The second pass's coefficient: to_real(raw) / 4.
  [[nodiscard]] double to_output(std::int32_t raw) const {
    if (!integer) return r.to_real(raw) / kPass2Scale;
    return static_cast<double>(raw - r.offset) * unit;
  }
};

Block8x8 forward_2d_kernel(const AffineKernel& k, int in_bits, const PixelBlock& block) {
  std::array<KernelReadout, kN> ro;
  for (std::size_t u = 0; u < kN; ++u) ro[u] = KernelReadout(k.readout[u]);

  // raw[u] = bias[u] + sum_i m[u][i] * x[i]: one input scales a row of
  // outputs, so the inner loop vectorises over u.
  const auto raw_of = [&k](const auto& x) {
    std::array<std::int32_t, kN> raw = k.bias;
    for (std::size_t i = 0; i < kN; ++i) {
      const auto xi = static_cast<std::int16_t>(x[i]);
      for (std::size_t u = 0; u < kN; ++u) raw[u] += k.column[i][u] * xi;
    }
    return raw;
  };

  // Pass 1: rows. t[u][r] is the transpose buffer's word for row r's
  // output u, saturated to the input width.
  std::array<std::array<std::int32_t, kN>, kN> t{};
  for (std::size_t r = 0; r < kN; ++r) {
    const std::array<std::int32_t, kN> raw = raw_of(block[r]);
    for (std::size_t u = 0; u < kN; ++u)
      t[u][r] = static_cast<std::int32_t>(saturate_to_width(ro[u].to_pass2(raw[u]), in_bits));
  }

  // Pass 2: columns; column c's inputs are t[c][0..7].
  Block8x8 out{};
  for (std::size_t c = 0; c < kN; ++c) {
    const std::array<std::int32_t, kN> raw = raw_of(t[c]);
    for (std::size_t u = 0; u < kN; ++u) out[u][c] = ro[u].to_output(raw[u]);
  }
  return out;
}

}  // namespace

Block8x8 forward_2d(const DctImplementation& impl, const PixelBlock& block) {
  const AffineKernel* k = impl.affine_kernel();
  const int in_bits = impl.precision().input_bits;
  if (k == nullptr || !fits_input(block, in_bits)) return forward_2d_per_vector(impl, block);
  return forward_2d_kernel(*k, in_bits, block);
}

Block8x8 forward_2d_per_vector(const DctImplementation& impl, const PixelBlock& block) {
  const int in_bits = impl.precision().input_bits;

  // Pass 1: rows.
  Block8x8 inter{};
  for (std::size_t r = 0; r < kN; ++r) {
    IVec8 row{};
    for (std::size_t c = 0; c < kN; ++c) row[c] = block[r][c];
    inter[r] = impl.transform_real(row);
  }

  // Transpose buffer: store with kPass2FracBits fraction bits, saturated
  // to the implementation's input width (as the RAM-mode Mem cluster does).
  Block8x8 out{};
  for (std::size_t c = 0; c < kN; ++c) {
    IVec8 col{};
    for (std::size_t r = 0; r < kN; ++r)
      col[r] = saturate_to_width(static_cast<std::int64_t>(std::llround(inter[r][c] * kPass2Scale)),
                                 in_bits);
    const Vec8 y = impl.transform_real(col);
    for (std::size_t r = 0; r < kN; ++r) out[r][c] = y[r] / kPass2Scale;
  }
  return out;
}

int cycles_for_block(const DctImplementation& impl) {
  // 8 row transforms + 8 column transforms + 8 transpose-buffer writes.
  return 16 * impl.cycles_per_transform() + kN;
}

Block8x8 forward_2d_reference(const PixelBlock& block) {
  Block8x8 b{};
  for (std::size_t r = 0; r < kN; ++r)
    for (std::size_t c = 0; c < kN; ++c) b[r][c] = static_cast<double>(block[r][c]);
  return dct8x8(b);
}

}  // namespace dsra::dct
