// Fixed-point (Q-format) helpers used by the Distributed-Arithmetic DCT
// implementations: coefficient quantisation and scaling utilities.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ints.hpp"

namespace dsra {

/// Quantise @p value to a signed fixed-point integer with @p frac_bits
/// fractional bits (round to nearest, ties away from zero).
[[nodiscard]] inline std::int64_t to_fixed(double value, int frac_bits) {
  return static_cast<std::int64_t>(std::llround(value * static_cast<double>(1ll << frac_bits)));
}

/// std::llround without the libm call: round to nearest, ties away from
/// zero. For every finite |x| < 2^52 the truncating conversion and the
/// remainder x - trunc(x) are exact, so comparing that remainder with
/// +/-0.5 gives std::llround's result (and std::lround's where long is 64
/// bits). Larger magnitudes, infinities and NaN go to std::llround.
[[nodiscard]] inline std::int64_t round_half_away(double x) {
  if (!(std::fabs(x) < 0x1p52)) return std::llround(x);
  const auto t = static_cast<std::int64_t>(x);
  const double rem = x - static_cast<double>(t);
  return t + (rem >= 0.5 ? 1 : 0) - (rem <= -0.5 ? 1 : 0);
}

/// Convert a fixed-point integer with @p frac_bits fractional bits to double.
[[nodiscard]] inline double from_fixed(std::int64_t v, int frac_bits) {
  return static_cast<double>(v) / static_cast<double>(1ll << frac_bits);
}

/// Quantise a coefficient vector to Q(frac_bits).
[[nodiscard]] inline std::vector<std::int64_t> quantize_coeffs(const std::vector<double>& c,
                                                               int frac_bits) {
  std::vector<std::int64_t> out;
  out.reserve(c.size());
  for (double v : c) out.push_back(to_fixed(v, frac_bits));
  return out;
}

/// Scale a fixed-point accumulator back to integer domain with rounding:
/// (v + half) >> frac_bits, with correct behaviour for negative v.
[[nodiscard]] inline std::int64_t round_shift(std::int64_t v, int frac_bits) {
  if (frac_bits == 0) return v;
  const std::int64_t half = 1ll << (frac_bits - 1);
  return (v + half) >> frac_bits;
}

/// Maximum absolute quantisation error of a Q(frac_bits) coefficient.
[[nodiscard]] inline double coeff_quant_error(int frac_bits) {
  return 0.5 / static_cast<double>(1ll << frac_bits);
}

}  // namespace dsra
