// Further Distributed-Arithmetic computations on the DA array.
//
// Section 2.2 of the paper: "The array for DCT targets Distributed
// Arithmetic calculations, which includes computations like filtering,
// DCT and DWT." This module covers those claims beyond the six DCT
// implementations:
//
//  * DaIdct      - the inverse 8-point DCT as a DA structure (the decoder
//                  side of the mobile-video pipeline);
//  * DaFirFilter - an N-tap FIR filter: tap delay line (registers) +
//                  parallel-to-serial conversion + one LUT/accumulator,
//                  the classic DA filter of White's tutorial [4];
//  * Haar DWT    - one analysis stage built purely from Add-Shift
//                  clusters (butterfly + halving shifts).
#pragma once

#include "dct/da_common.hpp"

namespace dsra::dct {

/// Inverse 8-point DCT on the DA array: x_i = sum_u M[u][i] X_u, i.e. the
/// transposed coefficient matrix through the same shift-register / LUT /
/// accumulator structure as Fig 4.
class DaIdct {
 public:
  explicit DaIdct(DaPrecision precision = DaPrecision::wide());

  /// Bit-accurate inverse transform of raw coefficient words.
  [[nodiscard]] IVec8 inverse(const IVec8& coeffs) const;

  /// Netlist (ports X0..X7 in, x0..x7 out, controls load/en/sub).
  [[nodiscard]] Netlist build_netlist() const;

  [[nodiscard]] int serial_width() const { return round_up_to_element(prec_.input_bits + 2); }
  [[nodiscard]] const DaPrecision& precision() const { return prec_; }

 private:
  DaPrecision prec_;
  std::array<DaLut, kN> luts_;
};

/// N-tap DA FIR filter: y[n] = sum_k h[k] x[n-k].
class DaFirFilter {
 public:
  /// @p taps at most 8 (LUT address width); coefficients |h| < 2.
  DaFirFilter(std::vector<double> taps, DaPrecision precision = DaPrecision::wide());

  /// Filter a sample sequence (bit-accurate fixed-point model); output is
  /// scaled by 2^coeff_frac_bits.
  [[nodiscard]] std::vector<std::int64_t> filter(std::span<const std::int64_t> x) const;

  /// Netlist: tap delay registers, P2S shift registers, one ROM, one
  /// accumulator. Ports: x in, y out, controls load/en/sub.
  [[nodiscard]] Netlist build_netlist() const;

  [[nodiscard]] int tap_count() const { return static_cast<int>(qtaps_.size()); }
  [[nodiscard]] int serial_width() const { return prec_.input_bits; }
  /// advance + load + serial cycles.
  [[nodiscard]] int cycles_per_sample() const { return serial_width() + 2; }

 private:
  DaPrecision prec_;
  std::vector<std::int64_t> qtaps_;
  DaLut lut_;
};

/// One Haar analysis stage over a pair (a, b): approximation s = (a+b)>>1,
/// detail d = a-b, built from two Add-Shift clusters plus a halving shift
/// - the DWT workload of the DA array.
[[nodiscard]] Netlist build_haar_stage_netlist(int width);

/// Reference semantics of the Haar stage (for tests).
[[nodiscard]] std::pair<std::int64_t, std::int64_t> haar_stage(std::int64_t a, std::int64_t b,
                                                               int width);

}  // namespace dsra::dct
