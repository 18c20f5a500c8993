// Shared Distributed-Arithmetic machinery (paper section 3.1).
//
// DA replaces multiplications by fixed coefficients with look-up tables and
// shift-accumulators: serialised input bits form the LUT address, and the
// accumulator weights each looked-up partial sum by its bit position
// (MSB-first: acc <- 2*acc +/- lut[addr], the MSB cycle subtracting for
// two's complement). These helpers build LUTs from quantised coefficients
// and evaluate them exactly as the array hardware does, so the functional
// models are bit-identical to the mapped netlists.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/netlist.hpp"
#include "core/sim.hpp"
#include "dct/reference.hpp"

namespace dsra::dct {

/// Fixed-point widths of a DA datapath.
struct DaPrecision {
  int input_bits = 12;      ///< sample width (paper Fig 4: 12-bit inputs)
  int coeff_frac_bits = 14; ///< coefficient fraction bits in the ROMs
  int rom_width = 20;       ///< ROM word width (paper Fig 4: 8 bits)
  int acc_bits = 32;        ///< shift-accumulator width (paper Fig 4: 16)

  /// High-precision mode: bit-exact against the integer reference.
  [[nodiscard]] static DaPrecision wide() { return {12, 14, 20, 32}; }

  /// Paper mode: 256-word x 8-bit ROMs as labelled in Fig 4. Coefficient
  /// sums must fit 8 bits, so only 5 fraction bits survive; the resulting
  /// quality loss is measured (not hidden) by the accuracy benches.
  [[nodiscard]] static DaPrecision paper() { return {12, 5, 8, 32}; }
};

/// ROM of one DA unit. words[s] is the sum of the quantised coefficients
/// selected by the bits of s, saturated to rom_width (saturation only
/// engages in reduced-precision modes).
struct DaLut {
  std::vector<std::int64_t> words;    ///< ROM contents, 2^inputs words
  std::vector<std::int64_t> weights;  ///< words[1 << i]: input i's coefficient
  /// True when every word is the unsaturated sum of the weights its
  /// address selects, so the unit computes a plain dot product. Holds for
  /// every DaPrecision::wide() LUT.
  bool linear = false;
};

[[nodiscard]] DaLut build_da_lut(std::span<const std::int64_t> qcoeffs, int rom_width);

/// True when every LUT in @p luts is linear.
[[nodiscard]] bool all_linear(std::span<const DaLut> luts);

/// Exact DA evaluation: the value the AddShift kShiftAcc cluster holds
/// after @p serial_width MSB-first cycles over @p values (LSB of
/// values[i] supplies address bit i). A linear LUT is evaluated as
/// wrap_to_width(sum_i weights[i] * sign_extend(values[i], serial_width),
/// acc_bits), which equals the bit-serial loop; other LUTs run
/// da_eval_serial.
[[nodiscard]] std::int64_t da_eval(const DaLut& lut, std::span<const std::int64_t> values,
                                   int serial_width, int acc_bits);

/// The bit-serial loop itself, cycle by cycle: acc <- 2*acc +/- words[addr]
/// wrapped to @p acc_bits, subtracting on the MSB cycle. The reference
/// da_eval is tested against.
[[nodiscard]] std::int64_t da_eval_serial(std::span<const std::int64_t> words,
                                          std::span<const std::int64_t> values,
                                          int serial_width, int acc_bits);

/// Truncating LSB-first DA evaluation, mirroring kShiftAccTrunc +
/// kShiftRegLsb - the form a real 16-bit shift-accumulator implements
/// (Fig 4): acc = asr(acc, 1) + (+/- lut[addr]) << addend_shift, sign
/// strobe on the last (MSB) cycle. The result equals the exact DA value
/// scaled by 2^(addend_shift - serial_width + 1), plus a bounded
/// truncation error (at most ~2 ulps).
[[nodiscard]] std::int64_t da_eval_trunc(const std::vector<std::int64_t>& lut,
                                         std::span<const std::int64_t> values,
                                         int serial_width, int acc_bits, int addend_shift);

/// Quantise a coefficient list to Q(frac_bits) integers.
[[nodiscard]] std::vector<std::int64_t> quantize_row(std::span<const double> coeffs,
                                                     int frac_bits);

/// --- netlist construction helpers --------------------------------------

/// One DA unit: shift registers are supplied by the caller (their 1-bit
/// serial nets form the ROM address LSB..MSB); this adds the ROM and the
/// shift-accumulator and returns the accumulator output net.
NetId add_da_unit(Netlist& nl, const std::string& name,
                  const std::vector<NetId>& serial_bits, const DaLut& lut, int rom_width,
                  int acc_bits, NetId clr, NetId en, NetId sub);

/// Parallel-to-serial shift register; returns its 1-bit serial output net.
NetId add_shift_reg(Netlist& nl, const std::string& name, NetId parallel_in, int width,
                    NetId load, NetId en);

/// Standard control inputs every DA netlist exposes: load, en, sub.
struct DaControls {
  NetId load = kInvalidId;
  NetId en = kInvalidId;
  NetId sub = kInvalidId;
};
[[nodiscard]] DaControls add_da_controls(Netlist& nl);

/// Drive a compiled DA netlist through one 8-point transform on the
/// simulator (ports x0..x7 / X0..X7, controls load/en/sub) and return the
/// raw accumulator outputs. Takes serial_width + 1 clock cycles. With
/// @p lsb_first the sign strobe fires on the last serial cycle (the
/// kShiftRegLsb / kShiftAccTrunc datapath) instead of the first.
[[nodiscard]] IVec8 run_da_transform(Simulator& sim, const IVec8& x, int serial_width,
                                     bool lsb_first = false);

}  // namespace dsra::dct
