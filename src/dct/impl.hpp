// Common interface of the paper's DCT implementations (sections 3.1-3.5).
//
// Each implementation provides:
//  * a bit-accurate functional model (transform), exactly mirroring the
//    arithmetic of its mapped netlist - the integration tests require
//    simulate(build_netlist()) == transform() bit for bit;
//  * a netlist generator targeting the DA array (build_netlist), whose
//    cluster census reproduces its Table 1 column;
//  * scaling metadata to convert raw accumulator words to real DCT values
//    (CORDIC #2 is a *scaled* DCT; its factors fold into quantisation);
//  * where its datapath is exact, the same transform as an int32 affine
//    map, which the 2-D block transform runs as matrix products.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dct/da_common.hpp"

namespace dsra::dct {

/// How one raw output word becomes a real DCT coefficient:
/// X = (raw - offset) / 2^frac_bits / scale.
struct Readout {
  std::int64_t offset = 0;  ///< constant the datapath adds (CORDIC #2's rounding)
  int frac_bits = 0;        ///< fraction bits of the raw word
  double scale = 1.0;       ///< scaled-DCT factor g (CORDIC #2's X0/X4), else 1

  [[nodiscard]] double to_real(std::int64_t raw) const {
    return static_cast<double>(raw - offset) / static_cast<double>(1ll << frac_bits) / scale;
  }
};

/// An 8-point transform as an exact int32 affine map on input_bits-wide
/// inputs: raw[u] = bias[u] + sum_i m[u][i] * x[i], where no partial sum
/// reaches 2^31, plus the readout of every output. The matrix is stored
/// by input, column[i][u] = m[u][i], so one input scales a whole row of
/// outputs; its entries and the inputs fit int16, so the products
/// vectorise.
struct AffineKernel {
  std::array<std::array<std::int16_t, kN>, kN> column{};
  std::array<std::int32_t, kN> bias{};
  std::array<Readout, kN> readout{};
};

class DctImplementation {
 public:
  explicit DctImplementation(DaPrecision precision) : prec_(precision) {}
  virtual ~DctImplementation() = default;

  DctImplementation(const DctImplementation&) = delete;
  DctImplementation& operator=(const DctImplementation&) = delete;

  /// Short identifier ("mixed_rom", "cordic1", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Which paper figure this reproduces ("Fig 4", ...).
  [[nodiscard]] virtual std::string paper_figure() const = 0;

  /// One-line description for reports.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Bit-accurate 8-point transform (raw fixed-point output words).
  [[nodiscard]] virtual IVec8 transform(const IVec8& x) const = 0;

  /// Cluster netlist targeting the DA array (ports x0..x7, X0..X7,
  /// controls load/en/sub).
  [[nodiscard]] virtual Netlist build_netlist() const = 0;

  /// Width of the serialised values (= serial cycles per transform).
  [[nodiscard]] virtual int serial_width() const = 0;

  /// Clock cycles for one 8-point transform on the array.
  [[nodiscard]] int cycles_per_transform() const { return serial_width() + 1; }

  /// Per-output readout of the raw words. Defaults to the ROM coefficient
  /// fraction, no offset and scale 1; CORDIC #2 reports its bypass
  /// outputs' 0 fraction bits and folded scale, and its odd outputs'
  /// rounding offset.
  [[nodiscard]] virtual std::array<Readout, kN> readout() const;

  /// Convert a raw output word to a real DCT coefficient.
  [[nodiscard]] double to_real(int u, std::int64_t raw) const {
    return readout()[static_cast<std::size_t>(u)].to_real(raw);
  }

  /// True when transform() is exactly affine on input_bits-wide inputs up
  /// to accumulator wrap: every LUT it evaluates is linear and its serial
  /// and butterfly widths cover the butterflies' growth. The
  /// implementation owns its LUTs and widths, so it states this.
  [[nodiscard]] virtual bool affine_datapath() const { return false; }

  /// transform() as an int32 affine map, derived once on first use by
  /// probing it at 0 and at the unit vectors. Null unless
  /// affine_datapath() holds, no output can reach the accumulator's sign
  /// bit (sum_i |m[u][i]| * 2^(input_bits-1) + |bias[u]| < 2^(acc_bits-1)
  /// for every u) and the matrix entries and inputs fit int16.
  [[nodiscard]] const AffineKernel* affine_kernel() const;

  /// Drive any implementation-specific constant inputs (e.g. CORDIC #2's
  /// rounding constants). Called once before run_da_transform.
  virtual void drive_constants(Simulator& sim) const { (void)sim; }

  /// Functional transform returning real-valued coefficients.
  [[nodiscard]] Vec8 transform_real(const IVec8& x) const;

  [[nodiscard]] const DaPrecision& precision() const { return prec_; }

 protected:
  DaPrecision prec_;

 private:
  mutable std::once_flag kernel_once_;
  mutable std::optional<AffineKernel> kernel_;
};

/// Factory helpers, one per paper figure.
[[nodiscard]] std::unique_ptr<DctImplementation> make_da_basic(DaPrecision p = DaPrecision::wide());
[[nodiscard]] std::unique_ptr<DctImplementation> make_mixed_rom(DaPrecision p = DaPrecision::wide());
[[nodiscard]] std::unique_ptr<DctImplementation> make_cordic1(DaPrecision p = DaPrecision::wide());
[[nodiscard]] std::unique_ptr<DctImplementation> make_cordic2(DaPrecision p = DaPrecision::wide());
[[nodiscard]] std::unique_ptr<DctImplementation> make_scc_even_odd(DaPrecision p = DaPrecision::wide());
[[nodiscard]] std::unique_ptr<DctImplementation> make_scc_full(DaPrecision p = DaPrecision::wide());

/// All six implementations (Figs 4-9) in paper order.
[[nodiscard]] std::vector<std::unique_ptr<DctImplementation>> all_implementations(
    DaPrecision p = DaPrecision::wide());

/// Fig 4 with its *exact* hardware labels: 12-bit inputs, 256-word x 8-bit
/// ROMs and 16-bit right-shifting (truncating) accumulators, built from
/// the kShiftRegLsb / kShiftAccTrunc cluster modes. Same cluster budget as
/// make_da_basic; the output carries the LSB-first datapath's scaling and
/// truncation noise (quantified in bench_fig4_da_dct).
[[nodiscard]] std::unique_ptr<DctImplementation> make_da_basic_fig4_exact();

}  // namespace dsra::dct
