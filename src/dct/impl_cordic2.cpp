// Fig 7: scaled CORDIC-based DCT #2 (paper section 3.4, after [9]).
//
// A *scaled* DCT outputs X_u / g_u; the per-output factors g fold into the
// quantiser "without requiring any extra hardware" (paper). This removes
// the pi/4 rotator of Fig 6 entirely:
//   X0' = t0 + t1 and X4' = t0 - t1 stay parallel (g = 2*sqrt2),
//   the odd half collapses onto two 4-input rotators via
//     cos(pi/16)   = cos(pi/4) (cos(3pi/16) + sin(3pi/16))
//     sin(pi/16)   = cos(pi/4) (cos(3pi/16) - sin(3pi/16)):
//   with u = d1+d2, v = d1-d2 the four odd outputs are exact (g = 1)
//   linear forms of (d0, d3, u, v) -> 16-word ROMs, one per output.
// Structure: 3 rotators (one 2-input even, two 2-output 4-input odd),
// 20 butterfly add/subs (incl. the output rounding/alignment stage, see
// DESIGN.md 2.3), 6 shift registers, 6 accumulators, 6 memory clusters -
// the Table 1 CORDIC2 column.
#include <cmath>

#include "common/ints.hpp"
#include "dct/impl.hpp"

namespace dsra::dct {

namespace {

constexpr double kPi = 3.14159265358979323846;

class Cordic2Impl final : public DctImplementation {
 public:
  explicit Cordic2Impl(DaPrecision p) : DctImplementation(p) {
    const double n = 0.5;
    const double c8 = std::cos(kPi / 8), s8 = std::sin(kPi / 8);
    const double c1 = std::cos(kPi / 16), s1 = std::sin(kPi / 16);
    const double c3 = std::cos(3 * kPi / 16), s3 = std::sin(3 * kPi / 16);
    const double c4 = std::cos(kPi / 4);

    even_luts_[0] = make_lut({n * c8, n * s8});    // X2 over (t3, t2)
    even_luts_[1] = make_lut({n * s8, -n * c8});   // X6 over (t3, t2)
    // Odd units over (d0, d3, u, v).
    odd_luts_[0] = make_lut({n * c1, n * s1, n * c4 * c1, n * c4 * s1});     // X1
    odd_luts_[1] = make_lut({n * c3, -n * s3, -n * c4 * c3, n * c4 * s3});   // X3
    odd_luts_[2] = make_lut({n * s3, n * c3, -n * c4 * s3, -n * c4 * c3});   // X5
    odd_luts_[3] = make_lut({n * s1, -n * c1, n * c4 * s1, -n * c4 * c1});   // X7
  }

  [[nodiscard]] std::string name() const override { return "cordic2"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 7"; }
  [[nodiscard]] std::string description() const override {
    return "scaled DCT: 3 CORDIC rotators + 20 butterfly adders, scale in quantiser";
  }
  [[nodiscard]] int serial_width() const override {
    // Two butterfly levels of growth, padded to element granularity.
    return round_up_to_element(prec_.input_bits + 2);
  }

  [[nodiscard]] std::array<Readout, kN> readout() const override {
    auto r = DctImplementation::readout();
    // X0, X4 bypass the DA path (parallel butterflies): no fraction bits,
    // and the scale g = 2*sqrt2 folds into the quantiser.
    r[0] = r[4] = {0, 0, 2.0 * std::sqrt(2.0)};
    // Odd outputs carry the +2^(f-1) rounding offset added by the output
    // alignment stage (for downstream truncating quantisers).
    for (const std::size_t u : {1, 3, 5, 7}) r[u].offset = round_const();
    return r;
  }

  [[nodiscard]] bool affine_datapath() const override {
    // Butterflies grow two bits over four inputs on the serial width and
    // three over eight on the bypass width, round_up_to_element(ws + 1).
    return all_linear(even_luts_) && all_linear(odd_luts_) &&
           serial_width() >= prec_.input_bits + 2;
  }

  void drive_constants(Simulator& sim) const override {
    sim.set_input("round_c", round_const());
    sim.set_input("round_c_neg", -round_const());
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    const int ws = serial_width();
    const int wide = round_up_to_element(ws + 1);
    std::array<std::int64_t, 4> s{}, d{};
    for (int i = 0; i < 4; ++i) {
      s[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(7 - i)], ws);
      d[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(7 - i)], ws);
    }
    const std::int64_t t0 = wrap_to_width(s[0] + s[3], ws);
    const std::int64_t t1 = wrap_to_width(s[1] + s[2], ws);
    const std::int64_t t3 = wrap_to_width(s[0] - s[3], ws);
    const std::int64_t t2 = wrap_to_width(s[1] - s[2], ws);
    const std::int64_t u = wrap_to_width(d[1] + d[2], ws);
    const std::int64_t v = wrap_to_width(d[1] - d[2], ws);

    const std::array<std::int64_t, 2> even_pair{t3, t2};
    const std::array<std::int64_t, 4> odd_in{d[0], d[3], u, v};

    IVec8 out{};
    const int ab = prec_.acc_bits;
    out[0] = wrap_to_width(t0 + t1, wide);
    out[4] = wrap_to_width(t0 - t1, wide);
    out[2] = da_eval(even_luts_[0], even_pair, ws, ab);
    out[6] = da_eval(even_luts_[1], even_pair, ws, ab);
    const std::int64_t r = round_const();
    out[1] = wrap_to_width(da_eval(odd_luts_[0], odd_in, ws, ab) + r, ab);
    out[3] = wrap_to_width(da_eval(odd_luts_[1], odd_in, ws, ab) + r, ab);
    out[5] = wrap_to_width(da_eval(odd_luts_[2], odd_in, ws, ab) - (-r), ab);
    out[7] = wrap_to_width(da_eval(odd_luts_[3], odd_in, ws, ab) - (-r), ab);
    return out;
  }

  [[nodiscard]] Netlist build_netlist() const override {
    Netlist nl("dct_" + name());
    const DaControls ctl = add_da_controls(nl);
    const int ws = serial_width();
    const int wide = round_up_to_element(ws + 1);
    const int ab = prec_.acc_bits;

    std::array<NetId, kN> x{};
    for (int i = 0; i < kN; ++i)
      x[static_cast<std::size_t>(i)] = nl.add_input("x" + std::to_string(i), ws);
    const NetId round_c = nl.add_input("round_c", ab);
    const NetId round_c_neg = nl.add_input("round_c_neg", ab);

    auto bfly = [&](const std::string& bname, NetId a, NetId b, bool sub, int width) {
      const NodeId n = nl.add_node(
          bname, AddShiftCfg{width, sub ? AddShiftOp::kSub : AddShiftOp::kAdd, 0, false});
      nl.connect_input(n, "a", a);
      nl.connect_input(n, "b", b);
      return nl.output_net(n, "y");
    };

    std::array<NetId, 4> s{}, d{};
    for (int i = 0; i < 4; ++i) {
      s[static_cast<std::size_t>(i)] = bfly("bfly_s" + std::to_string(i),
                                            x[static_cast<std::size_t>(i)],
                                            x[static_cast<std::size_t>(7 - i)], false, ws);
      d[static_cast<std::size_t>(i)] = bfly("bfly_d" + std::to_string(i),
                                            x[static_cast<std::size_t>(i)],
                                            x[static_cast<std::size_t>(7 - i)], true, ws);
    }
    const NetId t0 = bfly("bfly_t0", s[0], s[3], false, ws);
    const NetId t1 = bfly("bfly_t1", s[1], s[2], false, ws);
    const NetId t3 = bfly("bfly_t3", s[0], s[3], true, ws);
    const NetId t2 = bfly("bfly_t2", s[1], s[2], true, ws);
    const NetId u = bfly("bfly_u", d[1], d[2], false, ws);
    const NetId v = bfly("bfly_v", d[1], d[2], true, ws);

    // Parallel (scaled) DC pair - no serialisation needed.
    nl.add_output("X0", bfly("out_x0", t0, t1, false, wide));
    nl.add_output("X4", bfly("out_x4", t0, t1, true, wide));

    auto sr = [&](const std::string& sname, NetId val) {
      return add_shift_reg(nl, sname, val, ws, ctl.load, ctl.en);
    };
    const std::vector<NetId> even_bits{sr("sr_t3", t3), sr("sr_t2", t2)};
    const std::vector<NetId> odd_bits{sr("sr_d0", d[0]), sr("sr_d3", d[3]), sr("sr_u", u),
                                      sr("sr_v", v)};

    const NetId x2 = add_da_unit(nl, "rot_x2", even_bits, even_luts_[0], prec_.rom_width, ab,
                                 ctl.load, ctl.en, ctl.sub);
    const NetId x6 = add_da_unit(nl, "rot_x6", even_bits, even_luts_[1], prec_.rom_width, ab,
                                 ctl.load, ctl.en, ctl.sub);
    nl.add_output("X2", x2);
    nl.add_output("X6", x6);

    const std::array<std::string, 4> odd_names{"rot_x1", "rot_x3", "rot_x5", "rot_x7"};
    const std::array<int, 4> odd_idx{1, 3, 5, 7};
    for (int k = 0; k < 4; ++k) {
      const NetId acc = add_da_unit(nl, odd_names[static_cast<std::size_t>(k)], odd_bits,
                                    odd_luts_[static_cast<std::size_t>(k)], prec_.rom_width, ab,
                                    ctl.load, ctl.en, ctl.sub);
      // Rounding / alignment stage (DESIGN.md 2.3): adds 2^(f-1) so a
      // truncating quantiser rounds to nearest. X1/X3 add the positive
      // constant, X5/X7 subtract the negated one.
      const bool use_sub = k >= 2;
      const NetId rounded = bfly("round_x" + std::to_string(odd_idx[static_cast<std::size_t>(k)]),
                                 acc, use_sub ? round_c_neg : round_c, use_sub, ab);
      nl.add_output("X" + std::to_string(odd_idx[static_cast<std::size_t>(k)]), rounded);
    }
    return nl;
  }

 private:
  [[nodiscard]] std::int64_t round_const() const {
    return prec_.coeff_frac_bits > 0 ? (1ll << (prec_.coeff_frac_bits - 1)) : 0;
  }

  [[nodiscard]] DaLut make_lut(std::vector<double> coeffs) const {
    return build_da_lut(quantize_row(coeffs, prec_.coeff_frac_bits), prec_.rom_width);
  }

  std::array<DaLut, 2> even_luts_;
  std::array<DaLut, 4> odd_luts_;
};

}  // namespace

std::unique_ptr<DctImplementation> make_cordic2(DaPrecision p) {
  return std::make_unique<Cordic2Impl>(p);
}

}  // namespace dsra::dct
