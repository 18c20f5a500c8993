// Fig 6: CORDIC-based DCT #1 (paper section 3.3).
//
// Six DA-CORDIC rotators and sixteen butterfly adders compute the 8-point
// DCT. Each rotator realises a Givens rotation of a serialised pair with
// two 4-word ROMs (holding {0, +/-sin, +/-cos, cos+/-sin} combinations)
// and two shift-accumulators, exactly as the paper describes.
//
// Flowgraph (derived in DESIGN.md 2.3; all identities verified by tests):
//   stage 1:  s_i = x_i + x_{7-i},  d_i = x_i - x_{7-i}           (4 add, 4 sub)
//   even:     t0 = s0+s3, t1 = s1+s2, t2 = s1-s2, t3 = s0-s3      (2 add, 2 sub)
//             R(pi/4)(t0,t1)  -> X0, X4     (c0 = 1/(2*sqrt2) folded in ROM)
//             R(pi/8)(t3,t2)  -> X2, X6
//   odd:      rotators at pi/16 and 3pi/16 on (d0,d3) and (d1,d2), using
//             cos(5pi/16) = sin(3pi/16) and cos(7pi/16) = sin(pi/16):
//               X1 = Ax + Cx      X7 = Ay - Cy'                   (2 add, 2 sub)
//               X3 = Bx + Dx      X5 = By - Dy'
#include <cmath>

#include "common/ints.hpp"
#include "dct/impl.hpp"

namespace dsra::dct {

namespace {

constexpr double kPi = 3.14159265358979323846;

class Cordic1Impl final : public DctImplementation {
 public:
  explicit Cordic1Impl(DaPrecision p) : DctImplementation(p) {
    const double n = 0.5;  // orthonormal c(u) for u > 0
    const double c0 = 1.0 / (2.0 * std::sqrt(2.0));
    const double c8 = std::cos(kPi / 8), s8 = std::sin(kPi / 8);
    const double c1 = std::cos(kPi / 16), s1 = std::sin(kPi / 16);
    const double c3 = std::cos(3 * kPi / 16), s3 = std::sin(3 * kPi / 16);

    // Rotator DA units: {coefficient pair} over the named serial pair.
    // Pairs: 0 = (t0,t1), 1 = (t3,t2), 2 = (d0,d3), 3 = (d1,d2).
    set_unit(kX0, 0, {c0, c0});
    set_unit(kX4, 0, {c0, -c0});
    set_unit(kX2, 1, {n * c8, n * s8});
    set_unit(kX6, 1, {n * s8, -n * c8});
    set_unit(kAx, 2, {n * c1, n * s1});
    set_unit(kAy, 2, {n * s1, -n * c1});
    set_unit(kBx, 2, {n * c3, -n * s3});
    set_unit(kBy, 2, {n * s3, n * c3});
    set_unit(kCx, 3, {n * c3, n * s3});
    set_unit(kCy, 3, {n * s3, -n * c3});
    set_unit(kDx, 3, {-n * s1, -n * c1});
    set_unit(kDy, 3, {n * c1, -n * s1});
  }

  [[nodiscard]] std::string name() const override { return "cordic1"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 6"; }
  [[nodiscard]] std::string description() const override {
    return "6 DA-CORDIC rotators + 16 butterfly adders";
  }
  [[nodiscard]] int serial_width() const override {
    // Two butterfly levels of growth, padded to element granularity.
    return round_up_to_element(prec_.input_bits + 2);
  }

  [[nodiscard]] bool affine_datapath() const override {
    return all_linear(luts_) && serial_width() >= prec_.input_bits + 2;
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    const int ws = serial_width();
    std::array<std::int64_t, 4> s{}, d{};
    for (int i = 0; i < 4; ++i) {
      s[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(7 - i)], ws);
      d[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(7 - i)], ws);
    }
    const std::array<std::int64_t, 2> p0{wrap_to_width(s[0] + s[3], ws),
                                         wrap_to_width(s[1] + s[2], ws)};
    const std::array<std::int64_t, 2> p1{wrap_to_width(s[0] - s[3], ws),
                                         wrap_to_width(s[1] - s[2], ws)};
    const std::array<std::int64_t, 2> p2{d[0], d[3]};
    const std::array<std::int64_t, 2> p3{d[1], d[2]};
    const std::array<const std::array<std::int64_t, 2>*, 4> pairs{&p0, &p1, &p2, &p3};

    std::array<std::int64_t, kUnitCount> v{};
    for (int u = 0; u < kUnitCount; ++u)
      v[static_cast<std::size_t>(u)] =
          da_eval(luts_[static_cast<std::size_t>(u)], *pairs[static_cast<std::size_t>(
                                                          pair_of_[static_cast<std::size_t>(u)])],
                  ws, prec_.acc_bits);

    IVec8 out{};
    const int ab = prec_.acc_bits;
    out[0] = v[kX0];
    out[4] = v[kX4];
    out[2] = v[kX2];
    out[6] = v[kX6];
    out[1] = wrap_to_width(v[kAx] + v[kCx], ab);
    out[7] = wrap_to_width(v[kAy] - v[kCy], ab);
    out[3] = wrap_to_width(v[kBx] + v[kDx], ab);
    out[5] = wrap_to_width(v[kBy] - v[kDy], ab);
    return out;
  }

  [[nodiscard]] Netlist build_netlist() const override {
    Netlist nl("dct_" + name());
    const DaControls ctl = add_da_controls(nl);
    const int ws = serial_width();

    std::array<NetId, kN> x{};
    for (int i = 0; i < kN; ++i)
      x[static_cast<std::size_t>(i)] = nl.add_input("x" + std::to_string(i), ws);

    auto bfly = [&](const std::string& bname, NetId a, NetId b, bool sub) {
      const NodeId n = nl.add_node(
          bname, AddShiftCfg{ws, sub ? AddShiftOp::kSub : AddShiftOp::kAdd, 0, false});
      nl.connect_input(n, "a", a);
      nl.connect_input(n, "b", b);
      return nl.output_net(n, "y");
    };

    std::array<NetId, 4> s{}, d{};
    for (int i = 0; i < 4; ++i) {
      s[static_cast<std::size_t>(i)] = bfly("bfly_s" + std::to_string(i),
                                            x[static_cast<std::size_t>(i)],
                                            x[static_cast<std::size_t>(7 - i)], false);
      d[static_cast<std::size_t>(i)] = bfly("bfly_d" + std::to_string(i),
                                            x[static_cast<std::size_t>(i)],
                                            x[static_cast<std::size_t>(7 - i)], true);
    }
    const NetId t0 = bfly("bfly_t0", s[0], s[3], false);
    const NetId t1 = bfly("bfly_t1", s[1], s[2], false);
    const NetId t3 = bfly("bfly_t3", s[0], s[3], true);
    const NetId t2 = bfly("bfly_t2", s[1], s[2], true);

    // Serialise the four even-path and four odd-path values.
    auto sr = [&](const std::string& sname, NetId v) {
      return add_shift_reg(nl, sname, v, ws, ctl.load, ctl.en);
    };
    const std::array<std::array<NetId, 2>, 4> pair_bits{{
        {sr("sr_t0", t0), sr("sr_t1", t1)},
        {sr("sr_t3", t3), sr("sr_t2", t2)},
        {sr("sr_d0", d[0]), sr("sr_d3", d[3])},
        {sr("sr_d1", d[1]), sr("sr_d2", d[2])},
    }};

    std::array<NetId, kUnitCount> v{};
    for (int u = 0; u < kUnitCount; ++u) {
      const auto& bits = pair_bits[static_cast<std::size_t>(pair_of_[static_cast<std::size_t>(u)])];
      v[static_cast<std::size_t>(u)] =
          add_da_unit(nl, unit_name(u), {bits[0], bits[1]}, luts_[static_cast<std::size_t>(u)],
                      prec_.rom_width, prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
    }

    const int ab = prec_.acc_bits;
    auto out_bfly = [&](const std::string& oname, NetId a, NetId b, bool sub) {
      const NodeId n = nl.add_node(
          oname, AddShiftCfg{ab, sub ? AddShiftOp::kSub : AddShiftOp::kAdd, 0, false});
      nl.connect_input(n, "a", a);
      nl.connect_input(n, "b", b);
      return nl.output_net(n, "y");
    };
    nl.add_output("X0", v[kX0]);
    nl.add_output("X4", v[kX4]);
    nl.add_output("X2", v[kX2]);
    nl.add_output("X6", v[kX6]);
    nl.add_output("X1", out_bfly("out_x1", v[kAx], v[kCx], false));
    nl.add_output("X7", out_bfly("out_x7", v[kAy], v[kCy], true));
    nl.add_output("X3", out_bfly("out_x3", v[kBx], v[kDx], false));
    nl.add_output("X5", out_bfly("out_x5", v[kBy], v[kDy], true));
    return nl;
  }

 private:
  enum Unit { kX0, kX4, kX2, kX6, kAx, kAy, kBx, kBy, kCx, kCy, kDx, kDy, kUnitCount };

  static std::string unit_name(int u) {
    static const char* names[kUnitCount] = {"rot_x0", "rot_x4", "rot_x2", "rot_x6",
                                            "rot_ax", "rot_ay", "rot_bx", "rot_by",
                                            "rot_cx", "rot_cy", "rot_dx", "rot_dy"};
    return names[u];
  }

  void set_unit(int unit, int pair, std::array<double, 2> coeffs) {
    pair_of_[static_cast<std::size_t>(unit)] = pair;
    std::vector<double> c(coeffs.begin(), coeffs.end());
    luts_[static_cast<std::size_t>(unit)] =
        build_da_lut(quantize_row(c, prec_.coeff_frac_bits), prec_.rom_width);
  }

  std::array<DaLut, kUnitCount> luts_;
  std::array<int, kUnitCount> pair_of_{};
};

}  // namespace

std::unique_ptr<DctImplementation> make_cordic1(DaPrecision p) {
  return std::make_unique<Cordic1Impl>(p);
}

}  // namespace dsra::dct
