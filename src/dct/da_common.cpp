#include "dct/da_common.hpp"

#include <stdexcept>

#include "common/fixed.hpp"
#include "common/ints.hpp"

namespace dsra::dct {

namespace {

/// Sum of the terms whose bit is set in @p s.
std::int64_t selected_sum(std::span<const std::int64_t> terms, std::size_t s) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < terms.size(); ++i)
    if (s & (1ull << i)) sum += terms[i];
  return sum;
}

}  // namespace

DaLut build_da_lut(std::span<const std::int64_t> qcoeffs, int rom_width) {
  if (qcoeffs.size() > 8) throw std::invalid_argument("DA LUT supports at most 8 inputs");
  DaLut lut;
  lut.words.resize(1ull << qcoeffs.size());
  for (std::size_t s = 0; s < lut.words.size(); ++s)
    lut.words[s] = saturate_to_width(selected_sum(qcoeffs, s), rom_width);
  for (std::size_t i = 0; i < qcoeffs.size(); ++i) lut.weights.push_back(lut.words[1ull << i]);
  lut.linear = true;
  for (std::size_t s = 0; s < lut.words.size(); ++s)
    lut.linear = lut.linear && lut.words[s] == selected_sum(lut.weights, s);
  return lut;
}

bool all_linear(std::span<const DaLut> luts) {
  bool linear = true;
  for (const DaLut& lut : luts) linear = linear && lut.linear;
  return linear;
}

std::int64_t da_eval(const DaLut& lut, std::span<const std::int64_t> values, int serial_width,
                     int acc_bits) {
  if (!lut.linear) return da_eval_serial(lut.words, values, serial_width, acc_bits);
  // The serial loop weights bit k of every value by 2^k, and the MSB by
  // -2^k, so each value enters at its sign-extended serial_width-bit
  // value. Wrapping each step commutes with the sum modulo 2^acc_bits;
  // unsigned arithmetic keeps the intermediate sums defined.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < values.size(); ++i)
    acc += static_cast<std::uint64_t>(lut.weights[i]) *
           static_cast<std::uint64_t>(
               sign_extend(static_cast<std::uint64_t>(values[i]), serial_width));
  return sign_extend(acc, acc_bits);
}

std::int64_t da_eval_serial(std::span<const std::int64_t> words,
                            std::span<const std::int64_t> values, int serial_width,
                            int acc_bits) {
  std::int64_t acc = 0;
  for (int k = serial_width - 1; k >= 0; --k) {
    std::size_t addr = 0;
    for (std::size_t i = 0; i < values.size(); ++i)
      if ((static_cast<std::uint64_t>(values[i]) >> k) & 1ull) addr |= 1ull << i;
    const std::int64_t entry = words[addr];
    // MSB cycle subtracts (two's-complement sign weight).
    acc = wrap_to_width((acc << 1) + (k == serial_width - 1 ? -entry : entry), acc_bits);
  }
  return acc;
}

std::int64_t da_eval_trunc(const std::vector<std::int64_t>& lut,
                           std::span<const std::int64_t> values, int serial_width,
                           int acc_bits, int addend_shift) {
  std::int64_t acc = 0;
  for (int k = 0; k < serial_width; ++k) {
    std::size_t addr = 0;
    for (std::size_t i = 0; i < values.size(); ++i)
      if ((static_cast<std::uint64_t>(values[i]) >> k) & 1ull) addr |= 1ull << i;
    const std::int64_t entry = lut[addr];
    const std::int64_t addend = (k == serial_width - 1 ? -entry : entry) << addend_shift;
    acc = wrap_to_width((acc >> 1) + addend, acc_bits);
  }
  return acc;
}

std::vector<std::int64_t> quantize_row(std::span<const double> coeffs, int frac_bits) {
  std::vector<std::int64_t> q;
  q.reserve(coeffs.size());
  for (const double c : coeffs) q.push_back(to_fixed(c, frac_bits));
  return q;
}

NetId add_da_unit(Netlist& nl, const std::string& name, const std::vector<NetId>& serial_bits,
                  const DaLut& lut, int rom_width, int acc_bits, NetId clr, NetId en,
                  NetId sub) {
  MemCfg mem;
  mem.words = static_cast<int>(lut.words.size());
  mem.width = rom_width;
  mem.mode = MemMode::kRom;
  mem.addr_mode = MemAddrMode::kBit;
  mem.contents = lut.words;
  const NodeId rom = nl.add_node(name + "_rom", mem);
  for (std::size_t i = 0; i < serial_bits.size(); ++i)
    nl.connect_input(rom, "a" + std::to_string(i), serial_bits[i]);
  const NetId rom_out = nl.output_net(rom, "q");

  AddShiftCfg acc;
  acc.width = acc_bits;
  acc.op = AddShiftOp::kShiftAcc;
  const NodeId accn = nl.add_node(name + "_acc", acc);
  nl.connect_input(accn, "a", rom_out);
  nl.connect_input(accn, "clr", clr);
  nl.connect_input(accn, "en", en);
  nl.connect_input(accn, "sub", sub);
  return nl.output_net(accn, "y");
}

NetId add_shift_reg(Netlist& nl, const std::string& name, NetId parallel_in, int width,
                    NetId load, NetId en) {
  AddShiftCfg sr;
  sr.width = width;
  sr.op = AddShiftOp::kShiftReg;
  const NodeId n = nl.add_node(name, sr);
  nl.connect_input(n, "d", parallel_in);
  nl.connect_input(n, "load", load);
  nl.connect_input(n, "en", en);
  return nl.output_net(n, "q");
}

DaControls add_da_controls(Netlist& nl) {
  DaControls c;
  c.load = nl.add_input("load", 1);
  c.en = nl.add_input("en", 1);
  c.sub = nl.add_input("sub", 1);
  return c;
}

IVec8 run_da_transform(Simulator& sim, const IVec8& x, int serial_width, bool lsb_first) {
  for (int i = 0; i < kN; ++i) sim.set_input("x" + std::to_string(i), x[static_cast<std::size_t>(i)]);
  // Load cycle: shift registers latch, accumulators clear via load as clr.
  sim.set_input("load", 1);
  sim.set_input("en", 0);
  sim.set_input("sub", 0);
  sim.step();
  sim.set_input("load", 0);
  sim.set_input("en", 1);
  // The sign-weighted (MSB) bit is first in MSB-first order, last in
  // LSB-first order.
  for (int k = 0; k < serial_width; ++k) {
    const bool msb_cycle = lsb_first ? k == serial_width - 1 : k == 0;
    sim.set_input("sub", msb_cycle ? 1 : 0);
    sim.step();
  }
  IVec8 out{};
  for (int u = 0; u < kN; ++u)
    out[static_cast<std::size_t>(u)] = sim.output("X" + std::to_string(u));
  return out;
}

}  // namespace dsra::dct
