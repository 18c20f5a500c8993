#include "dct/impl.hpp"

#include <algorithm>

namespace dsra::dct {

std::array<Readout, kN> DctImplementation::readout() const {
  std::array<Readout, kN> r{};
  r.fill({0, prec_.coeff_frac_bits, 1.0});
  return r;
}

Vec8 DctImplementation::transform_real(const IVec8& x) const {
  const IVec8 raw = transform(x);
  const std::array<Readout, kN> r = readout();
  Vec8 out{};
  for (std::size_t u = 0; u < kN; ++u) out[u] = r[u].to_real(raw[u]);
  return out;
}

namespace {

std::optional<AffineKernel> derive_affine_kernel(const DctImplementation& impl) {
  const DaPrecision& p = impl.precision();
  if (!impl.affine_datapath() || p.input_bits > 16) return std::nullopt;
  const IVec8 bias = impl.transform(IVec8{});
  const std::int64_t in_max = 1ll << (p.input_bits - 1);
  const std::int64_t acc_limit = 1ll << (std::min(p.acc_bits, 32) - 1);
  std::array<std::int64_t, kN> reach{};  // sum_i |m[u][i]| * in_max + |bias[u]|
  AffineKernel k;
  for (std::size_t u = 0; u < kN; ++u) {
    reach[u] = bias[u] < 0 ? -bias[u] : bias[u];
    k.bias[u] = static_cast<std::int32_t>(bias[u]);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    IVec8 unit{};
    unit[i] = 1;
    const IVec8 y = impl.transform(unit);
    for (std::size_t u = 0; u < kN; ++u) {
      const std::int64_t m = y[u] - bias[u];
      if (m != static_cast<std::int16_t>(m)) return std::nullopt;
      reach[u] += (m < 0 ? -m : m) * in_max;
      k.column[i][u] = static_cast<std::int16_t>(m);
    }
  }
  for (const std::int64_t r : reach)
    if (r >= acc_limit) return std::nullopt;
  k.readout = impl.readout();
  return k;
}

}  // namespace

const AffineKernel* DctImplementation::affine_kernel() const {
  std::call_once(kernel_once_, [this] { kernel_ = derive_affine_kernel(*this); });
  return kernel_ ? &*kernel_ : nullptr;
}

std::vector<std::unique_ptr<DctImplementation>> all_implementations(DaPrecision p) {
  std::vector<std::unique_ptr<DctImplementation>> v;
  v.push_back(make_da_basic(p));
  v.push_back(make_mixed_rom(p));
  v.push_back(make_cordic1(p));
  v.push_back(make_cordic2(p));
  v.push_back(make_scc_even_odd(p));
  v.push_back(make_scc_full(p));
  return v;
}

}  // namespace dsra::dct
