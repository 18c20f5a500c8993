// 2-D 8x8 DCT by rows then columns through any 1-D array implementation.
//
// Mirrors the hardware organisation: the first pass writes to a transpose
// buffer (a Mem cluster in RAM mode on the array; modelled here as the
// intermediate matrix), the second pass transforms columns. First-pass
// outputs are re-quantised to the implementation's input width with
// kPass2FracBits additional fraction bits, exactly as a 16-bit transpose
// memory would store them.
//
// forward_2d runs an implementation's AffineKernel as two int32 matrix
// products whenever it has one and every sample fits input_bits; it then
// returns the per-vector composition's doubles bit for bit. Otherwise it
// runs that composition, forward_2d_per_vector, which is also the
// reference the kernel is tested against.
#pragma once

#include "dct/impl.hpp"

namespace dsra::dct {

/// 8x8 pixel block (integer samples, e.g. level-shifted luma in [-128,127]).
using PixelBlock = std::array<std::array<int, kN>, kN>;

/// Fraction bits the transpose buffer keeps on first-pass outputs.
inline constexpr int kPass2FracBits = 2;

/// Real-valued 2-D DCT coefficients computed through @p impl.
[[nodiscard]] Block8x8 forward_2d(const DctImplementation& impl, const PixelBlock& block);

/// The same transform one 8-point vector at a time through
/// impl.transform_real, with std::llround into the transpose buffer.
[[nodiscard]] Block8x8 forward_2d_per_vector(const DctImplementation& impl,
                                             const PixelBlock& block);

/// Array cycles for one 8x8 block: 16 one-dimensional transforms plus the
/// transpose-buffer writeback.
[[nodiscard]] int cycles_for_block(const DctImplementation& impl);

/// Reference 2-D DCT of a pixel block (double precision, for comparisons).
[[nodiscard]] Block8x8 forward_2d_reference(const PixelBlock& block);

}  // namespace dsra::dct
