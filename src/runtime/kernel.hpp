// Kernel classes of the paper's two domain-specific arrays.
//
// A fabric advertises which kernels its silicon can host: the systolic ME
// array (Fig 2) runs motion estimation, the DA/CORDIC array (Fig 3) runs
// the DCT/quant and reconstruction kernels. Stage-typed jobs carry the
// kernel they need and the scheduler only hands them to capable fabrics.
#pragma once

#include <cstdint>

namespace dsra::runtime {

enum KernelCapability : unsigned {
  kCapMotionEstimation = 1u << 0,  ///< systolic ME array
  kCapDctTransform = 1u << 1,      ///< DA / CORDIC transform array
  kCapAllKernels = kCapMotionEstimation | kCapDctTransform,
};

/// The schedulable unit types. kWholeFrame is the legacy monolithic job
/// (ME runs inline on the transform fabric's worker, so it only needs the
/// DCT kernel); the three pipeline stages map onto their own kernels.
enum class StageKind {
  kWholeFrame,
  kMotionEstimation,
  kTransformQuant,
  kReconstructEntropy,
};

[[nodiscard]] constexpr unsigned kernel_of(StageKind stage) {
  return stage == StageKind::kMotionEstimation ? kCapMotionEstimation : kCapDctTransform;
}

/// Whether a job of @p stage finishes its frame.
[[nodiscard]] constexpr bool completes_frame(StageKind stage) {
  return stage == StageKind::kWholeFrame || stage == StageKind::kReconstructEntropy;
}

[[nodiscard]] constexpr const char* to_string(StageKind stage) {
  switch (stage) {
    case StageKind::kWholeFrame: return "frame";
    case StageKind::kMotionEstimation: return "me";
    case StageKind::kTransformQuant: return "dct+quant";
    case StageKind::kReconstructEntropy: return "reconstruct";
  }
  return "?";
}

/// Modeled array cycles one frame's kernels cost: the ME search over its
/// macroblocks (0 for an intra frame) and one pass of the DCT over its
/// blocks.
struct FrameCycles {
  std::uint64_t me = 0;
  std::uint64_t dct = 0;
};

/// Modeled compute cycles of @p stage of a frame costing @p frame: the ME
/// stage runs the search, the DCT/quant and reconstruct stages one DCT
/// pass each (forward, inverse), a whole-frame job all three.
[[nodiscard]] constexpr std::uint64_t stage_cycles(StageKind stage, const FrameCycles& frame) {
  switch (stage) {
    case StageKind::kWholeFrame: return frame.me + 2 * frame.dct;
    case StageKind::kMotionEstimation: return frame.me;
    case StageKind::kTransformQuant:
    case StageKind::kReconstructEntropy: return frame.dct;
  }
  return 0;
}

/// Library name of the systolic ME array's configuration context.
inline constexpr const char* kMeContextName = "me_systolic";

}  // namespace dsra::runtime
