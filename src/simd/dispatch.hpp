// Runtime kernel-backend dispatch for the SIMD layer.
//
// The SIMD kernels (simd/kernels.hpp) come in two implementations: the
// portable scalar loops that every build carries (the reference, and the
// only path on a host without AVX2), and AVX2 versions compiled into their
// own translation unit, kernels_avx2.cpp, with -mavx2 (so the rest of the
// binary stays generic).
//
// Which one runs is decided *once*, at startup, from CPUID — never per
// element — and every kernel entry point takes the resolved Backend so
// hot loops carry no feature-test branches.
//
// Selection order:
//   1. `NACU_BACKEND=scalar|avx2` environment override (avx2 is clamped to
//      what the CPU/build actually supports; any other value is ignored),
//   2. CPUID: AVX2 when the host supports it and the build carries the
//      kernels, else scalar.
//
// Tests and benches can pin the process-wide default with
// set_active_backend() to run the same suite over both implementations.
// `core::BatchNacu` snapshots the resolved backend at engine
// construction — environment/override changes after that point do not
// retarget a live engine.
#pragma once

#include <cstdint>

namespace nacu::simd {

enum class Backend : std::uint8_t {
  Scalar,  ///< portable C++ loops, bit-identical reference implementation
  Avx2,    ///< AVX2 gather/fused kernels (falls back to Scalar if absent)
};

/// Whether the AVX2 kernels are compiled in AND the host CPU reports AVX2.
/// -DNACU_FORCE_SCALAR=ON or a non-x86 target compiles them out.
[[nodiscard]] bool avx2_available() noexcept;

/// Probe the environment + CPU and pick the best backend (no caching).
[[nodiscard]] Backend detect_backend() noexcept;

/// The process-wide default backend: detect_backend() resolved once, or
/// the last set_active_backend() override. This is what BatchNacu options
/// and the NN consumers default to.
[[nodiscard]] Backend active_backend() noexcept;

/// Pin the process-wide default (clamped to availability). Intended for
/// tests and benchmarks that compare backends; not thread-safe against
/// concurrent object construction.
void set_active_backend(Backend backend) noexcept;

/// Drop a set_active_backend() override, returning to CPUID detection.
void clear_backend_override() noexcept;

/// Clamp a requested backend to one that can actually run (Avx2 -> Scalar
/// when AVX2 is absent). Kernel entry points apply this themselves.
[[nodiscard]] Backend resolve(Backend requested) noexcept;

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

}  // namespace nacu::simd
