#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace nacu::simd {

namespace {

/// -1 = no override, otherwise the int value of a Backend.
std::atomic<int> g_override{-1};

}  // namespace

bool avx2_available() noexcept {
#if defined(NACU_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

Backend detect_backend() noexcept {
  // `scalar` is the only value that changes the pick: `avx2`, like an
  // unset or unknown value, asks for AVX2 where it can run.
  const char* env = std::getenv("NACU_BACKEND");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return Backend::Scalar;
  }
  return resolve(Backend::Avx2);
}

Backend active_backend() noexcept {
  const int override_value = g_override.load(std::memory_order_relaxed);
  if (override_value >= 0) {
    return resolve(static_cast<Backend>(override_value));
  }
  static const Backend detected = detect_backend();
  return detected;
}

void set_active_backend(Backend backend) noexcept {
  g_override.store(static_cast<int>(resolve(backend)),
                   std::memory_order_relaxed);
}

void clear_backend_override() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
}

Backend resolve(Backend requested) noexcept {
  if (requested == Backend::Avx2 && !avx2_available()) {
    return Backend::Scalar;
  }
  return requested;
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::Scalar:
      return "scalar";
    case Backend::Avx2:
      return "avx2";
  }
  return "?";
}

}  // namespace nacu::simd
