// Scalar reference implementations + backend dispatch for simd/kernels.hpp.
//
// The scalar loops here ARE the semantics: the AVX2 TU (kernels_avx2.cpp)
// must match them bit-for-bit, and the differential tests compare both over
// the exhaustive input domain. Keep these loops boring and obviously
// equivalent to the Fixed-API formulations they replace.
//
// The half-range reconstruct is everywhere the same branch-free select:
//   v   = entries[|raw|]            (|min_raw| lands on the extra slot)
//   out = raw < 0 ? one_raw − v : v (one_raw == 0 for odd functions)

#include "simd/kernels.hpp"

#include <cstring>
#include <type_traits>

namespace nacu::simd {

// The vector Fixed-span kernels read fp::Fixed as [int64 raw][8-byte
// Format]. Standard layout puts the first-declared member, raw_, at offset
// 0, and the sizes leave no room for padding around the Format.
static_assert(std::is_standard_layout_v<fp::Fixed>);
static_assert(std::is_trivially_copyable_v<fp::Fixed>);
static_assert(sizeof(fp::Fixed) == 16);
static_assert(sizeof(fp::Format) == 8);

#if defined(NACU_HAVE_AVX2)
namespace detail {
// Implemented in kernels_avx2.cpp (compiled with -mavx2). Each processes
// full 8-wide blocks from the front and returns how many elements it
// handled; the scalar loop finishes the tail (and performs the precise
// stop-on-mismatch scan for checked kernels, since a partially processed
// AVX2 block never commits any stores).
std::size_t table_lookup_fixed_avx2(const std::int16_t* table,
                                    std::int64_t fmt_bits,
                                    std::int64_t min_raw, const char* in,
                                    char* out, std::size_t n);
std::size_t table_lookup_fixed_avx2_half(const std::int16_t* table,
                                         std::int64_t fmt_bits,
                                         std::int64_t one_raw, const char* in,
                                         char* out, std::size_t n);
std::size_t table_lookup_raw_avx2(const std::int16_t* table,
                                  std::int64_t min_raw, std::int64_t max_raw,
                                  const std::int64_t* in, std::int64_t* out,
                                  std::size_t n);
std::size_t table_lookup_raw_avx2_half(const std::int16_t* table,
                                       std::int64_t one_raw,
                                       std::int64_t min_raw,
                                       std::int64_t max_raw,
                                       const std::int64_t* in,
                                       std::int64_t* out, std::size_t n);
void table_lookup_i32_avx2(const std::int16_t* table, const std::int32_t* in,
                           std::int32_t* out, std::size_t n);
void table_lookup_i32_avx2_half(const std::int16_t* table,
                                std::int64_t one_raw, std::int64_t min_raw,
                                const std::int32_t* in, std::int32_t* out,
                                std::size_t n);
void qgemm_accumulate_avx2(const std::int16_t* packed, std::size_t tiles,
                           std::size_t in_dim, const std::int32_t* x,
                           std::int32_t* acc, int fb, std::int32_t acc_min,
                           std::int32_t acc_max);
void conv3x3_mac_row_avx2(const std::int32_t* row0, const std::int32_t* row1,
                          const std::int32_t* row2,
                          const std::int32_t* filter9, std::size_t out_cols,
                          int fb, std::int32_t acc_min, std::int32_t acc_max,
                          std::int32_t* acc);
}  // namespace detail
#endif

namespace {

std::int64_t format_bits(fp::Format fmt) noexcept {
  std::int64_t bits = 0;
  std::memcpy(&bits, &fmt, sizeof(fmt));
  return bits;
}

/// HalfSigmoid reconstructs with one_raw; HalfOdd (and Dense) with 0,
/// making `one − v` the single negative-side formula.
std::int64_t half_one(const TableView& view) noexcept {
  return view.kind == TableKind::HalfSigmoid ? view.one_raw : 0;
}

/// entries[|raw|] with the negative side reconstructed. |min_raw| =
/// max_raw + 1 indexes the extra pre-inverted slot — no special case.
/// HalfSigmoid (one != 0) entries are corr-packed: the sample lives in the
/// low 15 bits and bit 15 carries the +1 the negative branch's bit-trick
/// coefficient morph adds over the exact 1 − σ(x) on some raws (see
/// simd/kernels.hpp). HalfOdd (one == 0) entries are plain signed samples.
inline std::int64_t half_entry(const std::int16_t* entries, std::int64_t one,
                               std::int64_t raw) noexcept {
  if (one == 0) {
    if (raw >= 0) {
      return entries[static_cast<std::size_t>(raw)];
    }
    return -entries[static_cast<std::size_t>(-raw)];
  }
  const auto packed = static_cast<std::uint16_t>(
      entries[static_cast<std::size_t>(raw >= 0 ? raw : -raw)]);
  const std::int64_t v = packed & 0x7FFF;
  if (raw >= 0) {
    return v;
  }
  return one - v + (packed >> 15);
}

inline std::int32_t clamp_i32(std::int64_t v, std::int32_t lo,
                              std::int32_t hi) noexcept {
  if (v < lo) {
    return lo;
  }
  if (v > hi) {
    return hi;
  }
  return static_cast<std::int32_t>(v);
}

std::size_t table_lookup_fixed_scalar(const std::int16_t* table,
                                      fp::Format fmt, const fp::Fixed* in,
                                      fp::Fixed* out, std::size_t n) {
  const std::int64_t min_raw = fmt.min_raw();
  for (std::size_t i = 0; i < n; ++i) {
    if (in[i].format() != fmt) {
      return i;
    }
    const auto word =
        static_cast<std::size_t>(in[i].raw() - min_raw);
    out[i] = fp::Fixed::from_raw_unchecked(table[word], fmt);
  }
  return n;
}

std::size_t table_lookup_fixed_scalar_half(const std::int16_t* entries,
                                           std::int64_t one, fp::Format fmt,
                                           const fp::Fixed* in, fp::Fixed* out,
                                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (in[i].format() != fmt) {
      return i;
    }
    out[i] = fp::Fixed::from_raw_unchecked(half_entry(entries, one,
                                                      in[i].raw()),
                                           fmt);
  }
  return n;
}

std::size_t table_lookup_raw_scalar(const std::int16_t* table,
                                    std::int64_t min_raw, std::int64_t max_raw,
                                    const std::int64_t* in, std::int64_t* out,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t raw = in[i];
    if (raw < min_raw || raw > max_raw) {
      return i;
    }
    out[i] = table[static_cast<std::size_t>(raw - min_raw)];
  }
  return n;
}

std::size_t table_lookup_raw_scalar_half(const std::int16_t* entries,
                                         std::int64_t one,
                                         std::int64_t min_raw,
                                         std::int64_t max_raw,
                                         const std::int64_t* in,
                                         std::int64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t raw = in[i];
    if (raw < min_raw || raw > max_raw) {
      return i;
    }
    out[i] = half_entry(entries, one, raw);
  }
  return n;
}

void table_lookup_i32_scalar(const std::int16_t* table, const std::int32_t* in,
                             std::int32_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

void table_lookup_i32_scalar_half(const std::int16_t* entries,
                                  std::int64_t one, std::int64_t min_raw,
                                  const std::int32_t* in, std::int32_t* out,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t raw = static_cast<std::int64_t>(in[i]) + min_raw;
    out[i] = static_cast<std::int32_t>(half_entry(entries, one, raw));
  }
}

void qgemm_accumulate_scalar(const std::int16_t* packed, std::size_t tiles,
                             std::size_t in_dim, const std::int32_t* x,
                             std::int32_t* acc, int fb, std::int32_t acc_min,
                             std::int32_t acc_max) {
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::int16_t* w = packed + tile * in_dim * 8;
    std::int32_t* a = acc + tile * 8;
    for (std::size_t i = 0; i < in_dim; ++i) {
      const std::int32_t xi = x[i];
      const std::int16_t* wp = w + i * 8;
      for (std::size_t lane = 0; lane < 8; ++lane) {
        // Exactly Fixed::mac per step: widen, truncate-shift (arithmetic =
        // floor), add, saturate. Products fit 2^30 and |acc + t| < 2^31 by
        // PackedQGemm::formats_supported, so int64 here never overflows.
        const std::int64_t product =
            static_cast<std::int64_t>(wp[lane]) * xi;
        const std::int64_t term = product >> fb;
        a[lane] = clamp_i32(static_cast<std::int64_t>(a[lane]) + term,
                            acc_min, acc_max);
      }
    }
  }
}

void conv3x3_mac_row_scalar(const std::int32_t* row0, const std::int32_t* row1,
                            const std::int32_t* row2,
                            const std::int32_t* filter9, std::size_t out_cols,
                            int fb, std::int32_t acc_min, std::int32_t acc_max,
                            std::int32_t* acc) {
  const std::int32_t* rows[3] = {row0, row1, row2};
  for (std::size_t c = 0; c < out_cols; ++c) {
    std::int32_t a = acc[c];
    for (int fr = 0; fr < 3; ++fr) {
      const std::int32_t* row = rows[fr] + c;
      for (int fc = 0; fc < 3; ++fc) {
        const std::int64_t product =
            static_cast<std::int64_t>(filter9[fr * 3 + fc]) * row[fc];
        a = clamp_i32(static_cast<std::int64_t>(a) + (product >> fb), acc_min,
                      acc_max);
      }
    }
    acc[c] = a;
  }
}

}  // namespace

std::int64_t table_entry_for_word(const TableView& view, std::int64_t min_raw,
                                  std::size_t word) noexcept {
  const std::int64_t raw = min_raw + static_cast<std::int64_t>(word);
  if (view.kind == TableKind::Dense) {
    return view.entries[word];
  }
  return half_entry(view.entries, half_one(view), raw);
}

std::size_t table_lookup_fixed(Backend backend, const TableView& view,
                               fp::Format fmt, const fp::Fixed* in,
                               fp::Fixed* out, std::size_t n) {
  const bool half = view.kind != TableKind::Dense;
  const std::int64_t one = half_one(view);
  std::size_t done = 0;
#if defined(NACU_HAVE_AVX2)
  if (backend == Backend::Avx2) {
    done = half ? detail::table_lookup_fixed_avx2_half(
                      view.entries, format_bits(fmt), one,
                      reinterpret_cast<const char*>(in),
                      reinterpret_cast<char*>(out), n)
                : detail::table_lookup_fixed_avx2(
                      view.entries, format_bits(fmt), fmt.min_raw(),
                      reinterpret_cast<const char*>(in),
                      reinterpret_cast<char*>(out), n);
  }
#else
  (void)backend;
  (void)format_bits;
#endif
  if (half) {
    return done + table_lookup_fixed_scalar_half(view.entries, one, fmt,
                                                 in + done, out + done,
                                                 n - done);
  }
  return done + table_lookup_fixed_scalar(view.entries, fmt, in + done,
                                          out + done, n - done);
}

std::size_t table_lookup_raw(Backend backend, const TableView& view,
                             std::int64_t min_raw, std::int64_t max_raw,
                             const std::int64_t* in, std::int64_t* out,
                             std::size_t n) {
  const bool half = view.kind != TableKind::Dense;
  const std::int64_t one = half_one(view);
  std::size_t done = 0;
#if defined(NACU_HAVE_AVX2)
  if (backend == Backend::Avx2) {
    done = half ? detail::table_lookup_raw_avx2_half(view.entries, one,
                                                     min_raw, max_raw, in,
                                                     out, n)
                : detail::table_lookup_raw_avx2(view.entries, min_raw,
                                                max_raw, in, out, n);
  }
#else
  (void)backend;
#endif
  if (half) {
    return done + table_lookup_raw_scalar_half(view.entries, one, min_raw,
                                               max_raw, in + done, out + done,
                                               n - done);
  }
  return done + table_lookup_raw_scalar(view.entries, min_raw, max_raw,
                                        in + done, out + done, n - done);
}

void table_lookup_i32(Backend backend, const TableView& view,
                      std::int64_t min_raw, const std::int32_t* in,
                      std::int32_t* out, std::size_t n) {
  const bool half = view.kind != TableKind::Dense;
  const std::int64_t one = half_one(view);
#if defined(NACU_HAVE_AVX2)
  if (backend == Backend::Avx2) {
    if (half) {
      detail::table_lookup_i32_avx2_half(view.entries, one, min_raw, in, out,
                                         n);
    } else {
      detail::table_lookup_i32_avx2(view.entries, in, out, n);
    }
    return;
  }
#else
  (void)backend;
#endif
  if (half) {
    table_lookup_i32_scalar_half(view.entries, one, min_raw, in, out, n);
  } else {
    table_lookup_i32_scalar(view.entries, in, out, n);
  }
}

void qgemm_accumulate(Backend backend, const std::int16_t* packed,
                      std::size_t tiles, std::size_t in_dim,
                      const std::int32_t* x, std::int32_t* acc, int fb,
                      std::int32_t acc_min, std::int32_t acc_max) {
#if defined(NACU_HAVE_AVX2)
  if (backend == Backend::Avx2) {
    detail::qgemm_accumulate_avx2(packed, tiles, in_dim, x, acc, fb, acc_min,
                                  acc_max);
    return;
  }
#else
  (void)backend;
#endif
  qgemm_accumulate_scalar(packed, tiles, in_dim, x, acc, fb, acc_min,
                          acc_max);
}

void conv3x3_mac_row(Backend backend, const std::int32_t* row0,
                     const std::int32_t* row1, const std::int32_t* row2,
                     const std::int32_t* filter9, std::size_t out_cols,
                     int fb, std::int32_t acc_min, std::int32_t acc_max,
                     std::int32_t* acc) {
#if defined(NACU_HAVE_AVX2)
  if (backend == Backend::Avx2) {
    detail::conv3x3_mac_row_avx2(row0, row1, row2, filter9, out_cols, fb,
                                 acc_min, acc_max, acc);
    return;
  }
#else
  (void)backend;
#endif
  conv3x3_mac_row_scalar(row0, row1, row2, filter9, out_cols, fb, acc_min,
                         acc_max, acc);
}

}  // namespace nacu::simd
