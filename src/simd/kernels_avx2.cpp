// AVX2 implementations of the simd/kernels.hpp entry points.
//
// This TU is compiled with -mavx2 (see simd/CMakeLists.txt) and must stay
// self-contained: it deliberately includes NO repo headers, because any
// inline function this TU instantiates could be the copy the linker keeps,
// silently planting AVX2 instructions in code paths that run on non-AVX2
// hosts. Fixed spans arrive as char* and the [int64 raw][8-byte Format]
// layout is guaranteed by the static_asserts in kernels.cpp.
//
// Dense-table gather without out-of-bounds reads: the tables are int16 but
// _mm256_i32gather_epi32 reads 4 bytes per lane, so gathering at byte
// offset 2*word would read past the end for the last entry. Instead gather
// the aligned dword pair at half = word >> 1 (max byte touched is
// 4*((2^w-1)>>1) + 3 = 2^(w+1) - 1, the table's last byte), then shift the
// wanted half into the low 16 bits with a per-lane variable shift and
// sign-extend. One gather replaces 8 dependent loads.

#if defined(NACU_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace nacu::simd::detail {

namespace {

/// Dword-lane indices selecting the low halves of four qwords in order.
inline __m256i qword_low_dwords() noexcept {
  return _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
}

/// Gather table[word] for 8 int16-table indices held as dwords.
inline __m256i gather_i16(const std::int16_t* table, __m256i words) noexcept {
  const __m256i half = _mm256_srli_epi32(words, 1);
  const __m256i pairs = _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(table), half, 4);
  const __m256i shift =
      _mm256_slli_epi32(_mm256_and_si256(words, _mm256_set1_epi32(1)), 4);
  const __m256i shifted = _mm256_srlv_epi32(pairs, shift);
  // Sign-extend the low 16 bits of each dword lane.
  return _mm256_srai_epi32(_mm256_slli_epi32(shifted, 16), 16);
}

/// clamp(add) in int32 lanes. The callers guarantee |a + b| < 2^31.
inline __m256i add_clamp_epi32(__m256i a, __m256i b, __m256i lo,
                               __m256i hi) noexcept {
  const __m256i sum = _mm256_add_epi32(a, b);
  return _mm256_min_epi32(_mm256_max_epi32(sum, lo), hi);
}

}  // namespace

std::size_t table_lookup_fixed_avx2(const std::int16_t* table,
                                    std::int64_t fmt_bits,
                                    std::int64_t min_raw, const char* in,
                                    char* out, std::size_t n) {
  const __m256i fmt_v = _mm256_set1_epi64x(fmt_bits);
  const __m256i min_v = _mm256_set1_epi64x(min_raw);
  const __m256i low_dwords = qword_low_dwords();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const char* p = in + i * 16;
    // Each 32-byte load covers two Fixed: qwords [raw, fmt, raw', fmt'].
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 0));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const __m256i v2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 64));
    const __m256i v3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 96));
    // unpack splits raws from formats (qword order [0,2,1,3] per pair).
    const __m256i raws_a = _mm256_unpacklo_epi64(v0, v1);
    const __m256i raws_b = _mm256_unpacklo_epi64(v2, v3);
    const __m256i fmts_a = _mm256_unpackhi_epi64(v0, v1);
    const __m256i fmts_b = _mm256_unpackhi_epi64(v2, v3);
    const __m256i eq_a = _mm256_cmpeq_epi64(fmts_a, fmt_v);
    const __m256i eq_b = _mm256_cmpeq_epi64(fmts_b, fmt_v);
    if (_mm256_movemask_epi8(_mm256_and_si256(eq_a, eq_b)) != -1) {
      // Format mismatch somewhere in this block: no stores were issued, so
      // the scalar loop can take over at element i and pinpoint it.
      return i;
    }
    // word = raw - min_raw fits one dword (width <= 16); compact the qword
    // low halves of both vectors into one 8-dword index vector. The
    // interleaved order is kept on purpose: after widening, unpacklo/hi
    // against the format qword reproduces memory order directly.
    const __m256i words_a = _mm256_sub_epi64(raws_a, min_v);
    const __m256i words_b = _mm256_sub_epi64(raws_b, min_v);
    const __m256i idx = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(words_a, low_dwords),
        _mm256_permutevar8x32_epi32(words_b, low_dwords), 0xF0);
    const __m256i vals = gather_i16(table, idx);
    const __m256i lo4 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(vals));
    const __m256i hi4 =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(vals, 1));
    char* q = out + i * 16;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 0),
                        _mm256_unpacklo_epi64(lo4, fmt_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 32),
                        _mm256_unpackhi_epi64(lo4, fmt_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 64),
                        _mm256_unpacklo_epi64(hi4, fmt_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 96),
                        _mm256_unpackhi_epi64(hi4, fmt_v));
  }
  return i;
}

std::size_t table_lookup_raw_avx2(const std::int16_t* table,
                                  std::int64_t min_raw, std::int64_t max_raw,
                                  const std::int64_t* in, std::int64_t* out,
                                  std::size_t n) {
  const __m256i min_v = _mm256_set1_epi64x(min_raw);
  const __m256i max_v = _mm256_set1_epi64x(max_raw);
  const __m256i low_dwords = qword_low_dwords();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i + 4));
    const __m256i bad = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpgt_epi64(min_v, a),
                        _mm256_cmpgt_epi64(a, max_v)),
        _mm256_or_si256(_mm256_cmpgt_epi64(min_v, b),
                        _mm256_cmpgt_epi64(b, max_v)));
    if (_mm256_movemask_epi8(bad) != 0) {
      // Out-of-range raw in this block: nothing stored, the scalar loop
      // resumes at i and stops exactly at the offending element.
      return i;
    }
    const __m256i words_a = _mm256_sub_epi64(a, min_v);
    const __m256i words_b = _mm256_sub_epi64(b, min_v);
    const __m256i idx = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(words_a, low_dwords),
        _mm256_permutevar8x32_epi32(words_b, low_dwords), 0xF0);
    const __m256i vals = gather_i16(table, idx);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(vals)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(vals, 1)));
  }
  return i;
}

void table_lookup_i32_avx2(const std::int16_t* table, const std::int32_t* in,
                           std::int32_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i words =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        gather_i16(table, words));
  }
  for (; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

void qgemm_accumulate_avx2(const std::int16_t* packed, std::size_t tiles,
                           std::size_t in_dim, const std::int32_t* x,
                           std::int32_t* acc, int fb, std::int32_t acc_min,
                           std::int32_t acc_max) {
  const __m256i lo = _mm256_set1_epi32(acc_min);
  const __m256i hi = _mm256_set1_epi32(acc_max);
  const __m128i shift = _mm_cvtsi32_si128(fb);
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::int16_t* w = packed + tile * in_dim * 8;
    std::int32_t* a = acc + tile * 8;
    __m256i acc_v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    for (std::size_t i = 0; i < in_dim; ++i) {
      const __m256i w8 = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i * 8)));
      const __m256i xi = _mm256_set1_epi32(x[i]);
      // |w*x| <= 2^30 so the 32-bit product is exact, and |acc + term| <
      // 2^31 (formats_supported caps acc at 2^28) so the lane add cannot
      // wrap before the clamp — identical to the scalar int64 formulation.
      const __m256i prod = _mm256_mullo_epi32(w8, xi);
      const __m256i term = _mm256_sra_epi32(prod, shift);
      acc_v = add_clamp_epi32(acc_v, term, lo, hi);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), acc_v);
  }
}

void conv3x3_mac_row_avx2(const std::int32_t* row0, const std::int32_t* row1,
                          const std::int32_t* row2,
                          const std::int32_t* filter9, std::size_t out_cols,
                          int fb, std::int32_t acc_min, std::int32_t acc_max,
                          std::int32_t* acc) {
  const __m256i lo = _mm256_set1_epi32(acc_min);
  const __m256i hi = _mm256_set1_epi32(acc_max);
  const __m128i shift = _mm_cvtsi32_si128(fb);
  const std::int32_t* rows[3] = {row0, row1, row2};
  std::size_t c = 0;
  for (; c + 8 <= out_cols; c += 8) {
    __m256i acc_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + c));
    for (int fr = 0; fr < 3; ++fr) {
      const std::int32_t* row = rows[fr] + c;
      for (int fc = 0; fc < 3; ++fc) {
        const __m256i f = _mm256_set1_epi32(filter9[fr * 3 + fc]);
        const __m256i r = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + fc));
        const __m256i term =
            _mm256_sra_epi32(_mm256_mullo_epi32(f, r), shift);
        acc_v = add_clamp_epi32(acc_v, term, lo, hi);
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c), acc_v);
  }
  for (; c < out_cols; ++c) {
    std::int32_t a = acc[c];
    for (int fr = 0; fr < 3; ++fr) {
      const std::int32_t* row = rows[fr] + c;
      for (int fc = 0; fc < 3; ++fc) {
        const std::int64_t product =
            static_cast<std::int64_t>(filter9[fr * 3 + fc]) * row[fc];
        std::int64_t v = static_cast<std::int64_t>(a) + (product >> fb);
        if (v < acc_min) {
          v = acc_min;
        } else if (v > acc_max) {
          v = acc_max;
        }
        a = static_cast<std::int32_t>(v);
      }
    }
    acc[c] = a;
  }
}

// ---- Half-range table kernels (TableKind::HalfSigmoid / HalfOdd) ----
//
// Storage holds only the non-negative half: entries[i] = f(+i) for
// i <= max_raw, plus a pre-inverted slot at max_raw + 1 covering min_raw
// (|min_raw| = max_raw + 1, so plain |raw| indexing needs no special
// case). The negative side reconstructs in registers via the paper's
// Eq. 3 symmetry: out = neg ? one_raw − v + corr : v, where HalfSigmoid
// entries (one_raw = 2^fb) are corr-packed — sample in bits [0,14], +1
// correction in bit 15 (see kernels.hpp) — and HalfOdd entries
// (one_raw = 0) are plain signed samples. `packed` keys off one_raw so
// one mask pair makes the same lane sequence serve both: vmask strips
// the correction bit (all-ones for odd) and cmask gates the +1 term.

std::size_t table_lookup_fixed_avx2_half(const std::int16_t* table,
                                         std::int64_t fmt_bits,
                                         std::int64_t one_raw, const char* in,
                                         char* out, std::size_t n) {
  const __m256i fmt_v = _mm256_set1_epi64x(fmt_bits);
  const __m256i one_dw = _mm256_set1_epi32(static_cast<int>(one_raw));
  const bool packed = one_raw != 0;
  const __m256i vmask = _mm256_set1_epi32(packed ? 0x7FFF : -1);
  const __m256i cmask = _mm256_set1_epi32(packed ? 1 : 0);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i low_dwords = qword_low_dwords();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const char* p = in + i * 16;
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 0));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const __m256i v2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 64));
    const __m256i v3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 96));
    const __m256i raws_a = _mm256_unpacklo_epi64(v0, v1);
    const __m256i raws_b = _mm256_unpacklo_epi64(v2, v3);
    const __m256i fmts_a = _mm256_unpackhi_epi64(v0, v1);
    const __m256i fmts_b = _mm256_unpackhi_epi64(v2, v3);
    const __m256i eq_a = _mm256_cmpeq_epi64(fmts_a, fmt_v);
    const __m256i eq_b = _mm256_cmpeq_epi64(fmts_b, fmt_v);
    if (_mm256_movemask_epi8(_mm256_and_si256(eq_a, eq_b)) != -1) {
      return i;
    }
    // |raw| via the two's-complement identity (x ^ m) − m with m the
    // all-ones negative mask; |min_raw| = max_raw + 1 stays in range.
    const __m256i neg_a = _mm256_cmpgt_epi64(zero, raws_a);
    const __m256i neg_b = _mm256_cmpgt_epi64(zero, raws_b);
    const __m256i mag_a =
        _mm256_sub_epi64(_mm256_xor_si256(raws_a, neg_a), neg_a);
    const __m256i mag_b =
        _mm256_sub_epi64(_mm256_xor_si256(raws_b, neg_b), neg_b);
    const __m256i idx = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(mag_a, low_dwords),
        _mm256_permutevar8x32_epi32(mag_b, low_dwords), 0xF0);
    const __m256i negd = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(neg_a, low_dwords),
        _mm256_permutevar8x32_epi32(neg_b, low_dwords), 0xF0);
    const __m256i vals_g = gather_i16(table, idx);
    const __m256i vals = _mm256_and_si256(vals_g, vmask);
    const __m256i corr =
        _mm256_and_si256(_mm256_srli_epi32(vals_g, 15), cmask);
    const __m256i recon =
        _mm256_add_epi32(_mm256_sub_epi32(one_dw, vals), corr);
    const __m256i res = _mm256_blendv_epi8(vals, recon, negd);
    const __m256i lo4 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(res));
    const __m256i hi4 =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(res, 1));
    char* q = out + i * 16;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 0),
                        _mm256_unpacklo_epi64(lo4, fmt_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 32),
                        _mm256_unpackhi_epi64(lo4, fmt_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 64),
                        _mm256_unpacklo_epi64(hi4, fmt_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 96),
                        _mm256_unpackhi_epi64(hi4, fmt_v));
  }
  return i;
}

std::size_t table_lookup_raw_avx2_half(const std::int16_t* table,
                                       std::int64_t one_raw,
                                       std::int64_t min_raw,
                                       std::int64_t max_raw,
                                       const std::int64_t* in,
                                       std::int64_t* out, std::size_t n) {
  const __m256i min_v = _mm256_set1_epi64x(min_raw);
  const __m256i max_v = _mm256_set1_epi64x(max_raw);
  const __m256i one_dw = _mm256_set1_epi32(static_cast<int>(one_raw));
  const bool packed = one_raw != 0;
  const __m256i vmask = _mm256_set1_epi32(packed ? 0x7FFF : -1);
  const __m256i cmask = _mm256_set1_epi32(packed ? 1 : 0);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i low_dwords = qword_low_dwords();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i + 4));
    const __m256i bad = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpgt_epi64(min_v, a),
                        _mm256_cmpgt_epi64(a, max_v)),
        _mm256_or_si256(_mm256_cmpgt_epi64(min_v, b),
                        _mm256_cmpgt_epi64(b, max_v)));
    if (_mm256_movemask_epi8(bad) != 0) {
      return i;
    }
    const __m256i neg_a = _mm256_cmpgt_epi64(zero, a);
    const __m256i neg_b = _mm256_cmpgt_epi64(zero, b);
    const __m256i mag_a = _mm256_sub_epi64(_mm256_xor_si256(a, neg_a), neg_a);
    const __m256i mag_b = _mm256_sub_epi64(_mm256_xor_si256(b, neg_b), neg_b);
    const __m256i idx = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(mag_a, low_dwords),
        _mm256_permutevar8x32_epi32(mag_b, low_dwords), 0xF0);
    const __m256i negd = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(neg_a, low_dwords),
        _mm256_permutevar8x32_epi32(neg_b, low_dwords), 0xF0);
    const __m256i vals_g = gather_i16(table, idx);
    const __m256i vals = _mm256_and_si256(vals_g, vmask);
    const __m256i corr =
        _mm256_and_si256(_mm256_srli_epi32(vals_g, 15), cmask);
    const __m256i recon =
        _mm256_add_epi32(_mm256_sub_epi32(one_dw, vals), corr);
    const __m256i res = _mm256_blendv_epi8(vals, recon, negd);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(res)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(res, 1)));
  }
  return i;
}

void table_lookup_i32_avx2_half(const std::int16_t* table,
                                std::int64_t one_raw, std::int64_t min_raw,
                                const std::int32_t* in, std::int32_t* out,
                                std::size_t n) {
  const __m256i min_dw = _mm256_set1_epi32(static_cast<int>(min_raw));
  const __m256i one_dw = _mm256_set1_epi32(static_cast<int>(one_raw));
  const bool packed = one_raw != 0;
  const __m256i vmask = _mm256_set1_epi32(packed ? 0x7FFF : -1);
  const __m256i cmask = _mm256_set1_epi32(packed ? 1 : 0);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i words =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i raws = _mm256_add_epi32(words, min_dw);
    const __m256i negd = _mm256_cmpgt_epi32(zero, raws);
    const __m256i mag = _mm256_abs_epi32(raws);
    const __m256i vals_g = gather_i16(table, mag);
    const __m256i vals = _mm256_and_si256(vals_g, vmask);
    const __m256i corr =
        _mm256_and_si256(_mm256_srli_epi32(vals_g, 15), cmask);
    const __m256i recon =
        _mm256_add_epi32(_mm256_sub_epi32(one_dw, vals), corr);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_blendv_epi8(vals, recon, negd));
  }
  for (; i < n; ++i) {
    const std::int64_t raw = static_cast<std::int64_t>(in[i]) + min_raw;
    const auto g = static_cast<std::uint16_t>(
        table[static_cast<std::size_t>(raw >= 0 ? raw : -raw)]);
    const std::int64_t v =
        packed ? (g & 0x7FFF) : static_cast<std::int16_t>(g);
    const std::int64_t c = packed ? (g >> 15) : 0;
    out[i] = static_cast<std::int32_t>(raw >= 0 ? v : one_raw - v + c);
  }
}

}  // namespace nacu::simd::detail

#endif  // NACU_HAVE_AVX2
