// Vectorizable kernels behind the Backend dispatch (simd/dispatch.hpp).
//
// Each kernel exists twice: a portable scalar loop (the reference, compiled
// everywhere) and an AVX2 implementation in its own TU (kernels_avx2.cpp,
// compiled with -mavx2, absent under -DNACU_FORCE_SCALAR=ON or on non-x86
// targets). The entry points here pick between them from the Backend
// argument — resolved once by the caller, never per element — and both
// implementations are bit-identical by contract, enforced by
// tests/test_simd_differential.cpp.
//
// All kernels work on *raw* fixed-point integers (or on fp::Fixed spans
// whose raw/format layout a runtime probe has verified), because the
// datapath semantics live entirely in the raws: a dense activation table is
// raw→raw, and the MAC chain is clamp(acc + ((w*x) >> fb)) per step (see
// core/nacu.cpp's Fixed::mac reduction).
//
// ## Table views: dense, half-range, PWL-coefficient
//
// Activation tables come in three physical layouts behind one TableView
// descriptor. The symmetric functions obey the paper's §IV algebra
// (Eq. 3): σ(−x) = 1 − σ(x) and tanh(−x) = −tanh(x), so only the
// non-negative half needs storing — the other half is reconstructed in
// registers, halving the cache working set per (function, config):
//
//   Dense        entries[raw − min_raw], 2^width × 2 B.
//   HalfSigmoid  entries[|raw|], max_raw + 2 entries, *corr-packed*: the
//                sample sits in bits [0,14] and bit 15 is a +1 correction
//                for the negative side. Positive inputs read v & 0x7FFF;
//                negative inputs reconstruct as
//                one_raw − (v & 0x7FFF) + (v >> 15).
//   HalfOdd      same storage, plain signed samples; negative inputs
//                reconstruct as −entries[−raw] (one_raw is 0).
//   Pwl          no samples at all: per-segment morphed (coefficient,
//                bias) LUTs replaying the Fig. 2 multiply-add per element.
//
// Why the correction bit: the hardware's negative σ branch morphs the
// segment coefficients with the Fig. 3 bit tricks (one's-complement style
// negation), so at the raw level σ(−x) lands on 1 − σ(x) + 1 for a small
// input-dependent subset of raws — the exact Eq. 3 identity holds only in
// real arithmetic. σ outputs occupy just fb + 1 ≤ 15 bits of the int16
// entry, so the spare top bit stores that per-entry +1 and the fold stays
// bit-identical. Kernels key "packed" off one_raw != 0 (HalfOdd is always
// published with one_raw == 0), so HalfOdd lanes pay no masking.
//
// Half-range layout detail: |min_raw| = max_raw + 1 does not fold onto a
// stored positive raw, so the table carries one extra slot at index
// max_raw + 1 holding the *pre-inverted* value (correction bit clear) —
// the uniform negative-side reconstruct then lands exactly on the dense
// table's min_raw entry with no special case in the SIMD lanes.
// Bit-identity of every reconstruction is verified exhaustively at build
// time by core::BatchNacu, which falls back to Dense when any word
// disagrees (e.g. a config whose morph undershoots instead: a −1
// correction has no encoding and rejects the fold).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fixedpoint/fixed.hpp"
#include "fixedpoint/format.hpp"
#include "fixedpoint/rounding.hpp"
#include "simd/dispatch.hpp"

namespace nacu::simd {

/// Physical layout of an activation table behind a TableView.
enum class TableKind : std::uint8_t {
  Dense,        ///< full 2^width raw→raw sample table
  HalfSigmoid,  ///< corr-packed half; negatives via one_raw − v + corr bit
  HalfOdd,      ///< non-negative half; negatives via −v (tanh oddness)
  Pwl,          ///< compact per-segment (coeff, bias) LUTs + FMA, no samples
};

/// Compact PWL-coefficient table: the Fig. 2 datapath folded into four
/// small per-segment LUTs (two logical LUTs — slope and intercept — split
/// by input sign so the Eq. 9–11 morphs are pre-applied). Everything is
/// plain raws so the evaluation is integer FMA + rounded shift, exactly
/// replaying core::Nacu::evaluate_pwl; core::BatchNacu verifies that
/// replay exhaustively before ever exposing one of these.
struct PwlTable {
  const std::int64_t* coeff_pos = nullptr;  ///< morphed coeff, x >= 0
  const std::int64_t* bias_pos = nullptr;   ///< morphed bias, x >= 0
  const std::int64_t* coeff_neg = nullptr;  ///< morphed coeff, x < 0
  const std::int64_t* bias_neg = nullptr;   ///< morphed bias, x < 0
  std::size_t segments = 0;
  std::int64_t x_max_raw = 0;    ///< segment-search clamp (LUT domain edge)
  std::int64_t mag_max_raw = 0;  ///< |x| saturation bound (format max_raw)
  bool tanh_stretch = false;     ///< segment from 2|x| (Eq. 3), saturating
  int bias_shift = 0;            ///< fb_x: aligns bias into the product fb
  int out_shift = 0;             ///< fb_c: output requantisation shift
  fp::Rounding rounding = fp::Rounding::Truncate;
  std::int64_t out_min = 0;      ///< output saturation bounds (format raws)
  std::int64_t out_max = 0;
};

/// One activation table as the kernels see it. Non-owning: the entry /
/// PWL storage belongs to the builder (core::BatchNacu), which keeps it
/// alive for the view's lifetime and never mutates layout after publish.
struct TableView {
  TableKind kind = TableKind::Dense;
  /// Dense: 2^width entries. Half*: max_raw + 2 entries, padded to an even
  /// count so the dword-pair gather trick never reads past the allocation.
  /// Pwl: nullptr.
  const std::int16_t* entries = nullptr;
  /// HalfSigmoid: the raw of 1.0 (2^fb) for the 1 − σ reconstruct;
  /// HalfOdd/others: 0 (making `one_raw − v` the uniform negative path).
  std::int32_t one_raw = 0;
  const PwlTable* pwl = nullptr;  ///< set iff kind == Pwl
};

/// Whether fp::Fixed is laid out as [int64 raw][Format] with no padding —
/// probed once at runtime. The vector Fixed-span kernels depend on it; when
/// the probe fails (exotic ABI), table_lookup_fixed stays scalar and bumps
/// the one-time `simd.fallback.abi_probe` obs counter so the degradation is
/// visible instead of silent.
[[nodiscard]] bool fixed_layout_is_raw_then_format() noexcept;

/// Evaluate the compact PWL form for one input raw (the scalar reference
/// for TableKind::Pwl; also the armed-fault and scrub reconstruction path).
[[nodiscard]] std::int64_t pwl_eval_raw(const PwlTable& t,
                                        std::int64_t raw) noexcept;

/// The clean (fault-free) table entry for a *dense-domain* word index —
/// word = raw − min_raw over the full 2^width domain regardless of the
/// physical layout. This is what armed fault ports intercept: the fault
/// surface's word addressing is stable across Dense/Half*/Pwl layouts, so
/// PR 2's injection contract and PR 7's verify-before-release parity check
/// hold unchanged on compressed tables.
[[nodiscard]] std::int64_t table_entry_for_word(const TableView& view,
                                               std::int64_t min_raw,
                                               std::size_t word) noexcept;

/// Activation lookup over a span of fp::Fixed through a TableView:
///   out[i] = Fixed(entry(in[i].raw()), fmt)
/// for every in[i] whose format equals @p fmt. Stops at the first element
/// with a different format and returns the number of elements processed
/// (== n on full success) so the caller can raise its own diagnostic.
/// `in` and `out` may alias exactly. Raws are trusted to be in range —
/// guaranteed by the Fixed class invariant once the format matches.
[[nodiscard]] std::size_t table_lookup_fixed(Backend backend,
                                             const TableView& view,
                                             fp::Format fmt,
                                             const fp::Fixed* in,
                                             fp::Fixed* out, std::size_t n);

/// Activation lookup over raw int64 values through a TableView:
///   out[i] = entry(in[i])  for min_raw <= in[i] <= max_raw.
/// Stops at the first out-of-range raw and returns the count processed.
/// `in` and `out` may alias exactly.
[[nodiscard]] std::size_t table_lookup_raw(Backend backend,
                                           const TableView& view,
                                           std::int64_t min_raw,
                                           std::int64_t max_raw,
                                           const std::int64_t* in,
                                           std::int64_t* out, std::size_t n);

/// Unchecked activation lookup over int32 words already rebased to dense
/// table indices (word = raw − min_raw): out[i] = entry(word[i]). Used
/// inside fused paths (softmax exp pass) where the indices were produced by
/// a clamping kernel and cannot be out of range. @p min_raw un-rebases the
/// word for the Half*/Pwl layouts. `in` and `out` may alias exactly.
void table_lookup_i32(Backend backend, const TableView& view,
                      std::int64_t min_raw, const std::int32_t* in,
                      std::int32_t* out, std::size_t n);

/// Fused quantized GEMV accumulation over tile-packed int16 weights
/// (simd/qgemm.hpp packs them). For each output lane o of each 8-wide tile:
///   for i in [0, in_dim):
///     acc[o] = clamp(acc[o] + ((w[o][i] * x[i]) >> fb), acc_min, acc_max)
/// with >> an arithmetic shift — exactly Fixed::mac's per-step truncate +
/// saturate reduction when acc.fb == data.fb (PackedQGemm::formats_supported
/// guarantees every intermediate fits an int32 lane). `acc` holds
/// tiles*8 int32 accumulators (bias-preloaded by the caller).
void qgemm_accumulate(Backend backend, const std::int16_t* packed,
                      std::size_t tiles, std::size_t in_dim,
                      const std::int32_t* x, std::int32_t* acc, int fb,
                      std::int32_t acc_min, std::int32_t acc_max);

/// Fused 3x3 convolution MAC across one output row (valid padding):
///   for c in [0, out_cols):
///     for fr in 0..2: for fc in 0..2:
///       acc[c] = clamp(acc[c] + ((filter9[fr*3+fc] * rowfr[c+fc]) >> fb),
///                      acc_min, acc_max)
/// — the tap order (fr-major, fc-minor) matches nn/conv.cpp's scalar loop,
/// so every per-step clamp lands identically. row0/row1/row2 point at the
/// quantized image rows r, r+1, r+2; each must have out_cols + 2 readable
/// elements. `acc` is pre-loaded (zero for conv) by the caller.
void conv3x3_mac_row(Backend backend, const std::int32_t* row0,
                     const std::int32_t* row1, const std::int32_t* row2,
                     const std::int32_t* filter9, std::size_t out_cols,
                     int fb, std::int32_t acc_min, std::int32_t acc_max,
                     std::int32_t* acc);

}  // namespace nacu::simd
