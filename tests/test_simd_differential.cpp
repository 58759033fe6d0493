// Differential proof that the SIMD kernel layer is bit-identical to the
// portable scalar loops — and that both are bit-identical to the Fig. 2
// datapath semantics they accelerate.
//
// Everything is exhaustive or adversarial: table lookups sweep all 2^16
// representable inputs per config variant — across both backends (scalar
// and, where the build carries it and the host runs it, AVX2) and every
// table layout (Dense, HalfRange, Pwl) — the fused GEMV is checked against
// a NACU MAC chain (including saturation-stressed cases where accumulation
// ORDER changes the answer, so any reassociation would be caught), and the
// armed fault-injection path is pinned to its PR 2 semantics across
// backends AND table modes. Under -DNACU_FORCE_SCALAR=ON (or on a host
// without AVX2) the SIMD half of every comparison degrades to
// scalar-vs-scalar and the suite still proves the dispatch layer routes
// correctly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "core/batch_nacu.hpp"
#include "core/nacu.hpp"
#include "fault/fault_injector.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/quantized_mlp.hpp"
#include "nn/rng.hpp"
#include "simd/aligned.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/qgemm.hpp"

namespace nacu {
namespace {

using core::BatchNacu;
using core::Nacu;
using core::NacuConfig;

/// Backends to differentially compare: scalar always, AVX2 when this build
/// carries its kernels and the host can run them.
std::vector<simd::Backend> backends() {
  std::vector<simd::Backend> list{simd::Backend::Scalar};
  if (simd::avx2_available()) {
    list.push_back(simd::Backend::Avx2);
  }
  return list;
}

/// Table layouts to differentially compare. Explicit modes (never Auto) so
/// the process-wide resident-byte total other tests contribute to cannot
/// flip a layout choice mid-suite. Explicit modes still verify-and-fall-back
/// at build time, so a variant whose datapath breaks a symmetry simply lands
/// on a safer layout — the bit-identity sweep holds either way.
std::vector<std::pair<const char*, BatchNacu::TableMode>> table_modes() {
  return {{"dense", BatchNacu::TableMode::Dense},
          {"half-range", BatchNacu::TableMode::HalfRange},
          {"pwl", BatchNacu::TableMode::Pwl}};
}

/// Same datapath variants as test_batch_differential.cpp: every config
/// switch that changes bit behaviour.
std::vector<std::pair<const char*, NacuConfig>> config_variants() {
  std::vector<std::pair<const char*, NacuConfig>> variants;
  variants.emplace_back("default", core::config_for_bits(16));
  NacuConfig general = core::config_for_bits(16);
  general.use_bit_trick_units = false;
  variants.emplace_back("general-subtractors", general);
  NacuConfig truncate = core::config_for_bits(16);
  truncate.output_rounding = fp::Rounding::Truncate;
  variants.emplace_back("truncate-rounding", truncate);
  NacuConfig approx = core::config_for_bits(16);
  approx.approximate_reciprocal = true;
  variants.emplace_back("approx-reciprocal", approx);
  NacuConfig refined = core::config_for_bits(16);
  refined.refine_quantised_lut = true;
  variants.emplace_back("refined-lut", refined);
  return variants;
}

std::vector<fp::Fixed> full_domain(fp::Format fmt) {
  std::vector<fp::Fixed> xs;
  xs.reserve(static_cast<std::size_t>(fmt.max_raw() - fmt.min_raw() + 1));
  for (std::int64_t raw = fmt.min_raw(); raw <= fmt.max_raw(); ++raw) {
    xs.push_back(fp::Fixed::from_raw(raw, fmt));
  }
  return xs;
}

/// A deterministic int16 table covering the full raw range (any int16 is a
/// valid width-16 raw, so no masking needed).
std::vector<std::int16_t> synthetic_table(std::size_t entries) {
  std::vector<std::int16_t> table(entries);
  std::uint32_t h = 0x9E3779B9u;
  for (std::size_t k = 0; k < entries; ++k) {
    h = h * 1664525u + 1013904223u;
    table[k] = static_cast<std::int16_t>(h >> 16);
  }
  return table;
}

/// A Dense TableView over @p table.
simd::TableView dense_view(const std::vector<std::int16_t>& table) {
  simd::TableView view;
  view.entries = table.data();
  return view;
}

constexpr BatchNacu::Function kFunctions[] = {BatchNacu::Function::Sigmoid,
                                              BatchNacu::Function::Tanh,
                                              BatchNacu::Function::Exp};

TEST(SimdDispatch, ResolveClampsAndEnvOverrideWorks) {
  EXPECT_EQ(simd::resolve(simd::Backend::Scalar), simd::Backend::Scalar);
  EXPECT_EQ(simd::resolve(simd::Backend::Avx2),
            simd::avx2_available() ? simd::Backend::Avx2
                                   : simd::Backend::Scalar);
  EXPECT_STREQ(simd::backend_name(simd::Backend::Scalar), "scalar");
  EXPECT_STREQ(simd::backend_name(simd::Backend::Avx2), "avx2");

  ::unsetenv("NACU_BACKEND");
  const simd::Backend unset = simd::detect_backend();
  ::setenv("NACU_BACKEND", "scalar", 1);
  EXPECT_EQ(simd::detect_backend(), simd::Backend::Scalar);
  ::setenv("NACU_BACKEND", "avx2", 1);
  EXPECT_EQ(simd::detect_backend(), simd::resolve(simd::Backend::Avx2));
  // Any other value, the names of backends this layer no longer has
  // included, leaves the CPUID pick.
  for (const char* gone : {"avx512", "neon"}) {
    ::setenv("NACU_BACKEND", gone, 1);
    EXPECT_EQ(simd::detect_backend(), unset) << gone;
  }
  ::unsetenv("NACU_BACKEND");

  simd::set_active_backend(simd::Backend::Scalar);
  EXPECT_EQ(simd::active_backend(), simd::Backend::Scalar);
  simd::clear_backend_override();
  EXPECT_EQ(simd::active_backend(), simd::detect_backend());
}

TEST(SimdDispatch, EngineBackendIsPinnedAtConstruction) {
  // Options::backend resolves against host availability ONCE, in the
  // BatchNacu constructor. Process-wide overrides landing afterwards —
  // set_active_backend or a NACU_BACKEND change — must not retarget a live
  // engine, so a batch never changes ISA mid-flight.
  const NacuConfig config = core::config_for_bits(16);
  const BatchNacu engine{config, BatchNacu::Options{}};
  const simd::Backend constructed = engine.backend();
  // backend() reports a resolved pick: resolving it again is a fixpoint.
  EXPECT_EQ(simd::resolve(constructed), constructed);

  const std::vector<fp::Fixed> xs = full_domain(config.format);
  const std::vector<fp::Fixed> before =
      engine.evaluate(BatchNacu::Function::Sigmoid, xs);

  simd::set_active_backend(simd::Backend::Scalar);
  ::setenv("NACU_BACKEND", "scalar", 1);
  EXPECT_EQ(engine.backend(), constructed)
      << "live engine retargeted by a post-construction override";
  const std::vector<fp::Fixed> after =
      engine.evaluate(BatchNacu::Function::Sigmoid, xs);

  // A NEW engine constructed under the override does pick it up — the
  // override is for future construction, not for engines in flight.
  const BatchNacu fresh{config, BatchNacu::Options{}};
  EXPECT_EQ(fresh.backend(), simd::Backend::Scalar);

  simd::clear_backend_override();
  ::unsetenv("NACU_BACKEND");

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i].raw(), after[i].raw()) << "element " << i;
  }
}

TEST(SimdKernels, FixedLayoutSupportsTheSpanKernel) {
  // x86-64 gcc/clang lay fp::Fixed out as [int64 raw][Format]; the probe
  // must agree, otherwise the AVX2 Fixed-span path silently never engages.
  EXPECT_TRUE(simd::fixed_layout_is_raw_then_format());
}

TEST(SimdKernels, TableLookupFixedExhaustiveBitIdentical) {
  const fp::Format fmt = core::config_for_bits(16).format;
  const auto entries =
      static_cast<std::size_t>(fmt.max_raw() - fmt.min_raw() + 1);
  const std::vector<std::int16_t> table = synthetic_table(entries);
  const std::vector<fp::Fixed> xs = full_domain(fmt);
  for (const simd::Backend backend : backends()) {
    // Both an aligned run over the whole domain and a deliberately
    // misaligned one (offset 1, odd length) so every AVX2 head/tail
    // combination is exercised.
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const std::size_t n = xs.size() - offset - (offset != 0 ? 2 : 0);
      std::vector<fp::Fixed> out(n, fp::Fixed::zero(fmt));
      const std::size_t done = simd::table_lookup_fixed(
          backend, dense_view(table), fmt, xs.data() + offset, out.data(), n);
      ASSERT_EQ(done, n) << simd::backend_name(backend);
      for (std::size_t i = 0; i < n; ++i) {
        const auto word =
            static_cast<std::size_t>(xs[offset + i].raw() - fmt.min_raw());
        ASSERT_EQ(out[i].raw(), table[word])
            << simd::backend_name(backend) << " offset " << offset
            << " element " << i;
        ASSERT_EQ(out[i].format(), fmt);
      }
    }
  }
}

TEST(SimdKernels, TableLookupFixedStopsAtFirstFormatMismatch) {
  const fp::Format fmt = core::config_for_bits(16).format;
  const fp::Format other{2, 9};
  const auto entries =
      static_cast<std::size_t>(fmt.max_raw() - fmt.min_raw() + 1);
  const std::vector<std::int16_t> table = synthetic_table(entries);
  const std::size_t n = 70;
  const fp::Fixed sentinel = fp::Fixed::from_raw(42, fmt);
  for (const simd::Backend backend : backends()) {
    // A mismatch at a block boundary, mid-block, element 0 and the tail —
    // the kernel must report exactly how many elements it completed and
    // leave everything at and past the mismatch untouched.
    for (const std::size_t pos :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{31}, n - 1}) {
      std::vector<fp::Fixed> in(n, fp::Fixed::from_raw(-17, fmt));
      in[pos] = fp::Fixed::zero(other);
      std::vector<fp::Fixed> out(n, sentinel);
      const std::size_t done = simd::table_lookup_fixed(
          backend, dense_view(table), fmt, in.data(), out.data(), n);
      EXPECT_EQ(done, pos) << simd::backend_name(backend);
      for (std::size_t i = 0; i < pos; ++i) {
        const auto word = static_cast<std::size_t>(-17 - fmt.min_raw());
        ASSERT_EQ(out[i].raw(), table[word]) << i;
      }
      for (std::size_t i = pos; i < n; ++i) {
        ASSERT_EQ(out[i].raw(), sentinel.raw())
            << simd::backend_name(backend) << " clobbered element " << i
            << " past mismatch at " << pos;
      }
    }
  }
}

TEST(SimdKernels, TableLookupRawExhaustiveAndRangeChecked) {
  const fp::Format fmt = core::config_for_bits(16).format;
  const auto entries =
      static_cast<std::size_t>(fmt.max_raw() - fmt.min_raw() + 1);
  const std::vector<std::int16_t> table = synthetic_table(entries);
  std::vector<std::int64_t> raws;
  raws.reserve(entries);
  for (std::int64_t raw = fmt.min_raw(); raw <= fmt.max_raw(); ++raw) {
    raws.push_back(raw);
  }
  for (const simd::Backend backend : backends()) {
    std::vector<std::int64_t> out(raws.size(), 0);
    const std::size_t done =
        simd::table_lookup_raw(backend, dense_view(table), fmt.min_raw(),
                               fmt.max_raw(), raws.data(), out.data(),
                               raws.size());
    ASSERT_EQ(done, raws.size()) << simd::backend_name(backend);
    for (std::size_t i = 0; i < raws.size(); ++i) {
      ASSERT_EQ(out[i], table[i]) << simd::backend_name(backend);
    }
    // Out-of-range raws stop the kernel exactly where they sit.
    for (const std::int64_t bad : {fmt.max_raw() + 1, fmt.min_raw() - 1}) {
      for (const std::size_t pos :
           {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{12}}) {
        std::vector<std::int64_t> in(13, 0);
        in[pos] = bad;
        std::vector<std::int64_t> stopped(13, -999);
        EXPECT_EQ(simd::table_lookup_raw(backend, dense_view(table),
                                         fmt.min_raw(), fmt.max_raw(),
                                         in.data(), stopped.data(), 13),
                  pos)
            << simd::backend_name(backend) << " bad raw " << bad;
        for (std::size_t i = pos; i < stopped.size(); ++i) {
          ASSERT_EQ(stopped[i], -999) << "clobbered past stop at " << pos;
        }
      }
    }
  }
}

TEST(SimdKernels, TableLookupI32MatchesScalarIncludingAliasing) {
  const std::vector<std::int16_t> table = synthetic_table(1u << 16);
  nn::Rng rng{61};
  std::vector<std::int32_t> idx(777);
  for (std::int32_t& v : idx) {
    v = static_cast<std::int32_t>(rng.below(table.size()));
  }
  std::vector<std::int32_t> expected(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    expected[i] = table[static_cast<std::size_t>(idx[i])];
  }
  for (const simd::Backend backend : backends()) {
    std::vector<std::int32_t> out(idx.size(), 0);
    simd::table_lookup_i32(backend, dense_view(table), 0, idx.data(),
                           out.data(), idx.size());
    EXPECT_EQ(out, expected) << simd::backend_name(backend);
    std::vector<std::int32_t> inplace = idx;
    simd::table_lookup_i32(backend, dense_view(table), 0, inplace.data(),
                           inplace.data(), inplace.size());
    EXPECT_EQ(inplace, expected)
        << simd::backend_name(backend) << " aliased";
  }
}

TEST(SimdKernels, HalfRangeViewKernelsBitIdenticalAcrossBackends) {
  // Synthetic Half* views — one corr-packed HalfSigmoid (sample bits
  // [0,14], +1 correction in bit 15, the |min_raw| slot), one plain
  // HalfOdd — driven through every view-based lookup entry point on every
  // backend. The reference is simd::table_entry_for_word: the same scalar
  // unpack formula core::BatchNacu proves against the datapath at build
  // time. This pins the vectorised unpack (value/correction masks, sign
  // select, the slot, heads/tails, aliasing, range stops) to that formula.
  const fp::Format fmt = core::config_for_bits(16).format;
  const std::int64_t max_raw = fmt.max_raw();
  const std::int64_t min_raw = fmt.min_raw();
  const auto half_len = static_cast<std::size_t>(max_raw) + 3;  // padded even

  std::vector<std::int16_t> sig(half_len, 0);
  std::uint32_t h = 0xC0FFEE42u;
  for (std::size_t k = 0; k + 1 < half_len; ++k) {
    h = h * 1664525u + 1013904223u;
    const auto sample = static_cast<std::uint16_t>(h >> 17);  // 15 bits
    const auto corr = static_cast<std::uint16_t>(((h >> 7) & 1u) << 15);
    sig[k] = static_cast<std::int16_t>(sample | corr);
  }
  // The |min_raw| slot is stored pre-inverted with the correction clear.
  auto& slot = sig[static_cast<std::size_t>(max_raw) + 1];
  slot = static_cast<std::int16_t>(slot & 0x7FFF);
  simd::TableView sig_view;
  sig_view.kind = simd::TableKind::HalfSigmoid;
  sig_view.entries = sig.data();
  sig_view.one_raw = std::int32_t{1} << fmt.fractional_bits();

  std::vector<std::int16_t> odd = synthetic_table(half_len);
  simd::TableView odd_view;
  odd_view.kind = simd::TableKind::HalfOdd;
  odd_view.entries = odd.data();
  odd_view.one_raw = 0;

  const std::vector<fp::Fixed> xs = full_domain(fmt);
  std::vector<std::int64_t> raws;
  raws.reserve(xs.size());
  for (const fp::Fixed& x : xs) {
    raws.push_back(x.raw());
  }

  for (const simd::TableView* view : {&sig_view, &odd_view}) {
    const char* kind = view->kind == simd::TableKind::HalfSigmoid
                           ? "half-sigmoid"
                           : "half-odd";
    std::vector<std::int64_t> expected(xs.size());
    for (std::size_t w = 0; w < xs.size(); ++w) {
      expected[w] = simd::table_entry_for_word(*view, min_raw, w);
    }
    for (const simd::Backend backend : backends()) {
      // Raw path: aligned and misaligned odd-length runs, so every SIMD
      // head/tail combination reconstructs both halves.
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
        const std::size_t n = raws.size() - offset - (offset != 0 ? 2 : 0);
        std::vector<std::int64_t> out(n, -12345);
        ASSERT_EQ(simd::table_lookup_raw(backend, *view, min_raw, max_raw,
                                         raws.data() + offset, out.data(), n),
                  n)
            << kind << " " << simd::backend_name(backend);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], expected[offset + i])
              << kind << " " << simd::backend_name(backend) << " offset "
              << offset << " word " << offset + i;
        }
      }
      // Out-of-range raws stop the half path exactly where they sit, no
      // clobber past the stop — same contract as the dense path.
      for (const std::int64_t bad : {max_raw + 1, min_raw - 1}) {
        for (const std::size_t pos : {std::size_t{0}, std::size_t{5},
                                      std::size_t{8}, std::size_t{12}}) {
          std::vector<std::int64_t> in(13, -3);
          in[pos] = bad;
          std::vector<std::int64_t> stopped(13, -999);
          EXPECT_EQ(simd::table_lookup_raw(backend, *view, min_raw, max_raw,
                                           in.data(), stopped.data(), 13),
                    pos)
              << kind << " " << simd::backend_name(backend) << " bad " << bad;
          for (std::size_t i = pos; i < stopped.size(); ++i) {
            ASSERT_EQ(stopped[i], -999)
                << kind << " clobbered past stop at " << pos;
          }
        }
      }
      // Fixed path over the full domain, plus exact in/out aliasing.
      std::vector<fp::Fixed> out_fixed(xs.size(), fp::Fixed::zero(fmt));
      ASSERT_EQ(simd::table_lookup_fixed(backend, *view, fmt, xs.data(),
                                         out_fixed.data(), xs.size()),
                xs.size())
          << kind << " " << simd::backend_name(backend);
      std::vector<fp::Fixed> aliased = xs;
      ASSERT_EQ(simd::table_lookup_fixed(backend, *view, fmt, aliased.data(),
                                         aliased.data(), aliased.size()),
                aliased.size())
          << kind << " " << simd::backend_name(backend);
      for (std::size_t w = 0; w < xs.size(); ++w) {
        ASSERT_EQ(out_fixed[w].raw(), expected[w])
            << kind << " " << simd::backend_name(backend) << " word " << w;
        ASSERT_EQ(aliased[w].raw(), expected[w])
            << kind << " " << simd::backend_name(backend) << " aliased";
      }
      // i32 word path (dense-domain indices, un-rebased by min_raw inside
      // the kernel), including in-place aliasing.
      nn::Rng rng{83};
      std::vector<std::int32_t> idx(777);
      for (std::int32_t& v : idx) {
        v = static_cast<std::int32_t>(rng.below(xs.size()));
      }
      std::vector<std::int32_t> out32(idx.size(), 0);
      simd::table_lookup_i32(backend, *view, min_raw, idx.data(),
                             out32.data(), idx.size());
      std::vector<std::int32_t> inplace = idx;
      simd::table_lookup_i32(backend, *view, min_raw, inplace.data(),
                             inplace.data(), inplace.size());
      for (std::size_t i = 0; i < idx.size(); ++i) {
        const auto w = static_cast<std::size_t>(idx[i]);
        ASSERT_EQ(out32[i], static_cast<std::int32_t>(expected[w]))
            << kind << " " << simd::backend_name(backend) << " index " << i;
        ASSERT_EQ(inplace[i], static_cast<std::int32_t>(expected[w]))
            << kind << " " << simd::backend_name(backend) << " aliased";
      }
    }
  }
}

/// Reference for the fused GEMV: the exact NACU MAC chain (widen, truncating
/// requantise, saturate — per step, in input-index order).
std::vector<std::int64_t> mac_chain_reference(
    const Nacu& nacu, const std::vector<std::vector<std::int64_t>>& w,
    const std::vector<std::int64_t>& x,
    const std::vector<std::int64_t>& bias, fp::Format data_fmt,
    fp::Format acc_fmt) {
  std::vector<std::int64_t> out;
  for (std::size_t o = 0; o < w.size(); ++o) {
    fp::Fixed acc = fp::Fixed::from_raw(bias[o], acc_fmt);
    for (std::size_t i = 0; i < x.size(); ++i) {
      acc = nacu.mac(acc, fp::Fixed::from_raw(w[o][i], data_fmt),
                     fp::Fixed::from_raw(x[i], data_fmt));
    }
    out.push_back(acc.raw());
  }
  return out;
}

void check_qgemm_against_reference(const fp::Format data_fmt,
                                   const fp::Format acc_fmt,
                                   const std::vector<std::vector<std::int64_t>>& w,
                                   const std::vector<std::int64_t>& x,
                                   const std::vector<std::int64_t>& bias,
                                   const char* label) {
  ASSERT_TRUE(simd::PackedQGemm::formats_supported(data_fmt, acc_fmt))
      << label;
  const Nacu nacu{core::config_for_bits(16)};
  const std::vector<std::int64_t> expected =
      mac_chain_reference(nacu, w, x, bias, data_fmt, acc_fmt);
  const simd::PackedQGemm packed{
      w.size(), x.size(),
      [&w](std::size_t o, std::size_t i) { return w[o][i]; }};
  std::vector<std::int32_t> x32;
  for (const std::int64_t v : x) {
    x32.push_back(static_cast<std::int32_t>(v));
  }
  for (const simd::Backend backend : backends()) {
    std::vector<std::int32_t> acc(packed.padded_out(), 0);
    for (std::size_t o = 0; o < w.size(); ++o) {
      acc[o] = static_cast<std::int32_t>(bias[o]);
    }
    packed.accumulate(backend, x32.data(), acc.data(),
                      data_fmt.fractional_bits(),
                      static_cast<std::int32_t>(acc_fmt.min_raw()),
                      static_cast<std::int32_t>(acc_fmt.max_raw()));
    for (std::size_t o = 0; o < w.size(); ++o) {
      ASSERT_EQ(acc[o], expected[o])
          << label << " backend " << simd::backend_name(backend)
          << " output " << o;
    }
  }
}

TEST(SimdKernels, QgemmMatchesNacuMacChainAcrossShapes) {
  const fp::Format data_fmt = core::config_for_bits(16).format;  // Q4.11
  const fp::Format acc_fmt{12, 11};
  nn::Rng rng{67};
  // Shapes straddling tile boundaries: 1 output, exactly one tile, one
  // lane into the second tile, several tiles, degenerate in_dim.
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {1, 1}, {3, 5}, {8, 8}, {9, 7}, {16, 33}, {20, 1}, {5, 0}};
  for (const auto& [out_dim, in_dim] : kShapes) {
    std::vector<std::vector<std::int64_t>> w(
        out_dim, std::vector<std::int64_t>(in_dim));
    std::vector<std::int64_t> x(in_dim);
    std::vector<std::int64_t> bias(out_dim);
    for (auto& row : w) {
      for (std::int64_t& v : row) {
        v = static_cast<std::int64_t>(rng.below(1u << 16)) - (1 << 15);
      }
    }
    for (std::int64_t& v : x) {
      v = static_cast<std::int64_t>(rng.below(1u << 16)) - (1 << 15);
    }
    for (std::int64_t& v : bias) {
      v = static_cast<std::int64_t>(rng.below(1u << 12)) - (1 << 11);
    }
    check_qgemm_against_reference(data_fmt, acc_fmt, w, x, bias, "random");
  }
}

TEST(SimdKernels, QgemmSaturationIsOrderSensitiveAndStillBitIdentical) {
  // A narrow accumulator (Q2.4) with max-magnitude weights: the serial
  // chain rails against the clamp and comes back, so the result DEPENDS on
  // accumulation order — bulk-sum-then-clamp gives a different answer. Any
  // kernel reassociation would be caught here.
  const fp::Format data_fmt{4, 4};
  const fp::Format acc_fmt{2, 4};
  const std::int64_t big = data_fmt.max_raw();  // 255 -> term 255*255>>4
  const std::vector<std::vector<std::int64_t>> w{
      {big, -big, big, -big, big, big, -big, big, -big}};
  const std::vector<std::int64_t> x(9, big);
  const std::vector<std::int64_t> bias{0};
  const Nacu nacu{core::config_for_bits(16)};
  const std::vector<std::int64_t> expected =
      mac_chain_reference(nacu, w, x, bias, data_fmt, acc_fmt);
  // Prove the case really is order-sensitive: the unsaturated running sum
  // clamped once at the end disagrees with the per-step chain.
  std::int64_t bulk = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    bulk += (w[0][i] * x[i]) >> data_fmt.fractional_bits();
  }
  bulk = std::min(std::max(bulk, acc_fmt.min_raw()), acc_fmt.max_raw());
  ASSERT_NE(bulk, expected[0])
      << "test vector no longer exercises order sensitivity";
  check_qgemm_against_reference(data_fmt, acc_fmt, w, x, bias,
                                "saturating");
}

TEST(SimdKernels, Conv3x3RowMatchesNaiveTapLoop) {
  nn::Rng rng{71};
  const int fb = 11;
  const fp::Format acc_fmt{12, 11};
  const auto lo = static_cast<std::int32_t>(acc_fmt.min_raw());
  const auto hi = static_cast<std::int32_t>(acc_fmt.max_raw());
  for (const std::size_t out_cols :
       {std::size_t{1}, std::size_t{6}, std::size_t{8}, std::size_t{13},
        std::size_t{64}}) {
    std::vector<std::int32_t> rows[3];
    for (auto& row : rows) {
      row.resize(out_cols + 2);
      for (std::int32_t& v : row) {
        v = static_cast<std::int32_t>(rng.below(1u << 16)) - (1 << 15);
      }
    }
    std::int32_t filter9[9];
    for (std::int32_t& v : filter9) {
      v = static_cast<std::int32_t>(rng.below(1u << 16)) - (1 << 15);
    }
    std::vector<std::int32_t> expected(out_cols, 0);
    for (std::size_t c = 0; c < out_cols; ++c) {
      std::int64_t acc = 0;
      for (int fr = 0; fr < 3; ++fr) {
        for (int fc = 0; fc < 3; ++fc) {
          const std::int64_t term =
              (static_cast<std::int64_t>(filter9[fr * 3 + fc]) *
               rows[fr][c + static_cast<std::size_t>(fc)]) >>
              fb;
          acc = std::min<std::int64_t>(
              std::max<std::int64_t>(acc + term, lo), hi);
        }
      }
      expected[c] = static_cast<std::int32_t>(acc);
    }
    for (const simd::Backend backend : backends()) {
      std::vector<std::int32_t> acc(out_cols, 0);
      simd::conv3x3_mac_row(backend, rows[0].data(), rows[1].data(),
                            rows[2].data(), filter9, out_cols, fb, lo, hi,
                            acc.data());
      EXPECT_EQ(acc, expected)
          << simd::backend_name(backend) << " out_cols " << out_cols;
    }
  }
}

TEST(SimdDifferential, BatchEvaluateBitIdenticalAcrossBackendsAndModes) {
  // Every backend × every table layout × every config variant, exhaustively
  // over all 2^16 inputs and all three functions — the scalar Fig. 2
  // datapath is the single reference for all of them, so a compressed
  // layout or a wider ISA can only pass by being bit-identical.
  for (const auto& [name, config] : config_variants()) {
    const Nacu scalar{config};
    const std::vector<fp::Fixed> xs = full_domain(config.format);
    std::array<std::vector<std::int64_t>, BatchNacu::kFunctionCount> expected;
    for (const BatchNacu::Function f : kFunctions) {
      auto& exp_f = expected[static_cast<std::size_t>(f)];
      exp_f.reserve(xs.size());
      for (const fp::Fixed& x : xs) {
        const fp::Fixed y = f == BatchNacu::Function::Sigmoid
                                ? scalar.sigmoid(x)
                            : f == BatchNacu::Function::Tanh ? scalar.tanh(x)
                                                             : scalar.exp(x);
        exp_f.push_back(y.raw());
      }
    }
    std::vector<std::int64_t> raws;
    for (const fp::Fixed& x : xs) {
      raws.push_back(x.raw());
    }
    for (const auto& [mode_name, mode] : table_modes()) {
      for (const simd::Backend backend : backends()) {
        BatchNacu::Options options;
        options.backend = backend;
        options.table_mode = mode;
        const BatchNacu batch{config, options};
        for (const BatchNacu::Function f : kFunctions) {
          const std::vector<fp::Fixed> got = batch.evaluate(f, xs);
          const auto& exp_f = expected[static_cast<std::size_t>(f)];
          ASSERT_EQ(got.size(), exp_f.size());
          std::size_t mismatches = 0;
          for (std::size_t i = 0; i < xs.size(); ++i) {
            if (got[i].raw() != exp_f[i]) {
              if (++mismatches <= 5) {
                ADD_FAILURE()
                    << name << " " << mode_name << " "
                    << simd::backend_name(backend) << " at raw "
                    << xs[i].raw() << ": got " << got[i].raw()
                    << " datapath " << exp_f[i];
              }
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << name << " " << mode_name << " "
              << simd::backend_name(backend);
        }
        // The raw-domain variant dispatches through the same kernels.
        std::vector<std::int64_t> raw_out(raws.size());
        batch.evaluate_raw(BatchNacu::Function::Tanh, raws, raw_out);
        EXPECT_EQ(raw_out,
                  expected[static_cast<std::size_t>(BatchNacu::Function::Tanh)])
            << name << " " << mode_name << " " << simd::backend_name(backend);
      }
    }
  }
}

TEST(SimdDifferential, TableModesLandOnTheirCompressedLayouts) {
  // For the default Q4.11 config every compressed layout passes its
  // build-time verification, so an explicit mode must actually ship that
  // layout — a silent fallback to Dense would make the exhaustive mode
  // sweeps above vacuous. (Exp is always Dense: Eq. 14 runs a divider, so
  // its table has no symmetry to fold.)
  const NacuConfig config = core::config_for_bits(16);

  BatchNacu::Options half_options;
  half_options.table_mode = BatchNacu::TableMode::HalfRange;
  const BatchNacu half{config, half_options};
  for (const BatchNacu::Function f : kFunctions) {
    half.warm(f);
  }
  EXPECT_EQ(half.table_kind(BatchNacu::Function::Sigmoid),
            simd::TableKind::HalfSigmoid);
  EXPECT_EQ(half.table_kind(BatchNacu::Function::Tanh),
            simd::TableKind::HalfOdd);
  EXPECT_EQ(half.table_kind(BatchNacu::Function::Exp),
            simd::TableKind::Dense);
  // Folding halves the resident bytes (plus the slot/padding entries).
  EXPECT_LT(half.table_resident_bytes(BatchNacu::Function::Sigmoid),
            half.table_bytes() / 2 + 16);
  EXPECT_LT(half.table_resident_bytes(BatchNacu::Function::Tanh),
            half.table_bytes() / 2 + 16);

  BatchNacu::Options pwl_options;
  pwl_options.table_mode = BatchNacu::TableMode::Pwl;
  const BatchNacu pwl{config, pwl_options};
  for (const BatchNacu::Function f : kFunctions) {
    pwl.warm(f);
  }
  EXPECT_EQ(pwl.table_kind(BatchNacu::Function::Sigmoid),
            simd::TableKind::Pwl);
  EXPECT_EQ(pwl.table_kind(BatchNacu::Function::Tanh), simd::TableKind::Pwl);
  EXPECT_EQ(pwl.table_kind(BatchNacu::Function::Exp), simd::TableKind::Dense);
  // The coefficient form is LUT-sized, not sample-sized.
  EXPECT_LT(pwl.table_resident_bytes(BatchNacu::Function::Sigmoid),
            half.table_resident_bytes(BatchNacu::Function::Sigmoid) / 8);
}

TEST(SimdDifferential, AutoModeFoldsSigmoidUntilTheCacheBudgetThenUsesPwl) {
  // TableMode::Auto budgets new σ/tanh tables against the process-wide
  // resident total: a HalfRange table that would push it past
  // kCacheBudgetBytes takes the PWL form instead. Live engines keep their
  // tables resident, so building Auto engines one after another must cross
  // that switch — and every engine, on either side of it, must serve the
  // Dense engine's bits over the whole domain.
  constexpr BatchNacu::Function kSigmoid = BatchNacu::Function::Sigmoid;
  const NacuConfig config = core::config_for_bits(16);
  const std::vector<fp::Fixed> xs = full_domain(config.format);
  BatchNacu::Options dense_options;
  dense_options.table_mode = BatchNacu::TableMode::Dense;
  const BatchNacu dense{config, dense_options};
  const std::vector<fp::Fixed> want = dense.evaluate(kSigmoid, xs);

  std::size_t half_bytes = 0;
  {
    BatchNacu::Options half_options;
    half_options.table_mode = BatchNacu::TableMode::HalfRange;
    const BatchNacu half{config, half_options};
    half.warm(kSigmoid);
    ASSERT_EQ(half.table_kind(kSigmoid), simd::TableKind::HalfSigmoid);
    half_bytes = half.table_resident_bytes(kSigmoid);
  }

  std::vector<std::unique_ptr<BatchNacu>> engines;
  std::size_t folded = 0;
  bool crossed = false;
  while (!crossed) {
    ASSERT_LT(engines.size(), 256u) << "the budget was never crossed";
    const std::size_t before = BatchNacu::live_table_bytes();
    crossed = before + half_bytes > BatchNacu::kCacheBudgetBytes;
    const BatchNacu& engine =
        *engines.emplace_back(std::make_unique<BatchNacu>(config));
    engine.warm(kSigmoid);
    EXPECT_EQ(engine.table_kind(kSigmoid),
              crossed ? simd::TableKind::Pwl : simd::TableKind::HalfSigmoid)
        << "engine " << engines.size() << " built at " << before
        << " resident bytes";
    folded += crossed ? 0 : 1;
    const std::vector<fp::Fixed> got = engine.evaluate(kSigmoid, xs);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      mismatches += got[i].raw() != want[i].raw() ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "engine " << engines.size();
  }
  EXPECT_GT(folded, 0u) << "no engine was built under the budget";
}

TEST(SimdDifferential, FusedSoftmaxBitIdenticalAcrossBackendsAndConfigs) {
  for (const auto& [name, config] : config_variants()) {
    const Nacu scalar{config};
    BatchNacu::Options scalar_options;
    scalar_options.backend = simd::Backend::Scalar;
    const BatchNacu batch_scalar{config, scalar_options};
    BatchNacu::Options simd_options;
    simd_options.backend = simd::Backend::Avx2;
    const BatchNacu batch_simd{config, simd_options};
    batch_scalar.warm(BatchNacu::Function::Exp);
    batch_simd.warm(BatchNacu::Function::Exp);
    nn::Rng rng{73};
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{17},
          std::size_t{64}, std::size_t{257}}) {
      std::vector<fp::Fixed> xs;
      for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(
            fp::Fixed::from_double(rng.uniform(-8.0, 8.0), config.format));
      }
      const std::vector<fp::Fixed> expected = scalar.softmax(xs);
      const std::vector<fp::Fixed> got_scalar = batch_scalar.softmax(xs);
      const std::vector<fp::Fixed> got_simd = batch_simd.softmax(xs);
      ASSERT_EQ(got_scalar.size(), expected.size());
      ASSERT_EQ(got_simd.size(), expected.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got_scalar[i].raw(), expected[i].raw())
            << name << " n " << n << " element " << i;
        ASSERT_EQ(got_simd[i].raw(), expected[i].raw())
            << name << " n " << n << " element " << i;
      }
    }
  }
}

TEST(SimdDifferential, ArmedFaultPathKeepsPr2SemanticsAcrossBackends) {
  // The fused kernels only run with the fault port disarmed; when a port is
  // attached every read must still go through it, per element, exactly as
  // PR 2 shipped — for EVERY backend setting (the armed loop ignores the
  // backend) and EVERY table layout (the fault surface's word addressing is
  // the dense domain regardless of the physical storage, the PR 7
  // verify-before-release parity contract). This pins both.
  const NacuConfig config = core::config_for_bits(10);
  const fp::Format fmt = config.format;
  const std::vector<fp::Fixed> xs = full_domain(fmt);
  const BatchNacu::Function f = BatchNacu::Function::Sigmoid;
  const fault::Surface surface = BatchNacu::table_surface(f);

  std::vector<fault::Fault> defects;
  for (const std::size_t word : {std::size_t{3}, std::size_t{200},
                                 std::size_t{511}, std::size_t{700}}) {
    defects.push_back(
        {surface, word, static_cast<int>(word % 7), fault::FaultModel::StuckAt1});
    defects.push_back(
        {surface, word, static_cast<int>(word % 5), fault::FaultModel::StuckAt0});
  }

  std::vector<std::vector<std::int64_t>> per_combination;
  for (const auto& [mode_name, mode] : table_modes()) {
    for (const simd::Backend backend : backends()) {
      BatchNacu::Options options;
      options.backend = backend;
      options.table_mode = mode;
      BatchNacu batch{config, options};
      batch.warm(f);
      const std::vector<fp::Fixed> clean = batch.evaluate(f, xs);
      fault::FaultInjector injector;
      for (const fault::Fault& d : defects) {
        injector.arm(d);
      }
      batch.attach_fault_port(&injector);
      const std::vector<fp::Fixed> faulted = batch.evaluate(f, xs);
      batch.attach_fault_port(nullptr);
      EXPECT_GT(injector.reads_faulted(), 0u)
          << mode_name << " " << simd::backend_name(backend);

      // Expected: the injector applied to each clean table entry.
      fault::FaultInjector twin;
      for (const fault::Fault& d : defects) {
        twin.arm(d);
      }
      std::vector<std::int64_t> raws;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto word = static_cast<std::size_t>(xs[i].raw() - fmt.min_raw());
        const std::int64_t expected =
            twin.read(surface, word, clean[i].raw(), fmt.width());
        ASSERT_EQ(faulted[i].raw(), expected)
            << mode_name << " " << simd::backend_name(backend) << " word "
            << word;
        raws.push_back(faulted[i].raw());
      }
      per_combination.push_back(std::move(raws));
    }
  }
  // Identical faulted outputs across every (mode, backend) combination:
  // the injected campaign is layout- and ISA-invariant.
  for (std::size_t b = 1; b < per_combination.size(); ++b) {
    EXPECT_EQ(per_combination[b], per_combination[0]) << "combination " << b;
  }
}

TEST(SimdDifferential, QuantizedMlpBitwiseEqualAcrossBackends) {
  if (!simd::avx2_available()) {
    GTEST_SKIP() << "single backend available; nothing to compare";
  }
  nn::MlpConfig mlp_config;
  mlp_config.layer_sizes = {2, 12, 4};
  mlp_config.epochs = 40;
  const nn::Dataset data = nn::make_blobs(80, 4);
  nn::Mlp mlp{mlp_config};
  mlp.train(data);
  const NacuConfig config = core::config_for_bits(16);

  simd::set_active_backend(simd::Backend::Scalar);
  const nn::QuantizedMlp q_scalar{mlp, config};
  simd::set_active_backend(simd::Backend::Avx2);
  const nn::QuantizedMlp q_simd{mlp, config};
  simd::clear_backend_override();

  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto row = data.inputs.row(s);
    const std::vector<double> x(row.begin(), row.end());
    const std::vector<double> ps = q_scalar.predict_proba(x);
    const std::vector<double> pv = q_simd.predict_proba(x);
    ASSERT_EQ(ps.size(), pv.size());
    for (std::size_t k = 0; k < ps.size(); ++k) {
      // Exact double equality: both paths must produce identical raws.
      ASSERT_EQ(ps[k], pv[k]) << "sample " << s << " class " << k;
    }
  }
}

TEST(SimdDifferential, LstmStateBitwiseEqualAcrossBackends) {
  if (!simd::avx2_available()) {
    GTEST_SKIP() << "single backend available; nothing to compare";
  }
  const nn::LstmWeights weights = nn::LstmWeights::random(6, 10);
  const NacuConfig config = core::config_for_bits(16);
  simd::set_active_backend(simd::Backend::Scalar);
  const nn::LstmFixed cell_scalar{weights, config};
  simd::set_active_backend(simd::Backend::Avx2);
  const nn::LstmFixed cell_simd{weights, config};
  simd::clear_backend_override();

  nn::Rng rng{79};
  nn::LstmFixed::State s1 = cell_scalar.initial_state();
  nn::LstmFixed::State s2 = cell_simd.initial_state();
  for (int step = 0; step < 6; ++step) {
    std::vector<double> x(6);
    for (double& v : x) {
      v = rng.uniform(-1.0, 1.0);
    }
    s1 = cell_scalar.step(s1, x);
    s2 = cell_simd.step(s2, x);
    ASSERT_EQ(s1.h.size(), s2.h.size());
    for (std::size_t i = 0; i < s1.h.size(); ++i) {
      ASSERT_EQ(s1.h[i].raw(), s2.h[i].raw()) << "step " << step;
      ASSERT_EQ(s1.c[i].raw(), s2.c[i].raw()) << "step " << step;
    }
  }
}

TEST(SimdSupport, MatrixStorageIsCacheLineAlignedWithRowSpans) {
  nn::MatrixD m{5, 7};
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data().data()) % 64, 0u);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<double>(r * 10 + c);
    }
  }
  const std::span<double> row2 = m.row(2);
  ASSERT_EQ(row2.size(), 7u);
  EXPECT_EQ(row2.data(), &m(2, 0));
  row2[3] = -1.0;
  EXPECT_EQ(m.at(2, 3), -1.0);
  const nn::MatrixD& cm = m;
  EXPECT_EQ(cm.row(4)[6], 46.0);
  EXPECT_THROW((void)m.at(5, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 7), std::out_of_range);
  EXPECT_THROW((void)m.row(5), std::out_of_range);
  // Degenerate shapes: row views of a zero-column matrix are empty but
  // valid (the row bound is still enforced).
  nn::Matrix<float> zero_cols{3, 0};
  EXPECT_TRUE(zero_cols.row(2).empty());
  EXPECT_THROW((void)zero_cols.row(3), std::out_of_range);

  // The allocator really aligns, including through vector growth.
  simd::AlignedVector<std::int16_t> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<std::int16_t>(i));
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}

}  // namespace
}  // namespace nacu
