#include "core/batch_nacu.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nacu::core {

namespace {

/// Process-wide resident bytes of built activation tables, across every
/// live BatchNacu. Auto table-mode budgets new σ/tanh tables against it:
/// adding another HalfRange table past kCacheBudgetBytes tips
/// the build into the PWL form instead. Builds add under their call_once;
/// the destructor subtracts.
std::atomic<std::size_t> g_live_table_bytes{0};

/// Batch/element tallies by serving path, plus the backend pick — the
/// datapath decisions that were invisible before the obs layer. Sites
/// cache the registry references once; each add() is a relaxed load when
/// metrics are off.
void count_batch(std::size_t n, bool table, simd::Backend backend) {
  static obs::Counter& table_batches =
      obs::counter("core.batch_nacu.table_batches");
  static obs::Counter& table_elems =
      obs::counter("core.batch_nacu.table_elems");
  static obs::Counter& scalar_batches =
      obs::counter("core.batch_nacu.scalar_fallback_batches");
  static obs::Counter& scalar_elems =
      obs::counter("core.batch_nacu.scalar_fallback_elems");
  static obs::Counter& avx2_batches =
      obs::counter("core.batch_nacu.backend_avx2_batches");
  static obs::Counter& scalar_backend_batches =
      obs::counter("core.batch_nacu.backend_scalar_batches");
  (table ? table_batches : scalar_batches).add();
  (table ? table_elems : scalar_elems).add(n);
  switch (backend) {
    case simd::Backend::Avx2:
      avx2_batches.add();
      break;
    case simd::Backend::Scalar:
      scalar_backend_batches.add();
      break;
  }
}

bool fits_int16(std::int64_t v) noexcept {
  return v >= -32768 && v <= 32767;
}

}  // namespace

BatchNacu::BatchNacu(const NacuConfig& config)
    : BatchNacu{config, Options{}} {}

BatchNacu::BatchNacu(const NacuConfig& config, Options options)
    : unit_{config},
      options_{options},
      pool_{options.pool != nullptr ? options.pool : &ThreadPool::shared()},
      resolved_backend_{simd::resolve(options.backend)} {}

BatchNacu::~BatchNacu() {
  std::size_t total = 0;
  for (const TableStore& store : tables_) {
    total += store.resident_bytes;
  }
  if (total != 0) {
    g_live_table_bytes.fetch_sub(total, std::memory_order_relaxed);
  }
}

bool BatchNacu::table_cacheable() const noexcept {
  return unit_.format().width() <= kMaxTableWidth;
}

bool BatchNacu::table_built(Function f) const noexcept {
  return table_built_[static_cast<std::size_t>(f)].load(
      std::memory_order_acquire);
}

std::size_t BatchNacu::table_bytes() const noexcept {
  if (!table_cacheable()) {
    return 0;
  }
  return (std::size_t{1} << unit_.format().width()) * sizeof(std::int16_t);
}

std::size_t BatchNacu::table_resident_bytes(Function f) const noexcept {
  const auto index = static_cast<std::size_t>(f);
  if (!table_built_[index].load(std::memory_order_acquire)) {
    return 0;
  }
  return tables_[index].resident_bytes;
}

simd::TableKind BatchNacu::table_kind(Function f) const noexcept {
  const auto index = static_cast<std::size_t>(f);
  if (!table_built_[index].load(std::memory_order_acquire)) {
    return simd::TableKind::Dense;
  }
  return tables_[index].view.kind;
}

std::size_t BatchNacu::live_table_bytes() noexcept {
  return g_live_table_bytes.load(std::memory_order_relaxed);
}

void BatchNacu::warm(Function f) const {
  (void)table_for(f, options_.table_threshold);
}

fault::Surface BatchNacu::table_surface(Function f) noexcept {
  switch (f) {
    case Function::Sigmoid:
      return fault::Surface::TableSigmoid;
    case Function::Tanh:
      return fault::Surface::TableTanh;
    case Function::Exp:
      return fault::Surface::TableExp;
  }
  return fault::Surface::TableSigmoid;
}

void BatchNacu::scrub_table(Function f) const {
  const auto index = static_cast<std::size_t>(f);
  if (!table_built_[index].load(std::memory_order_acquire)) {
    return;
  }
  const fault::Surface surface = table_surface(f);
  const fp::Format fmt = unit_.format();
  const std::int64_t min_raw = fmt.min_raw();
  const std::int64_t max_raw = fmt.max_raw();
  TableStore& store = tables_[index];
  // Rewrite the physical storage from the scalar datapath, in whatever
  // layout the build chose (the layout itself never changes post-publish).
  switch (store.view.kind) {
    case simd::TableKind::Dense:
      for (std::size_t k = 0; k < store.entries.size(); ++k) {
        store.entries[k] = static_cast<std::int16_t>(
            scalar_raw(f, min_raw + static_cast<std::int64_t>(k)));
      }
      break;
    case simd::TableKind::HalfSigmoid:
    case simd::TableKind::HalfOdd: {
      // Rebuild the published encoding: HalfSigmoid entries are
      // corr-packed (sample | corr << 15, see simd/kernels.hpp), HalfOdd
      // entries are plain samples. The build proved the corrections fit,
      // and scalar_raw is the deterministic fault-free datapath, so the
      // scrub re-derives the identical bits.
      const std::int64_t one = store.view.one_raw;
      for (std::int64_t r = 0; r <= max_raw; ++r) {
        const std::int64_t yp = scalar_raw(f, r);
        std::int64_t corr = 0;
        if (one != 0 && r > 0) {
          corr = scalar_raw(f, -r) - (one - yp);
        }
        store.entries[static_cast<std::size_t>(r)] =
            static_cast<std::int16_t>(yp | (corr << 15));
      }
      // The pre-inverted |min_raw| slot (correction bit clear).
      store.entries[static_cast<std::size_t>(max_raw) + 1] =
          static_cast<std::int16_t>(one - scalar_raw(f, min_raw));
      break;
    }
    case simd::TableKind::Pwl: {
      const bool tanh_mode = f == Function::Tanh;
      for (std::size_t s = 0; s < store.pwl.segments; ++s) {
        const Nacu::Coefficients pos = unit_.morph_coefficients(
            s, tanh_mode ? Nacu::Mode::TanhPos : Nacu::Mode::SigmoidPos);
        const Nacu::Coefficients neg = unit_.morph_coefficients(
            s, tanh_mode ? Nacu::Mode::TanhNeg : Nacu::Mode::SigmoidNeg);
        store.coeff_pos[s] = pos.coeff.raw();
        store.bias_pos[s] = pos.bias.raw();
        store.coeff_neg[s] = neg.coeff.raw();
        store.bias_neg[s] = neg.bias.raw();
      }
      break;
    }
  }
  // Rewrite notifications cover the full *dense* word domain regardless of
  // layout — the fault surface's addressing contract (PR 2) is dense words.
  if (fault_port_ != nullptr) {
    const auto words = static_cast<std::size_t>(max_raw - min_raw + 1);
    for (std::size_t k = 0; k < words; ++k) {
      fault_port_->on_rewrite(surface, k);
    }
  }
}

std::int64_t BatchNacu::scalar_raw(Function f, std::int64_t raw) const {
  const fp::Fixed x = fp::Fixed::from_raw(raw, unit_.format());
  switch (f) {
    case Function::Sigmoid:
      return unit_.sigmoid(x).raw();
    case Function::Tanh:
      return unit_.tanh(x).raw();
    case Function::Exp:
      return unit_.exp(x).raw();
  }
  throw std::logic_error("BatchNacu: unknown function");
}

void BatchNacu::build_table(Function f, TableStore& store) const {
  static obs::Counter& half_rejected =
      obs::counter("core.batch_nacu.half_range_rejected");
  static obs::Counter& pwl_rejected =
      obs::counter("core.batch_nacu.pwl_rejected");
  static obs::Counter& exp_dense =
      obs::counter("core.batch_nacu.compressed_exp_forced_dense");
  const fp::Format fmt = unit_.format();
  const std::int64_t min_raw = fmt.min_raw();
  const std::int64_t max_raw = fmt.max_raw();
  const auto dense_count = static_cast<std::size_t>(max_raw - min_raw + 1);
  // The dense sweep is always computed: it is the reference every
  // compressed layout must reproduce bit-for-bit, and the fallback when
  // one cannot.
  std::vector<std::int16_t> dense(dense_count);
  for (std::size_t k = 0; k < dense_count; ++k) {
    dense[k] = static_cast<std::int16_t>(
        scalar_raw(f, min_raw + static_cast<std::int64_t>(k)));
  }

  TableMode mode = options_.table_mode;
  if (f == Function::Exp && mode != TableMode::Dense) {
    // e^x is not symmetric — Eq. 14 runs σ through a divider — so neither
    // the half-range fold nor the (division-free) PWL form can express it.
    if (mode != TableMode::Auto) {
      exp_dense.add();
    }
    mode = TableMode::Dense;
  }
  if (mode == TableMode::Auto) {
    const std::size_t half_bytes =
        (static_cast<std::size_t>(max_raw) + 3) * sizeof(std::int16_t);
    mode = g_live_table_bytes.load(std::memory_order_relaxed) + half_bytes >
                   kCacheBudgetBytes
               ? TableMode::Pwl
               : TableMode::HalfRange;
  }

  const bool tanh_mode = f == Function::Tanh;
  const std::int64_t one =
      f == Function::Sigmoid
          ? (std::int64_t{1} << fmt.fractional_bits())
          : 0;

  if (mode == TableMode::Pwl) {
    const SigmoidLut& lut = unit_.lut();
    const std::size_t segs = lut.entries();
    store.coeff_pos.resize(segs);
    store.bias_pos.resize(segs);
    store.coeff_neg.resize(segs);
    store.bias_neg.resize(segs);
    for (std::size_t s = 0; s < segs; ++s) {
      const Nacu::Coefficients pos = unit_.morph_coefficients(
          s, tanh_mode ? Nacu::Mode::TanhPos : Nacu::Mode::SigmoidPos);
      const Nacu::Coefficients neg = unit_.morph_coefficients(
          s, tanh_mode ? Nacu::Mode::TanhNeg : Nacu::Mode::SigmoidNeg);
      store.coeff_pos[s] = pos.coeff.raw();
      store.bias_pos[s] = pos.bias.raw();
      store.coeff_neg[s] = neg.coeff.raw();
      store.bias_neg[s] = neg.bias.raw();
    }
    store.pwl.coeff_pos = store.coeff_pos.data();
    store.pwl.bias_pos = store.bias_pos.data();
    store.pwl.coeff_neg = store.coeff_neg.data();
    store.pwl.bias_neg = store.bias_neg.data();
    store.pwl.segments = segs;
    store.pwl.x_max_raw = lut.x_max_raw();
    store.pwl.mag_max_raw = max_raw;
    store.pwl.tanh_stretch = tanh_mode;
    store.pwl.bias_shift = fmt.fractional_bits();
    store.pwl.out_shift = config().coeff_format.fractional_bits();
    store.pwl.rounding = config().output_rounding;
    store.pwl.out_min = min_raw;
    store.pwl.out_max = max_raw;
    // Exhaustive replay check: the integer FMA must land on the scalar
    // datapath's output for every representable input, or the form is
    // rejected (e.g. a rounding mode whose requantisation the compact
    // replay cannot mirror).
    bool ok = true;
    for (std::size_t k = 0; k < dense_count && ok; ++k) {
      ok = simd::pwl_eval_raw(store.pwl,
                              min_raw + static_cast<std::int64_t>(k)) ==
           dense[k];
    }
    if (ok) {
      store.view.kind = simd::TableKind::Pwl;
      store.view.entries = nullptr;
      store.view.one_raw = 0;
      store.view.pwl = &store.pwl;
      store.resident_bytes = segs * 4 * sizeof(std::int64_t);
      return;
    }
    pwl_rejected.add();
    store.coeff_pos.clear();
    store.bias_pos.clear();
    store.coeff_neg.clear();
    store.bias_neg.clear();
    store.pwl = simd::PwlTable{};
    mode = TableMode::HalfRange;
  }

  if (mode == TableMode::HalfRange) {
    // Fold onto the non-negative half: entries[r] for r in [0, max_raw],
    // the pre-inverted |min_raw| slot at max_raw + 1, one zero pad slot to
    // keep the entry count even (the dword-pair gather reads in pairs).
    //
    // For σ (one != 0) the entries are corr-packed (simd/kernels.hpp): the
    // sample in bits [0,14] and a +1 correction in bit 15, because the
    // datapath's bit-trick coefficient morph makes σ(−x) land one raw ulp
    // above 1 − σ(x) for some inputs — Eq. 3 holds exactly only in real
    // arithmetic. A correction outside {0, 1} (or a sample needing bit 15)
    // has no encoding and rejects the fold. Odd functions store plain
    // signed samples and must satisfy f(−x) = −f(x) exactly.
    std::vector<std::int16_t> half(static_cast<std::size_t>(max_raw) + 3, 0);
    bool ok = true;
    for (std::int64_t r = 0; r <= max_raw && ok; ++r) {
      const std::int64_t yp = dense[static_cast<std::size_t>(r - min_raw)];
      if (one != 0) {
        std::int64_t corr = 0;
        if (r > 0) {
          const std::int64_t yn =
              dense[static_cast<std::size_t>(-r - min_raw)];
          corr = yn - (one - yp);
        }
        ok = yp >= 0 && yp <= 0x7FFF && (corr == 0 || corr == 1);
        half[static_cast<std::size_t>(r)] =
            static_cast<std::int16_t>(yp | (corr << 15));
      } else {
        half[static_cast<std::size_t>(r)] = static_cast<std::int16_t>(yp);
      }
    }
    const std::int64_t slot = one - dense[0];  // word 0 is raw == min_raw
    ok = ok && fits_int16(slot) && (one == 0 || (slot >= 0 && slot <= 0x7FFF));
    if (ok) {
      half[static_cast<std::size_t>(max_raw) + 1] =
          static_cast<std::int16_t>(slot);
      // Exhaustive check over the full dense domain through the *same*
      // reconstruction formula the kernels use (table_entry_for_word):
      // every word must land on the dense sweep, or the fold is rejected.
      simd::TableView probe;
      probe.kind = f == Function::Sigmoid ? simd::TableKind::HalfSigmoid
                                          : simd::TableKind::HalfOdd;
      probe.entries = half.data();
      probe.one_raw = static_cast<std::int32_t>(one);
      for (std::size_t k = 0; k < dense_count && ok; ++k) {
        ok = simd::table_entry_for_word(probe, min_raw, k) == dense[k];
      }
    }
    if (ok) {
      store.entries = std::move(half);
      store.view.kind = f == Function::Sigmoid ? simd::TableKind::HalfSigmoid
                                               : simd::TableKind::HalfOdd;
      store.view.entries = store.entries.data();
      store.view.one_raw = static_cast<std::int32_t>(one);
      store.view.pwl = nullptr;
      store.resident_bytes = store.entries.size() * sizeof(std::int16_t);
      return;
    }
    half_rejected.add();
  }

  store.entries = std::move(dense);
  store.view.kind = simd::TableKind::Dense;
  store.view.entries = store.entries.data();
  store.view.one_raw = 0;
  store.view.pwl = nullptr;
  store.resident_bytes = store.entries.size() * sizeof(std::int16_t);
}

const simd::TableView* BatchNacu::table_for(Function f,
                                            std::size_t batch_size) const {
  if (!table_cacheable()) {
    return nullptr;
  }
  const auto index = static_cast<std::size_t>(f);
  if (!table_built_[index].load(std::memory_order_acquire) &&
      batch_size < options_.table_threshold) {
    return nullptr;  // too small to justify a full-domain sweep
  }
  std::call_once(table_once_[index], [&] {
    // Build with the *scalar* datapath over the entire domain — the table
    // is bit-identical to per-call evaluation by construction. Serial on
    // purpose: a nested parallel build could deadlock a caller already
    // running inside the pool, and the sweep is a few milliseconds.
    static obs::Counter& builds = obs::counter("core.batch_nacu.table_builds");
    static obs::Histogram& build_ns =
        obs::histogram("core.batch_nacu.table_build_ns");
    builds.add();
    const obs::ScopedTimer timer{build_ns};
    const obs::TraceSpan span{"BatchNacu::table_build"};
    build_table(f, tables_[index]);
    g_live_table_bytes.fetch_add(tables_[index].resident_bytes,
                                 std::memory_order_relaxed);
    table_built_[index].store(true, std::memory_order_release);
  });
  return &tables_[index].view;
}

void BatchNacu::for_range(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (n >= options_.parallel_threshold) {
    pool_->parallel_for(n, options_.parallel_grain, body);
  } else {
    body(0, n);
  }
}

void BatchNacu::evaluate(Function f, std::span<const fp::Fixed> in,
                         std::span<fp::Fixed> out) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("BatchNacu::evaluate: size mismatch");
  }
  const std::size_t n = in.size();
  if (n == 0) {
    return;
  }
  const fp::Format fmt = unit_.format();
  const simd::TableView* view = table_for(f, n);
  // Hoisted so the fault-free path pays one pointer compare per batch —
  // and, with a table, runs a branch-free kernel with no port check at all.
  fault::BitFaultPort* const port = fault_port_;
  const fault::Surface surface = table_surface(f);
  const simd::Backend backend = resolved_backend_;
  count_batch(n, view != nullptr, backend);
  for_range(n, [&](std::size_t begin, std::size_t end) {
    if (view != nullptr) {
      if (port == nullptr) {
        const std::size_t count = end - begin;
        const std::size_t done =
            simd::table_lookup_fixed(backend, *view, fmt, in.data() + begin,
                                     out.data() + begin, count);
        if (done != count) {
          throw std::invalid_argument(
              "BatchNacu::evaluate: input not in the datapath format");
        }
        return;
      }
      // Armed path: per-element port interception in the dense word domain
      // (word = raw − min_raw regardless of layout), semantics identical to
      // the fault-injection subsystem's contract (PR 2).
      const std::int64_t min_raw = fmt.min_raw();
      for (std::size_t k = begin; k < end; ++k) {
        if (in[k].format() != fmt) {
          throw std::invalid_argument(
              "BatchNacu::evaluate: input not in the datapath format");
        }
        const auto word = static_cast<std::size_t>(in[k].raw() - min_raw);
        std::int64_t entry = simd::table_entry_for_word(*view, min_raw, word);
        entry = port->read(surface, word, entry, fmt.width());
        out[k] = fp::Fixed::from_raw(entry, fmt);
      }
      return;
    }
    for (std::size_t k = begin; k < end; ++k) {
      if (in[k].format() != fmt) {
        throw std::invalid_argument(
            "BatchNacu::evaluate: input not in the datapath format");
      }
      switch (f) {
        case Function::Sigmoid:
          out[k] = unit_.sigmoid(in[k]);
          break;
        case Function::Tanh:
          out[k] = unit_.tanh(in[k]);
          break;
        case Function::Exp:
          out[k] = unit_.exp(in[k]);
          break;
      }
    }
  });
}

std::vector<fp::Fixed> BatchNacu::evaluate(
    Function f, std::span<const fp::Fixed> in) const {
  std::vector<fp::Fixed> out(in.size(), fp::Fixed::zero(unit_.format()));
  evaluate(f, in, out);
  return out;
}

void BatchNacu::evaluate_raw(Function f, std::span<const std::int64_t> in,
                             std::span<std::int64_t> out) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("BatchNacu::evaluate_raw: size mismatch");
  }
  const std::size_t n = in.size();
  if (n == 0) {
    return;
  }
  const fp::Format fmt = unit_.format();
  const simd::TableView* view = table_for(f, n);
  fault::BitFaultPort* const port = fault_port_;
  const fault::Surface surface = table_surface(f);
  const simd::Backend backend = resolved_backend_;
  count_batch(n, view != nullptr, backend);
  const std::int64_t min_raw = fmt.min_raw();
  const std::int64_t max_raw = fmt.max_raw();
  for_range(n, [&](std::size_t begin, std::size_t end) {
    if (view != nullptr && port == nullptr) {
      const std::size_t count = end - begin;
      const std::size_t done =
          simd::table_lookup_raw(backend, *view, min_raw, max_raw,
                                 in.data() + begin, out.data() + begin, count);
      if (done != count) {
        throw std::out_of_range(
            "BatchNacu::evaluate_raw: raw outside the datapath format");
      }
      return;
    }
    for (std::size_t k = begin; k < end; ++k) {
      const std::int64_t raw = in[k];
      if (raw < min_raw || raw > max_raw) {
        throw std::out_of_range(
            "BatchNacu::evaluate_raw: raw outside the datapath format");
      }
      if (view != nullptr) {
        const auto word = static_cast<std::size_t>(raw - min_raw);
        std::int64_t entry = simd::table_entry_for_word(*view, min_raw, word);
        if (port != nullptr) {
          entry = port->read(surface, word, entry, fmt.width());
        }
        out[k] = entry;
      } else {
        out[k] = scalar_raw(f, raw);
      }
    }
  });
}

std::vector<fp::Fixed> BatchNacu::softmax(
    std::span<const fp::Fixed> inputs) const {
  if (inputs.empty()) {
    return {};
  }
  static obs::Counter& fused_count =
      obs::counter("core.batch_nacu.softmax_fused");
  static obs::Counter& fixed_count =
      obs::counter("core.batch_nacu.softmax_fixed");
  const obs::TraceSpan span{"BatchNacu::softmax"};
  const fp::Format fmt = unit_.format();
  const std::size_t n = inputs.size();
  // Fused raw-domain path: needs the exp table (always Dense), no armed
  // fault port (the port contract is per-read interception), every input
  // already on the datapath grid, and ib >= 1 so from_double(1.0) is
  // exactly 2^fb — the preconditions under which the raw algebra below is
  // provably bit-identical to the Fixed-API passes. Anything else takes the
  // original path unchanged.
  if (fault_port_ == nullptr && fmt.integer_bits() >= 1) {
    if (const simd::TableView* exp_view = table_for(Function::Exp, n)) {
      bool uniform = true;
      for (const fp::Fixed& x : inputs) {
        if (x.format() != fmt) {
          uniform = false;
          break;
        }
      }
      if (uniform) {
        fused_count.add();
        return softmax_fused(inputs, *exp_view);
      }
    }
  }
  fixed_count.add();
  // Max-scan (Eq. 13), same comparator as core::Nacu::softmax.
  fp::Fixed x_max = inputs[0];
  for (const fp::Fixed& x : inputs) {
    if (x_max < x) {
      x_max = x;
    }
  }
  // Accumulator format: identical derivation to core::Nacu::softmax so the
  // MAC truncation sequence matches bit-for-bit.
  int sum_ib = 1;
  while ((std::size_t{1} << sum_ib) < n + 1) {
    ++sum_ib;
  }
  const fp::Format sum_fmt{sum_ib + 1, fmt.fractional_bits()};
  // Shift pass + batched exp (one table pass for the whole vector).
  std::vector<fp::Fixed> exps(n, fp::Fixed::zero(fmt));
  for_range(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      exps[k] = inputs[k].sub(x_max, fmt);
    }
  });
  evaluate(Function::Exp, exps, exps);
  // Denominator MAC accumulation stays sequential, preserving the exact
  // truncation order of the scalar path.
  const fp::Fixed one = fp::Fixed::from_double(1.0, fmt);
  fp::Fixed denom = fp::Fixed::zero(sum_fmt);
  for (const fp::Fixed& e : exps) {
    denom = unit_.mac(denom, e, one);
  }
  if (denom.is_zero()) {
    denom = fp::Fixed::from_raw(1, sum_fmt);
  }
  std::vector<fp::Fixed> out(n, fp::Fixed::zero(fmt));
  if (const ReciprocalUnit* recip = unit_.reciprocal_unit()) {
    // Approximate path (§VIII): one shared reciprocal, one multiply each.
    const fp::Format recip_fmt{
        1, fmt.fractional_bits() + config().divider_guard_bits + 2};
    const fp::Fixed denom_recip = recip->reciprocal(denom, recip_fmt);
    for_range(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        out[k] = exps[k].mul(denom_recip, fmt, fp::Rounding::Truncate,
                             fp::Overflow::Saturate);
      }
    });
    return out;
  }
  // Exact path: independent divider passes fan out across the pool.
  for_range(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      out[k] = exps[k].div(denom, fmt, fp::Rounding::Truncate);
    }
  });
  return out;
}

std::vector<fp::Fixed> BatchNacu::softmax_fused(
    std::span<const fp::Fixed> inputs, const simd::TableView& exp_view) const {
  const fp::Format fmt = unit_.format();
  const std::size_t n = inputs.size();
  const simd::Backend backend = resolved_backend_;
  const std::int64_t min_raw = fmt.min_raw();
  const std::int64_t max_raw = fmt.max_raw();
  const int fb = fmt.fractional_bits();
  // Pass 1 — max scan on raws. Same format everywhere, so a raw compare is
  // the value compare the Fixed path performs.
  std::int64_t x_max = inputs[0].raw();
  for (const fp::Fixed& x : inputs) {
    if (x.raw() > x_max) {
      x_max = x.raw();
    }
  }
  // Accumulator format: identical derivation to core::Nacu::softmax.
  int sum_ib = 1;
  while ((std::size_t{1} << sum_ib) < n + 1) {
    ++sum_ib;
  }
  const fp::Format sum_fmt{sum_ib + 1, fb};
  // Pass 2 — fused shift + exp. sub(x_max, fmt) with equal formats is
  // clamp(raw - x_max_raw) (the difference is <= 0, so only the lower clamp
  // can fire), and rebasing by -min_raw gives the table word directly; the
  // gather kernel then replaces the per-element Fixed round-trip.
  std::vector<std::int32_t> exps(n);
  for_range(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      std::int64_t diff = inputs[k].raw() - x_max;
      if (diff < min_raw) {
        diff = min_raw;
      }
      exps[k] = static_cast<std::int32_t>(diff - min_raw);
    }
    simd::table_lookup_i32(backend, exp_view, min_raw, exps.data() + begin,
                           exps.data() + begin, end - begin);
  });
  // Pass 3 — denominator. mac(denom, e, 1.0) with one_raw = 2^fb and
  // acc.fb == fb reduces to a per-step saturating add of the raw exp value,
  // in the same left-to-right order as the scalar accumulation.
  const std::int64_t sum_min = sum_fmt.min_raw();
  const std::int64_t sum_max = sum_fmt.max_raw();
  std::int64_t denom = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::int64_t next = denom + exps[k];
    if (next < sum_min) {
      next = sum_min;
    } else if (next > sum_max) {
      next = sum_max;
    }
    denom = next;
  }
  if (denom == 0) {
    denom = 1;  // the scalar path's 1-LSB floor against divide-by-zero
  }
  // Pass 4 — normalise.
  std::vector<fp::Fixed> out(n, fp::Fixed::zero(fmt));
  if (const ReciprocalUnit* recip = unit_.reciprocal_unit()) {
    // Approximate path (§VIII): mul(e, r, fmt, Truncate) with
    // e.fb == fmt.fb is ((e_raw * r_raw) >> recip_fmt.fb) floor-truncated
    // (arithmetic shift), then saturated into fmt.
    const fp::Format recip_fmt{
        1, fb + config().divider_guard_bits + 2};
    const fp::Fixed denom_recip = recip->reciprocal(
        fp::Fixed::from_raw(denom, sum_fmt), recip_fmt);
    const std::int64_t r_raw = denom_recip.raw();
    const int r_shift = recip_fmt.fractional_bits();
    for_range(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        std::int64_t q =
            (static_cast<std::int64_t>(exps[k]) * r_raw) >> r_shift;
        if (q < min_raw) {
          q = min_raw;
        } else if (q > max_raw) {
          q = max_raw;
        }
        out[k] = fp::Fixed::from_raw_unchecked(q, fmt);
      }
    });
    return out;
  }
  // Exact path: div(e, denom, fmt, Truncate) truncates the quotient toward
  // zero — precisely C++ integer division of (e_raw << fb) by denom_raw —
  // then saturates into fmt.
  for_range(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      std::int64_t q = (static_cast<std::int64_t>(exps[k]) << fb) / denom;
      if (q < min_raw) {
        q = min_raw;
      } else if (q > max_raw) {
        q = max_raw;
      }
      out[k] = fp::Fixed::from_raw_unchecked(q, fmt);
    }
  });
  return out;
}

std::vector<std::int64_t> BatchNacu::softmax_raw(
    std::span<const std::int64_t> inputs_raw) const {
  std::vector<fp::Fixed> inputs;
  inputs.reserve(inputs_raw.size());
  for (const std::int64_t raw : inputs_raw) {
    inputs.push_back(fp::Fixed::from_raw(raw, unit_.format()));
  }
  const std::vector<fp::Fixed> probs = softmax(inputs);
  std::vector<std::int64_t> out;
  out.reserve(probs.size());
  for (const fp::Fixed& p : probs) {
    out.push_back(p.raw());
  }
  return out;
}

}  // namespace nacu::core
