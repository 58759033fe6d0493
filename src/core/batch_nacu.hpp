// Batched NACU evaluation engine.
//
// The scalar core::Nacu walks the full Fig. 2 datapath — segment search,
// coefficient morphing, widened multiply-add, output quantisation — once
// per call. BatchNacu amortises that per-call cost for array-granularity
// consumers (dense layers, LSTM gates, conv feature maps, softmax):
//
//  * cached activation table — a datapath of width ≤ 16 bits has at most
//    2^16 representable inputs, so σ/tanh/e^x each collapse into one
//    raw→raw table. Tables are built lazily, once per (function, config),
//    under std::call_once, by running the *scalar* datapath over the whole
//    domain — a table lookup is therefore bit-identical to the scalar unit
//    by construction (and exhaustively re-proven by
//    tests/test_batch_differential.cpp);
//  * one table layout per function — σ and tanh obey the paper's §IV
//    symmetry (Eq. 3): σ(−x) = 1 − σ(x), tanh(−x) = −tanh(x). Their
//    tables store only the non-negative half and reconstruct the other
//    half in registers, halving the cache working set per (function,
//    config). The fold is verified against the dense sweep over the entire
//    domain at build time and rejected on any single-bit disagreement (the
//    table then stays Dense), so the layout depends on the config and the
//    function alone, never on what else is live in the process. See
//    DESIGN.md §"Compressed activation tables".
//  * thread-pool fan-out — batches past Options::parallel_threshold split
//    across core::ThreadPool chunks. Every element is independent, so the
//    split cannot change results;
//  * batched softmax — the Eq. 13 passes (max-scan, exp, MAC-accumulated
//    denominator, normalise) run over whole vectors, with the exp pass on
//    the table and the per-element divider pass fanned out. The MAC
//    accumulation order is preserved, keeping the result bit-identical to
//    core::Nacu::softmax. (exp is asymmetric — Eq. 14 runs a divider — so
//    its table is always Dense.)
//
// Formats wider than 16 bits skip the table (2^width entries would not pay
// off) and keep the scalar datapath per element, still chunked across the
// pool. See DESIGN.md ("Batch evaluation engine") for the memory/speed
// trade-off numbers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/nacu.hpp"
#include "core/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace nacu::core {

class BatchNacu {
 public:
  enum class Function { Sigmoid, Tanh, Exp };
  static constexpr std::size_t kFunctionCount = 3;
  /// Widest datapath that gets a cached table (Dense: 2^16 × 2 B = 128 KiB;
  /// a folded half-range table: ~64 KiB).
  static constexpr int kMaxTableWidth = 16;

  struct Options {
    /// Batch size at which a first use builds the activation table. Below
    /// it, fresh instances stay on the scalar path (a table costs a
    /// full-domain sweep to build); once built, the table serves every size.
    std::size_t table_threshold = 64;
    /// Batch size at which work fans out across the thread pool.
    std::size_t parallel_threshold = std::size_t{1} << 14;
    /// Minimum elements per pool chunk.
    std::size_t parallel_grain = std::size_t{1} << 12;
    /// Pool to fan out on; nullptr uses ThreadPool::shared().
    ThreadPool* pool = nullptr;
    /// Kernel backend for the table-lookup / fused-softmax fast paths
    /// (simd/dispatch.hpp). Defaults to the process-wide CPUID pick.
    /// Resolved against availability ONCE, at engine construction — later
    /// backend overrides (set_active_backend, NACU_BACKEND) do not retarget
    /// a live engine, so a batch never changes ISA mid-flight. backend()
    /// reports the resolved pick.
    simd::Backend backend = simd::active_backend();
  };

  explicit BatchNacu(const NacuConfig& config);
  BatchNacu(const NacuConfig& config, Options options);
  ~BatchNacu();

  BatchNacu(const BatchNacu&) = delete;
  BatchNacu& operator=(const BatchNacu&) = delete;

  [[nodiscard]] const Nacu& unit() const noexcept { return unit_; }
  /// Mutable access to the scalar unit — needed to arm fault-injection on
  /// the σ-LUT beneath this engine (fault/fault_port.hpp).
  [[nodiscard]] Nacu& unit() noexcept { return unit_; }
  [[nodiscard]] const NacuConfig& config() const noexcept {
    return unit_.config();
  }
  [[nodiscard]] fp::Format format() const noexcept { return unit_.format(); }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// The kernel backend this engine resolved at construction and uses for
  /// every batch (Options::backend degraded to what the host supports).
  [[nodiscard]] simd::Backend backend() const noexcept {
    return resolved_backend_;
  }

  /// Whether this config's domain is small enough for cached tables.
  [[nodiscard]] bool table_cacheable() const noexcept;
  /// Whether @p f's table has been built (lazily, by a prior batch).
  [[nodiscard]] bool table_built(Function f) const noexcept;
  /// Bytes one function's *dense* table occupies (0 when not cacheable) —
  /// the uncompressed reference size; see table_resident_bytes for what a
  /// built table actually holds.
  [[nodiscard]] std::size_t table_bytes() const noexcept;
  /// Bytes @p f's built table actually occupies (0 when not built).
  [[nodiscard]] std::size_t table_resident_bytes(Function f) const noexcept;
  /// The physical layout @p f's built table landed on after verification:
  /// HalfSigmoid/HalfOdd for σ/tanh where the fold is bit-identical, Dense
  /// otherwise and for exp (also Dense when not yet built — the scalar
  /// path's equivalent).
  [[nodiscard]] simd::TableKind table_kind(Function f) const noexcept;
  /// Process-wide resident bytes across every live BatchNacu's built
  /// tables, for the serving layer's working-set gauge. No layout decision
  /// reads it.
  [[nodiscard]] static std::size_t live_table_bytes() noexcept;
  /// Force-build @p f's table now (e.g. before timing-sensitive batches).
  void warm(Function f) const;

  /// Evaluate @p f element-wise: out[i] = f(in[i]), bit-identical to the
  /// scalar core::Nacu calls. Inputs must be in the datapath format;
  /// in.size() must equal out.size(). in and out may alias exactly.
  void evaluate(Function f, std::span<const fp::Fixed> in,
                std::span<fp::Fixed> out) const;
  [[nodiscard]] std::vector<fp::Fixed> evaluate(
      Function f, std::span<const fp::Fixed> in) const;

  /// Raw-value variant for consumers that carry datapath raws (CGRA,
  /// softmax engine). Raws must be representable in the datapath format.
  void evaluate_raw(Function f, std::span<const std::int64_t> in,
                    std::span<std::int64_t> out) const;

  /// Batched Eq. 13 softmax, bit-identical to core::Nacu::softmax.
  [[nodiscard]] std::vector<fp::Fixed> softmax(
      std::span<const fp::Fixed> inputs) const;
  [[nodiscard]] std::vector<std::int64_t> softmax_raw(
      std::span<const std::int64_t> inputs_raw) const;

  /// Fault injection (fault/fault_port.hpp): route every table entry read
  /// through @p port (surfaces TableSigmoid/TableTanh/TableExp). The fault
  /// surface's word addressing is the *dense* domain — word = raw − min_raw
  /// over all 2^width words — regardless of the physical layout, so
  /// injection campaigns and the verify-before-release parity check
  /// behave identically on Dense and half-range tables. nullptr disarms
  /// (the default); the fault-free path then costs one pointer compare per
  /// batch, hoisted out of the loops. Attaching is not thread-safe — attach
  /// only while no evaluation is in flight (the serving layer attaches at
  /// shard construction/rebuild). Armed batches may fan out across the
  /// pool, and a serving supervisor may scrub while a dispatcher reads,
  /// *if* the port itself is thread-safe — fault::FaultInjector is
  /// (mutex-guarded fault list, atomic counters).
  void attach_fault_port(fault::BitFaultPort* port) noexcept {
    fault_port_ = port;
  }
  [[nodiscard]] fault::BitFaultPort* fault_port() const noexcept {
    return fault_port_;
  }
  /// The TableSigmoid/TableTanh/TableExp surface backing @p f's table.
  [[nodiscard]] static fault::Surface table_surface(Function f) noexcept;

  /// Recovery: rewrite @p f's table storage from the scalar datapath (a
  /// controller scrub). Every physical word is recomputed and stored, and
  /// the attached port is told about each rewrite *in the dense word
  /// domain* — transient upsets heal, stuck-at defects persist (route those
  /// consumers to the scalar path instead). No-op when the table was never
  /// built. The layout chosen at build time is kept.
  void scrub_table(Function f) const;

 private:
  /// One built activation table: the owned samples plus the non-owning
  /// simd::TableView the kernels consume. The view's pointer targets the
  /// vector *after* it reaches its final address, and the layout never
  /// changes post-publish.
  struct TableStore {
    std::vector<std::int16_t> entries;
    simd::TableView view;
    std::size_t resident_bytes = 0;
  };

  /// Raw-domain Eq. 13 softmax over the exp table: single max scan, one
  /// fused shift+exp pass, the same ordered saturating denominator
  /// accumulation, then the divide/reciprocal pass — all on int raws,
  /// bit-identical to the Fixed-API path (see DESIGN.md for the algebra).
  /// Callable only when the exp table exists, no fault port is armed, every
  /// input is in the datapath format, and 1.0 is representable.
  [[nodiscard]] std::vector<fp::Fixed> softmax_fused(
      std::span<const fp::Fixed> inputs, const simd::TableView& exp_view) const;

  /// Scalar datapath result for one raw input.
  [[nodiscard]] std::int64_t scalar_raw(Function f, std::int64_t raw) const;
  /// The table view for @p f, building it if a batch of @p batch_size
  /// warrants one; nullptr when the scalar path should be used instead.
  [[nodiscard]] const simd::TableView* table_for(Function f,
                                                 std::size_t batch_size) const;
  /// Build @p f's table into @p store: dense sweep, then for σ/tanh the
  /// half-range fold and its exhaustive bit-identity verification.
  void build_table(Function f, TableStore& store) const;
  /// Run @p body over [0, n), fanned out when n crosses the threshold.
  void for_range(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body)
      const;

  Nacu unit_;
  Options options_;
  ThreadPool* pool_;
  simd::Backend resolved_backend_;
  fault::BitFaultPort* fault_port_ = nullptr;
  mutable std::array<std::once_flag, kFunctionCount> table_once_;
  mutable std::array<TableStore, kFunctionCount> tables_;
  mutable std::array<std::atomic<bool>, kFunctionCount> table_built_{};
};

}  // namespace nacu::core
