// Lightweight metrics registry: monotonic counters, gauges, and latency
// histograms with thread-local sharding aggregated on read.
//
// Counters always count: add() is one relaxed fetch_add, so a counter is
// exact whether or not metrics are enabled and can serve as a component's
// own books. Gauges, histograms and ScopedTimer are opt-in: while metrics
// are disabled each of their sites pays exactly one relaxed atomic load
// (measured ≤2% on bench_throughput, see DESIGN.md §3e). Turn them on with
// set_metrics_enabled(true) — the `--metrics` flag on bench_throughput /
// fault_campaign and examples/metrics_dump do — or via the NACU_METRICS=1
// environment variable, then read everything back with to_json().
//
// A Registry is a named set of metrics: Registry::instance() is the
// process-global one (core, nn, fault, dse record there), and each
// serve::InferenceServer and net::NetServer owns one of its own. Lookups
// return references valid for the registry's lifetime, so sites look a
// metric up once — a static for the global registry, a member for an owned
// one — and the hot path never touches the map. Counters and gauges are
// single atomics (relaxed — they are statistics, not synchronisation).
// Histograms shard per recording thread: each thread appends to its own
// cache-line-padded shard (registered once under the histogram's mutex) and
// snapshot() sums the shards, so concurrent recorders never contend on a
// shared word.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nacu::obs {

/// Process-wide switch for gauges, histograms, timers and spans — one
/// relaxed load, the whole cost of a disabled site. Counters ignore it.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

/// Monotonically increasing event count; always on. Each counter owns a
/// cache line: counters bumped by different threads (a server's submitters
/// and its dispatchers) would otherwise share lines wherever the heap
/// happened to place them.
class alignas(64) Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins level, with a high-water helper for queue depths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    if (!metrics_enabled()) {
      return;
    }
    value_.store(v, std::memory_order_relaxed);
  }

  /// Raise the gauge to @p v when it is a new maximum (queue high-water).
  void record_max(std::int64_t v) noexcept {
    if (!metrics_enabled()) {
      return;
    }
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed value distribution (nanoseconds for the *_ns metrics).
/// Bucket b counts values whose bit-width is b, i.e. value ∈ [2^(b−1), 2^b).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  Histogram() noexcept;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    [[nodiscard]] double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bucket bound containing quantile @p q ∈ [0, 1] — a coarse
    /// (power-of-two) percentile, exact enough for latency triage.
    [[nodiscard]] std::uint64_t quantile_bound(double q) const noexcept;
  };

  /// Sum every thread's shard. Safe to call while recorders run (the result
  /// is then a consistent-enough statistical snapshot, not a linearisation).
  [[nodiscard]] Snapshot snapshot() const;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };

  [[nodiscard]] Shard& local_shard();

  /// Never reused, unlike an address: the key of each thread's shard cache,
  /// so a histogram built where a destroyed one lived starts uncached.
  const std::uint64_t id_;
  mutable std::mutex mutex_;  ///< guards shards_ growth only
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Records elapsed wall time into a histogram on scope exit, in
/// nanoseconds. Costs one relaxed load when metrics are disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept {
    if (metrics_enabled()) {
      hist_ = &hist;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      hist_->record(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
  }

 private:
  Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

/// A name → metric map. Lookups are mutex-guarded and return references
/// that stay valid for the registry's lifetime — look them up once.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count,sum,mean,min,max,buckets:[{le,count},...]}}} — stable key
  /// order (sorted by name) so dumps diff cleanly.
  [[nodiscard]] std::string to_json() const;

  /// Zero every registered metric (tests and between bench sections).
  /// Metrics themselves stay registered; cached references stay valid.
  void reset_all();

  /// The process-global registry; never destroyed, so references into it
  /// may be cached in statics and used past static destructors.
  static Registry& instance();

 private:
  mutable std::mutex mutex_;
  // Sorted association lists: few dozen metrics, insert-once, read-rare.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

/// Shorthands for the singleton registry.
[[nodiscard]] inline Registry& registry() { return Registry::instance(); }
[[nodiscard]] inline Counter& counter(std::string_view name) {
  return registry().counter(name);
}
[[nodiscard]] inline Gauge& gauge(std::string_view name) {
  return registry().gauge(name);
}
[[nodiscard]] inline Histogram& histogram(std::string_view name) {
  return registry().histogram(name);
}

}  // namespace nacu::obs
