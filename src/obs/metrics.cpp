#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

namespace nacu::obs {

namespace {

std::atomic<bool> g_metrics_enabled{[] {
  const char* env = std::getenv("NACU_METRICS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

std::atomic<std::uint64_t> g_next_histogram_id{1};

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

template <typename Map, typename Factory>
auto& lookup(std::mutex& mutex, Map& map, std::string_view name,
             Factory make) {
  const std::lock_guard<std::mutex> lock{mutex};
  const auto it = std::lower_bound(
      map.begin(), map.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != map.end() && it->first == name) {
    return *it->second;
  }
  return *map.insert(it, {std::string{name}, make()})->second;
}

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram() noexcept
    : id_{g_next_histogram_id.fetch_add(1, std::memory_order_relaxed)} {}

void Histogram::record(std::uint64_t value) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  Shard& shard = local_shard();
  // bit_width(0) == 0, bit_width(2^63..) == 64 → bucket index ∈ [0, 63].
  const auto bucket = static_cast<std::size_t>(
      value == 0 ? 0 : std::bit_width(value) - 1);
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  // Single-writer shard: plain load-compare-store is race-free here; the
  // atomics exist for the concurrent snapshot() reader.
  if (value < shard.min.load(std::memory_order_relaxed)) {
    shard.min.store(value, std::memory_order_relaxed);
  }
  if (value > shard.max.load(std::memory_order_relaxed)) {
    shard.max.store(value, std::memory_order_relaxed);
  }
}

Histogram::Shard& Histogram::local_shard() {
  // Per-thread cache of (histogram id → shard). A histogram dies with its
  // registry and takes its shards along; its id is never issued again, so
  // the stale entry can never match, and costs 16 bytes until the thread
  // exits. Keyed by address, a new histogram at a recycled address would
  // be handed the freed shard.
  thread_local std::vector<std::pair<std::uint64_t, Shard*>> cache;
  for (const auto& [id, shard] : cache) {
    if (id == id_) {
      return *shard;
    }
  }
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    shards_.push_back(std::move(owned));
  }
  cache.emplace_back(id_, shard);
  return *shard;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  std::uint64_t min = ~std::uint64_t{0};
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& shard : shards_) {
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    min = std::min(min, shard->min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, shard->max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += shard->buckets[b].load(std::memory_order_relaxed);
    }
  }
  snap.min = snap.count == 0 ? 0 : min;
  return snap;
}

void Histogram::reset() noexcept {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& shard : shards_) {
    for (auto& bucket : shard->buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0, std::memory_order_relaxed);
    shard->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    shard->max.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::Snapshot::quantile_bound(double q) const noexcept {
  if (count == 0) {
    return 0;
  }
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q·count), clamped to [1, count].
  const double rank = std::ceil(q * static_cast<double>(count));
  const auto target = std::min<std::uint64_t>(
      count, rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target) {
      return b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (b + 1)) - 1;
    }
  }
  return max;
}

Counter& Registry::counter(std::string_view name) {
  return lookup(mutex_, counters_, name,
                [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  return lookup(mutex_, gauges_, name,
                [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name) {
  return lookup(mutex_, histograms_, name,
                [] { return std::make_unique<Histogram>(); });
}

std::string Registry::to_json() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": ";
    append_u64(out, counter->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": ";
    out += std::to_string(gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    const Histogram::Snapshot snap = hist->snapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": {\"count\": ";
    append_u64(out, snap.count);
    out += ", \"sum\": ";
    append_u64(out, snap.sum);
    char mean[48];
    std::snprintf(mean, sizeof mean, "%.6g", snap.mean());
    out += ", \"mean\": ";
    out += mean;
    out += ", \"min\": ";
    append_u64(out, snap.min);
    out += ", \"max\": ";
    append_u64(out, snap.max);
    out += ", \"p50_le\": ";
    append_u64(out, snap.quantile_bound(0.50));
    out += ", \"p99_le\": ";
    append_u64(out, snap.quantile_bound(0.99));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] == 0) {
        continue;
      }
      if (!first_bucket) {
        out += ", ";
      }
      first_bucket = false;
      out += "{\"le\": ";
      append_u64(out,
                 b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (b + 1)) - 1);
      out += ", \"count\": ";
      append_u64(out, snap.buckets[b]);
      out += "}";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void Registry::reset_all() {
  // Counters/gauges reset under the map lock; histograms take their own
  // shard locks, never while holding mutex_ held by to_json/lookup callers
  // on this thread (mutex_ is not recursive, so collect first).
  std::vector<Histogram*> hists;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    for (const auto& [name, counter] : counters_) {
      counter->reset();
    }
    for (const auto& [name, gauge] : gauges_) {
      gauge->reset();
    }
    hists.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      hists.push_back(hist.get());
    }
  }
  for (Histogram* hist : hists) {
    hist->reset();
  }
}

Registry& Registry::instance() {
  static Registry* registry = new Registry;  // never destroyed: sites cache
                                             // references past static dtors
  return *registry;
}

}  // namespace nacu::obs
