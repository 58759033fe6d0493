// Measurement records kept in memory while a run is timed: raw latency
// samples, process resource usage, and the spans of a traced run.
//
// Everything here is preallocated before the clock starts and never grows
// while it runs, so recording costs no allocation.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace layerbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point from,
                                             Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// A uniform random sample (Vitter's algorithm R) of at most `capacity`
/// raw nanosecond durations out of every duration added. Percentiles come
/// from these raw values, never from bucketed histograms.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : kept_(capacity, 0), state_{seed | 1} {}

  void add(std::int64_t ns) {
    const auto value = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(ns, 0, UINT32_MAX));
    ++seen_;
    if (filled_ < kept_.size()) {
      kept_[filled_++] = value;
      return;
    }
    const std::uint64_t slot = next() % seen_;
    if (slot < kept_.size()) {
      kept_[slot] = value;
    }
  }

  /// Durations added, including those the sample did not keep.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  /// Append the kept samples to @p out.
  void append_to(std::vector<std::uint32_t>& out) const {
    out.insert(out.end(), kept_.begin(),
               kept_.begin() + static_cast<std::ptrdiff_t>(filled_));
  }

 private:
  std::uint64_t next() noexcept {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::vector<std::uint32_t> kept_;
  std::size_t filled_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t state_;
};

/// Nearest-rank quantile of @p samples (reordered in place); 0 when empty.
[[nodiscard]] inline double quantile(std::vector<std::uint32_t>& samples,
                                     double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, q * static_cast<double>(samples.size()) - 1e-9));
  const auto nth = samples.begin() +
                   static_cast<std::ptrdiff_t>(
                       std::min(rank, samples.size() - 1));
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

/// Median of a small set of repeated measurements (copied, not reordered).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Process-wide CPU time and context switches (getrusage RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;

  [[nodiscard]] static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
                 static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
  }
  [[nodiscard]] Usage operator-(const Usage& earlier) const {
    return Usage{user_s - earlier.user_s, sys_s - earlier.sys_s,
                 ctx_switches - earlier.ctx_switches};
  }
};

/// Resident memory of the process now (/proc/self/statm), in MiB. Unlike
/// ru_maxrss, it falls when memory is given back, so a baseline taken with
/// it does not carry an earlier, freed high-water mark.
[[nodiscard]] inline double resident_mib() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const bool read =
      file != nullptr && std::fscanf(file, "%llu %llu", &size, &resident) == 2;
  if (file != nullptr) {
    std::fclose(file);
  }
  if (!read) {
    throw std::runtime_error{"cannot read /proc/self/statm"};
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

/// The public calls a traced run wraps, one span name each.
enum class SpanName : std::uint8_t {
  Request,      ///< one request, send to verified result, on the caller
  ClientSend,   ///< net::Client::send_submit / send_softmax
  ClientRead,   ///< net::Client::read_response (wait + recv + decode)
  ServeSubmit,  ///< serve::InferenceServer::submit / submit_softmax
  ServeWait,    ///< std::future::get on the submit's future
  CoreCall,     ///< core::BatchNacu::evaluate / softmax
};
inline constexpr std::size_t kSpanNames = 6;

[[nodiscard]] inline const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kNames{
      "request",     "net.client.send", "net.client.read",
      "serve.submit", "serve.wait",     "core.call"};
  return kNames[static_cast<std::size_t>(name)];
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a request span
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::int64_t start_ns = 0;  ///< since the run's epoch
  std::int64_t end_ns = 0;
  SpanName name = SpanName::Request;
};

/// One generator thread's spans: the latest `capacity` spans in a ring
/// (written out when the run ends) plus a duration sample per span name
/// covering the whole traced window (read for the per-layer p50s).
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t thread, std::size_t capacity,
          std::size_t samples_per_name)
      : epoch_{epoch}, thread_{thread}, ring_(capacity) {
    durations_.reserve(kSpanNames);
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      durations_.emplace_back(samples_per_name, (thread + 1) * 7919 + i);
    }
  }

  /// A fresh span id, for a parent whose children end before it does.
  [[nodiscard]] std::uint64_t reserve_id() noexcept {
    return (static_cast<std::uint64_t>(thread_ + 1) << 40) | ++next_id_;
  }

  void record(std::uint64_t id, SpanName name, std::uint64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end) {
    Span& span = ring_[written_++ % ring_.size()];
    span = Span{id,
                parent,
                request,
                ns_between(epoch_, start),
                ns_between(epoch_, end),
                name};
    durations_[static_cast<std::size_t>(name)].add(span.end_ns -
                                                   span.start_ns);
  }
  void record(SpanName name, std::uint64_t parent, std::uint64_t request,
              Clock::time_point start, Clock::time_point end) {
    record(reserve_id(), name, parent, request, start, end);
  }

  [[nodiscard]] std::uint32_t thread() const noexcept { return thread_; }
  [[nodiscard]] const Reservoir& durations(SpanName name) const {
    return durations_[static_cast<std::size_t>(name)];
  }
  /// The spans still in the ring, oldest first.
  [[nodiscard]] std::vector<Span> spans() const {
    std::vector<Span> out;
    const std::size_t n = std::min<std::size_t>(written_, ring_.size());
    out.reserve(n);
    for (std::size_t i = written_ - n; i < written_; ++i) {
      out.push_back(ring_[i % ring_.size()]);
    }
    return out;
  }

 private:
  Clock::time_point epoch_;
  std::uint32_t thread_;
  std::vector<Span> ring_;
  std::size_t written_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Reservoir> durations_;
};

}  // namespace layerbench
