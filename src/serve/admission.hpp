// Admission control above the shard queues' backpressure.
//
// The PR 5 server had exactly one admission rule: reject when the queue is
// full. Serving real multi-tenant traffic needs three more, all decided
// *before* a request is enqueued so every rejection is an exception from
// submit and never a broken future:
//
//   * priority classes — each Priority admits against its own depth limit
//     (depth_limit). High and normal may fill the whole per-shard queue
//     capacity; best-effort fills only the first half (never less than one
//     slot), so under load it is always shed before normal/high traffic —
//     graceful degradation instead of FIFO lockout;
//   * deadline checks — a request whose deadline has already expired is
//     rejected at submit (RejectDeadline); one whose deadline expires
//     while queued is shed at dispatch by the server (its future carries
//     DeadlineExpiredError, the engine never sees it);
//   * per-tenant token buckets — tenants listed in AdmissionOptions::
//     quotas draw one token per submission from a bucket that refills at
//     tokens_per_s up to burst. An empty bucket rejects (RejectQuota).
//     Unlisted tenants (including the default id 0) are unmetered.
//
// Time is injected: the controller reads the clock it is constructed with
// (the server passes ServerOptions::clock) for both bucket refill and
// deadline checks, so tests drive refill rates and expiry deterministically
// (tests/test_admission.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/request.hpp"

namespace nacu::serve {

/// Token-bucket quota for one tenant: sustained tokens_per_s with bursts
/// up to burst tokens. One submission costs one token.
struct TenantQuota {
  double tokens_per_s = 0.0;
  double burst = 1.0;
};

/// One token bucket: refills at quota.tokens_per_s up to quota.burst, one
/// token per draw. Time is passed in rather than read — the caller's clock
/// may be the injected test clock — and access is *not* synchronised here:
/// AdmissionController guards its tenant buckets with its own mutex, and
/// the resilience layer's RetryBudget (resilience.hpp) does the same for
/// its global bucket.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(TenantQuota quota, std::chrono::steady_clock::time_point now)
      : quota_{std::max(0.0, quota.tokens_per_s), std::max(1.0, quota.burst)},
        tokens_{quota_.burst},
        last_{now} {}

  /// Refill for the elapsed time, then draw one token; false when empty.
  [[nodiscard]] bool try_draw(std::chrono::steady_clock::time_point now) {
    const double dt = std::chrono::duration<double>(now - last_).count();
    if (dt > 0.0) {
      tokens_ = std::min(quota_.burst, tokens_ + dt * quota_.tokens_per_s);
      last_ = now;
    }
    if (tokens_ < 1.0) {
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

 private:
  TenantQuota quota_{};
  double tokens_ = 0.0;
  std::chrono::steady_clock::time_point last_{};
};

struct AdmissionOptions {
  /// Per-tenant token buckets, keyed by SubmitOptions::tenant. Tenants
  /// not listed are unmetered.
  std::vector<std::pair<std::uint64_t, TenantQuota>> quotas;
};

class AdmissionController {
 public:
  enum class Verdict {
    Admit,
    RejectDeadline,  ///< deadline already expired at submission
    RejectQuota,     ///< tenant bucket empty
  };

  /// @p clock is read for bucket refill and deadline checks; empty means
  /// the real steady clock.
  AdmissionController(
      const AdmissionOptions& options, std::size_t shard_capacity,
      std::function<std::chrono::steady_clock::time_point()> clock = {});

  /// The submission-time decision: deadline check, then token-bucket
  /// draw. Queue-depth shedding happens in ShardQueue::try_push against
  /// depth_limit() — under the producer lock, where it is exact.
  [[nodiscard]] Verdict preadmit(const SubmitOptions& options);

  /// Depth (in requests, per shard) the priority class may fill to: the
  /// full shard capacity for High and Normal, max(1, capacity / 2) for
  /// BestEffort.
  [[nodiscard]] std::size_t depth_limit(Priority priority) const noexcept {
    return priority == Priority::BestEffort ? best_effort_limit_ : capacity_;
  }

 private:
  std::function<std::chrono::steady_clock::time_point()> clock_;
  std::size_t capacity_;
  std::size_t best_effort_limit_;
  std::mutex mutex_;  ///< guards buckets_ (metered tenants only)
  std::unordered_map<std::uint64_t, TokenBucket> buckets_;
};

}  // namespace nacu::serve
