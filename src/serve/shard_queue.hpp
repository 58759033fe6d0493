// Bounded MPSC ingress queue for one dispatcher shard.
//
// The scale-out replacement for the PR 5 single submission mutex: each
// dispatcher shard owns one ShardQueue, and submitting threads contend
// only on the producer lock of *their* shard (round-robin per-thread
// affinity, server.cpp), so S shards divide the submission contention by
// S. The design is the classic two-lock queue specialised for the serving
// layer:
//
//   * producer side — try_push appends to the inbox under the producer
//     mutex. The admission decision (capacity, stopped flag) happens
//     under the same lock, so backpressure accounting is exact: at most
//     capacity requests are ever accepted-but-undispatched per shard, and
//     a rejected push enqueues nothing. Producers notify the consumer
//     only on the empty→non-empty transition — under load the inbox is
//     rarely empty, so the futex traffic that throttled the single-mutex
//     design disappears;
//   * consumer side — the shard's dispatcher drains the inbox into its
//     *private* MicroBatcher deque (drain_into swaps under the producer
//     lock, at most one group's worth per wake so the remainder stays
//     stealable) and then works lock-free: group formation, coalescing,
//     and promise fulfilment never touch the mutex;
//   * thief side — an idle neighbour shard steals the oldest inbox
//     requests under the victim's producer lock (steal_into), adopting
//     them into its own accounting. The private deque is never stolen
//     from — it is single-owner by construction.
//
// pending() counts inbox + drained-but-undispatched requests: push and
// adopt increment, on_taken (dispatch-group formation) and steal_into
// decrement, so the count is exactly "accepted but not yet taken into a
// dispatch group" — the quantity the backpressure contract bounds.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "serve/request.hpp"

namespace nacu::serve {

class ShardQueue {
 public:
  enum class Push {
    Ok,       ///< accepted and enqueued
    Full,     ///< capacity reached; nothing enqueued
    Stopped,  ///< queue stopped (server shutdown); nothing enqueued
  };

  enum class Wait {
    Work,     ///< the inbox is non-empty
    Timeout,  ///< the deadline passed with an empty inbox
    Stopped,  ///< stopped with an empty inbox — nothing can arrive anymore
  };

  explicit ShardQueue(std::size_t capacity)
      : capacity_{std::max<std::size_t>(1, capacity)} {}

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Accepted-but-undispatched requests (inbox + drained into the
  /// consumer's private deque). Lock-free read — exact for the owning
  /// shard's admission decisions (which re-check under the lock), advisory
  /// for cross-shard load peeks.
  [[nodiscard]] std::size_t size() const noexcept {
    return pending_.load(std::memory_order_relaxed);
  }

  /// Producer: admit @p request unless stopped or pending ≥ capacity.
  /// Moves from @p request only on Ok, so the caller can probe another
  /// shard after Full.
  [[nodiscard]] Push try_push(Request& request) {
    bool was_empty = false;
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (stopped_) {
        return Push::Stopped;
      }
      if (pending_.load(std::memory_order_relaxed) >= capacity_) {
        return Push::Full;
      }
      was_empty = inbox_.empty();
      inbox_.push_back(std::move(request));
      pending_.fetch_add(1, std::memory_order_relaxed);
    }
    if (was_empty) {
      ready_.notify_one();  // only this shard's dispatcher waits
    }
    return Push::Ok;
  }

  /// Consumer: move up to @p max_n of the oldest inbox requests into
  /// @p sink (called as sink(Request&&)). Returns the count moved. The
  /// moved requests stay in pending() until on_taken.
  template <typename Sink>
  std::size_t drain_into(Sink&& sink, std::size_t max_n) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::size_t n = std::min(max_n, inbox_.size());
    for (std::size_t i = 0; i < n; ++i) {
      sink(std::move(inbox_.front()));
      inbox_.pop_front();
    }
    return n;
  }

  /// Thief: move up to @p max_n of the oldest inbox requests into
  /// @p sink, transferring them out of this shard's accounting — the
  /// caller must adopt() the count into its own queue. Never touches the
  /// victim consumer's private deque.
  template <typename Sink>
  std::size_t steal_into(Sink&& sink, std::size_t max_n) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::size_t n = std::min(max_n, inbox_.size());
    for (std::size_t i = 0; i < n; ++i) {
      sink(std::move(inbox_.front()));
      inbox_.pop_front();
    }
    pending_.fetch_sub(n, std::memory_order_relaxed);
    return n;
  }

  /// Thief: account @p n stolen requests into this (the thief's) shard.
  /// No capacity check — stealing only happens into an idle shard.
  void adopt(std::size_t n) noexcept {
    pending_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Consumer: @p n drained requests were taken into a dispatch group and
  /// no longer count against the backpressure bound.
  void on_taken(std::size_t n) noexcept {
    pending_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Consumer: sleep until the inbox is non-empty, the queue is stopped,
  /// or @p deadline (when given) passes. A Stopped return guarantees no
  /// request can ever arrive again — combined with an empty private
  /// deque, the dispatcher may exit.
  [[nodiscard]] Wait wait(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    std::unique_lock<std::mutex> lock{mutex_};
    for (;;) {
      if (!inbox_.empty()) {
        return Wait::Work;
      }
      if (stopped_) {
        return Wait::Stopped;
      }
      if (deadline.has_value()) {
        if (ready_.wait_until(lock, *deadline) == std::cv_status::timeout) {
          return inbox_.empty() ? Wait::Timeout : Wait::Work;
        }
      } else {
        ready_.wait(lock);
      }
    }
  }

  /// Stop admission on this queue: subsequent try_push returns Stopped
  /// and the consumer's wait returns Stopped once the inbox drains.
  /// Idempotent; safe from any thread.
  void stop() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stopped_ = true;
    }
    ready_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mutex_;  ///< producer lock: inbox, stopped flag, cv
  std::condition_variable ready_;
  std::deque<Request> inbox_;
  bool stopped_ = false;
};

}  // namespace nacu::serve
