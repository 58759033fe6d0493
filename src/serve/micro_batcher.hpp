// Dynamic micro-batcher: the flush policy between a shard's ingress queue
// and its dispatcher.
//
// Requests accumulate here until a *flush trigger* fires, whichever first:
//
//   * max_batch   — the pending count reached the dispatch group size, or
//   * max_wait    — the oldest pending request has waited long enough.
//
// take_group() then hands the dispatcher the oldest max_batch requests as
// one dispatch group. max_batch = 1 degenerates to per-request dispatch
// (the baseline bench_serving compares against); max_wait = 0 makes the
// dispatcher coalesce exactly what is pending whenever it wakes.
//
// The batcher is NOT internally synchronised: it is the dispatcher-private
// side of a shard (fed from ShardQueue::drain_into and by work stealing),
// owned and touched by exactly one dispatcher thread. It holds no timer of
// its own — the dispatcher sleeps until flush_deadline() and re-asks
// should_flush(), so time only ever advances in one place. Flush policy is
// unit-tested in isolation with synthetic clocks
// (tests/test_micro_batcher.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "serve/request.hpp"

namespace nacu::serve {

struct BatcherOptions {
  /// Dispatch group size: flush as soon as this many requests are pending.
  std::size_t max_batch = 64;
  /// Oldest-request age at which a partial group flushes anyway.
  std::chrono::microseconds max_wait{200};
  /// Backpressure high-water mark: accepted-but-undispatched requests
  /// beyond this are rejected with OverloadedError. The server splits it
  /// exactly across shards — queue_capacity / shards slots per ShardQueue,
  /// plus one for each of the first queue_capacity % shards — whose
  /// try_push enforces it; the batcher itself never rejects. A server
  /// with fewer slots than shards holds one per shard.
  std::size_t queue_capacity = 1024;
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions options);

  [[nodiscard]] const BatcherOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return pending_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pending_.empty(); }

  /// Append one accepted request.
  void push(Request request);

  /// Whether a dispatch group should flush at @p now.
  [[nodiscard]] bool should_flush(
      std::chrono::steady_clock::time_point now) const noexcept;

  /// When the pending partial group flushes by age (oldest + max_wait);
  /// nullopt when nothing is pending.
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  flush_deadline() const;

  /// Move out the oldest min(size, max_batch) requests, FIFO order.
  [[nodiscard]] std::vector<Request> take_group();

 private:
  BatcherOptions options_;
  std::deque<Request> pending_;
};

}  // namespace nacu::serve
