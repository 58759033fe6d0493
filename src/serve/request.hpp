// Request/response vocabulary of the async serving layer.
//
// A request is one unit of client work — an element-wise activation batch
// or one softmax row, the NACU's own operations — paired with the promise
// its result is delivered through, plus the metadata the sharded server
// schedules it by: an optional completion deadline and its retry credit.
// Every request has the same shape, fp::Fixed values in and out (a model
// pass is the caller's to run: it calls the model, which calls the
// engine). Requests are created by the InferenceServer submission API
// (server.hpp), queued in a per-shard ShardQueue (shard_queue.hpp),
// grouped by that shard's MicroBatcher (micro_batcher.hpp), and fulfilled
// by the shard's dispatcher thread; clients only ever see the std::future
// side.
//
// Admission failures are *exceptions from submit*, not broken futures: a
// request that the server cannot accept (every shard queue full, deadline
// already expired, or shutdown already begun) throws before any promise
// exists, so a returned future always corresponds to accepted work that
// the server will finish — the graceful-shutdown drain guarantee depends
// on exactly this. The one post-admission rejection is deadline shedding:
// a request whose deadline expires while it queues is never dispatched;
// its future carries DeadlineExpiredError instead (the drain guarantee
// still holds — the future becomes ready).
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/batch_nacu.hpp"

namespace nacu::serve {

/// Submission rejected: every shard queue is at its capacity (the
/// backpressure high-water mark). Clients should back off and retry;
/// nothing was enqueued.
class OverloadedError : public std::runtime_error {
 public:
  OverloadedError()
      : std::runtime_error{
            "serve: pending queues at their high-water mark, request "
            "rejected"} {}
};

/// Submission rejected: shutdown has begun. Previously accepted requests
/// still complete (the drain guarantee); new work is refused.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError()
      : std::runtime_error{"serve: server is shutting down, request rejected"} {}
};

/// The request's deadline expired — either already past at submission
/// (thrown from submit) or while the request queued (set on its future;
/// the request is shed, never dispatched).
class DeadlineExpiredError : public std::runtime_error {
 public:
  DeadlineExpiredError()
      : std::runtime_error{"serve: request deadline expired before dispatch"} {}
};

/// The dispatcher shard holding the request died (uncaught exception), and
/// the request could not be transparently re-enqueued: it had no retry
/// credit left (SubmitOptions::max_retries, default 0) or the server-wide
/// retry budget was empty (ResilienceOptions). A request queued on a
/// stalled shard is moved without credit and fails only when every queue
/// is full or shutdown has begun. Delivered
/// through the future — the drain guarantee still holds, the future is
/// ready, it just carries this error instead of a value.
class ShardFailedError : public std::runtime_error {
 public:
  ShardFailedError()
      : std::runtime_error{
            "serve: dispatcher shard failed and the request had no retry "
            "credit (SubmitOptions::max_retries / global retry budget)"} {}
};

/// Per-submission scheduling metadata. Default-constructed options mean
/// no deadline and no retry credit.
struct SubmitOptions {
  /// Completion deadline. Expired at submit → DeadlineExpiredError from
  /// submit; expired while queued → the future carries DeadlineExpiredError
  /// and the request is never dispatched.
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Times the server may transparently re-enqueue this request after the
  /// dispatcher holding it dies. Every retry also draws one token from the
  /// server-wide retry-budget bucket (ResilienceOptions::retry_budget_per_s)
  /// so a crash-looping shard cannot amplify load; when either is exhausted
  /// the future fails with ShardFailedError. 0 (the default) fails fast on
  /// the first loss. A stalled shard's queued requests never ran, so moving
  /// them to another shard spends none of this credit.
  std::uint32_t max_retries = 0;
};

/// One queued unit of work plus its scheduling metadata. A request with a
/// function is an element-wise activation, out[i] = f(input[i]); these are
/// the requests the micro-batcher *coalesces* — element-wise evaluation is
/// position-independent, so concatenating many requests into one
/// BatchNacu::evaluate call and slicing the output back apart is
/// bit-identical to evaluating each request alone (proven by
/// tests/test_serving.cpp). A request without one is an Eq. 13 softmax row
/// over input; each row is its own BatchNacu::softmax call, because the
/// normalisation couples every element of a row, so rows are never merged.
///
/// enqueued_at is the admission timestamp (it feeds the max_wait flush
/// policy and the serve.request_latency_ns enqueue→complete histogram).
/// Every accepted request exists as exactly one Request, moved from submit
/// through its queue, batcher and dispatch group (and through a requeue
/// after a shard failure), so its promise has exactly one producer.
struct Request {
  std::optional<core::BatchNacu::Function> function;  ///< empty: softmax
  std::vector<fp::Fixed> input;
  std::promise<std::vector<fp::Fixed>> result;
  std::chrono::steady_clock::time_point enqueued_at{};
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Remaining transparent re-enqueues after a shard failure
  /// (SubmitOptions::max_retries; decremented per requeue).
  std::uint32_t retries_left = 0;
};
static_assert(!std::is_copy_constructible_v<Request>,
              "one Request, and one promise, per accepted request");

}  // namespace nacu::serve
