// Sharded asynchronous inference server over the NACU batch engine.
//
// The missing piece between "a fast datapath" and "a system that serves
// traffic": many concurrent clients submit per-request work — an
// element-wise activation batch or a softmax row, the NACU's own
// operations — and get std::futures back. Where the first
// serving layer funnelled every submitter through one mutex into one
// dispatcher thread (the measured scaling ceiling: requests/s *fell* as
// clients grew), this server scales out:
//
//   * sharded ingress — N dispatcher shards, each owning a bounded MPSC
//     ShardQueue, its own core::BatchNacu engine, its own MicroBatcher,
//     and its own concat scratch. A cheap shard picker (round-robin with
//     per-thread affinity) sends each submitting thread to its home
//     shard, so S shards divide submission-lock contention by S; a full
//     home shard spills to the next before rejecting;
//   * work stealing — an idle shard steals the oldest queued ingress of
//     the most loaded neighbour, so one bursty client cannot strand work
//     behind a single dispatcher while others sit idle;
//   * admission — two rules: a request is accepted while a shard queue
//     has room (exact OverloadedError backpressure) and its deadline has
//     not passed; the deadline is checked again at dispatch, so an
//     expired request is never executed;
//   * self-healing (resilience.hpp) — per-shard supervision with
//     heartbeat watchdog, crash respawn and stall redistribution;
//     per-shard circuit breaking that routes traffic away from unhealthy
//     shards; budgeted transparent retries; and live SEU
//     scrub-and-recover: with a fault port armed, every
//     table-path result is parity-verified before release, a detection
//     quarantines the function onto the bit-identical scalar path while
//     the supervisor scrub-rebuilds the table off the hot path.
//
// Contracts, each proven by tests/test_serving.cpp, tests/
// test_admission.cpp, and tests/test_resilience.cpp:
//
//  * bit-identity — results equal direct BatchNacu calls raw-for-raw
//    no matter the shard count, the stealing schedule, how requests were
//    coalesced into groups, whether a retry re-ran the request, or whether
//    the serving path was quarantined down to the scalar unit. Every
//    shard's engine builds identical tables from the same scalar datapath,
//    and the scalar datapath *is* the table's source — so every schedule
//    and every degradation yields the same bits;
//  * backpressure — at most queue_capacity requests sit accepted-but-
//    undispatched across all shards (a server with fewer slots than shards
//    holds one per shard); with every shard queue full, submit throws
//    OverloadedError and enqueues nothing (reject-with-error, never silent
//    drops or unbounded queues);
//  * graceful shutdown — shutdown() (and the destructor) stops admission
//    (further submits throw ShutdownError), drains every accepted request
//    across every shard, fulfils its future, then joins the dispatchers. A
//    returned future is therefore always eventually ready — deadline-shed
//    requests become ready with DeadlineExpiredError, requests orphaned by
//    a shard failure with no retry credit with ShardFailedError;
//  * per-request error isolation — a request with bad inputs (e.g. a Fixed
//    outside the datapath format) gets the exception on its own future; the
//    other requests of the same coalesced group still complete correctly;
//  * observability — each server owns an obs::Registry (metrics()) with
//    every serve.* metric: admission and completion counters, serve.shard.*
//    steal counters, serve.admission.* deadline counters,
//    serve.resilience.* recovery counters, and latency histograms (log2
//    buckets give p50/p99 through to_json()). Counters always count and are
//    the server's only books — counters() is a snapshot of them — while
//    gauges and histograms record only with obs metrics enabled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/request.hpp"
#include "serve/resilience.hpp"
#include "serve/shard_queue.hpp"

namespace nacu::serve {

struct ServerOptions {
  /// Micro-batching policy: group size, age-based flush, high-water mark.
  /// queue_capacity is the *total* backpressure bound, split exactly
  /// across the shards' queues (see BatcherOptions).
  BatcherOptions batcher{};
  /// Engine knobs forwarded to every shard's core::BatchNacu (thread
  /// pool, kernel backend, table/parallel thresholds). Every shard's
  /// tables take the one layout the config gives each function (σ/tanh
  /// half-range where the fold is bit-identical, exp Dense), however many
  /// shards or other engines are live; serve.table.resident_bytes reports
  /// the process-wide total.
  core::BatchNacu::Options batch_options{};
  /// Build the σ/tanh/exp activation tables at construction (when the
  /// format is table-cacheable) so the first requests are not taxed with
  /// the lazy full-domain sweeps.
  bool warm_tables = true;
  /// Dispatcher shards, clamped to [1, 64]. 1 (the default) reproduces
  /// the single-dispatcher behaviour exactly.
  std::size_t shards = 1;
  /// Idle shards steal queued ingress from the most loaded neighbour,
  /// re-polling every 100 µs (kIdlePoll in server.cpp).
  bool work_stealing = true;
  /// Supervision, the retry budget, fault ports (resilience.hpp).
  ResilienceOptions resilience{};
  /// The serving layer's one time source (empty = steady_clock). Every
  /// time read in the layer goes through it: the enqueued_at stamp, the
  /// max_wait flush check, deadline checks at submit and dispatch,
  /// retry-budget refill, the completion-latency histogram, circuit
  /// cooldowns, stall timing and scrub failures. Injecting a fake clock
  /// here puts the whole layer on fake time.
  std::function<std::chrono::steady_clock::time_point()> clock{};
};

class InferenceServer {
 public:
  using Function = core::BatchNacu::Function;

  explicit InferenceServer(const core::NacuConfig& config,
                           ServerOptions options = {});
  ~InferenceServer();  ///< shutdown(): drains accepted work, then joins.

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Element-wise activation batch: future resolves to f(input) in order.
  /// Throws OverloadedError / ShutdownError / DeadlineExpiredError
  /// instead of enqueueing.
  [[nodiscard]] std::future<std::vector<fp::Fixed>> submit(
      Function f, std::vector<fp::Fixed> input,
      const SubmitOptions& submit_options = {});

  /// One Eq. 13 softmax row over @p logits.
  [[nodiscard]] std::future<std::vector<fp::Fixed>> submit_softmax(
      std::vector<fp::Fixed> logits, const SubmitOptions& submit_options = {});

  /// Stop admission, drain every accepted request across every shard,
  /// join the supervisor and dispatchers, fail-or-finish any orphans.
  /// Idempotent and safe from several threads.
  void shutdown();

  /// Whether submissions are still admitted.
  [[nodiscard]] bool accepting() const;
  /// Requests accepted but not yet taken into a dispatch group, summed
  /// over all shards.
  [[nodiscard]] std::size_t pending() const;

  /// Shard 0's engine (all shards are configured identically and produce
  /// identical bits).
  [[nodiscard]] const core::BatchNacu& engine() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Now on the serving clock (ServerOptions::clock, steady_clock when
  /// unset): every time the layer reads, including the submit-time
  /// deadline check and the retry budget's refill.
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return options_.clock ? options_.clock()
                          : std::chrono::steady_clock::now();
  }

  /// Run one supervisor pass now, on the serving clock: recover dead
  /// dispatchers, detect stalls, perform requested scrubs, advance circuit
  /// cooldowns. The watchdog thread calls this on its
  /// interval; fake-clock tests (and the chaos bench) call it directly for
  /// deterministic recovery. Serialised against the watchdog; a no-op
  /// once shutdown has begun.
  void poke_supervisor();

  /// Point-in-time health of shard @p shard_index.
  [[nodiscard]] ShardHealthSnapshot shard_health(std::size_t shard_index) const;

  /// This server's serve.* metrics (serve.table.resident_bytes, a
  /// process-wide figure, stays in the global registry).
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// Snapshot of this server's counters, exact whether or not obs metrics
  /// are enabled; the recovery totals (detections, scrubs, scrub_failures,
  /// respawns, stalls) are sums of the shard_health() tallies. Invariant
  /// after shutdown(): accepted == completed, and
  /// accepted + rejected_* == submissions attempted.
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_overload = 0;  ///< every shard queue full
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t rejected_deadline = 0;  ///< expired already at submit
    std::uint64_t shed_deadline = 0;  ///< accepted, expired before dispatch
    std::uint64_t completed = 0;  ///< futures fulfilled (value or exception)
    std::uint64_t dispatches = 0;  ///< dispatch groups executed
    std::uint64_t steals = 0;          ///< successful steal operations
    std::uint64_t stolen_requests = 0;  ///< requests moved by stealing
    // Resilience (serve/resilience.hpp):
    std::uint64_t detections = 0;  ///< verify-before-release parity hits
    std::uint64_t degraded_requests = 0;  ///< served on the scalar path
    std::uint64_t scrubs = 0;           ///< successful scrub-and-reverify
    std::uint64_t scrub_failures = 0;   ///< table still corrupt after scrub
    std::uint64_t respawns = 0;  ///< dispatcher threads rebuilt after death
    std::uint64_t stalls = 0;    ///< frozen-heartbeat redistributions
    std::uint64_t retried = 0;   ///< transparent requeues after shard loss
    std::uint64_t retry_exhausted = 0;  ///< futures failed ShardFailedError
    std::uint64_t circuit_opens = 0;
    std::uint64_t circuit_closes = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  /// Everything one dispatcher shard owns. Engines are per-shard so group
  /// execution never shares mutable state across shards; configured
  /// identically, they produce identical bits by the dense-table
  /// construction argument. The engine lives behind a unique_ptr so the
  /// supervisor can rebuild it wholesale after a dispatcher death.
  struct Shard {
    Shard(const core::NacuConfig& config,
          const core::BatchNacu::Options& batch_options,
          const BatcherOptions& batcher_options, std::size_t capacity);

    /// Move out every request the shard holds, oldest first: its private
    /// batcher, then its inbox. Only with the dispatcher joined or dead.
    [[nodiscard]] std::vector<Request> take_all();

    std::unique_ptr<core::BatchNacu> engine;
    ShardQueue queue;
    MicroBatcher batcher;  ///< dispatcher-private; fed by queue.drain_into

    ShardHealth health;
    /// Fault port re-attached to every rebuilt engine (nullptr = unarmed).
    fault::BitFaultPort* fault_port = nullptr;
    /// Parity-verify every table-path dispatch before release (an armed
    /// port and a cacheable format).
    bool verify = false;
    /// Dispatcher-thread-only: detections in the current dispatch group,
    /// used to decide record_success at group end.
    std::uint64_t group_detections = 0;

    /// Dispatcher-thread-only scratch for coalesced evaluation, reused
    /// across dispatch groups so the steady-state hot path allocates only
    /// the per-request result vectors.
    std::vector<fp::Fixed> scratch_in;
    std::vector<fp::Fixed> scratch_out;
    std::vector<std::size_t> scratch_members;

    std::thread dispatcher;  ///< started after every shard exists
  };

  /// Admission: the shutdown and deadline checks, stamp, then route from
  /// the home shard. Returns the future tied to the enqueued promise;
  /// throws instead of enqueueing on any rejection.
  [[nodiscard]] std::future<std::vector<fp::Fixed>> enqueue(
      Request request, const SubmitOptions& submit_options);

  /// Push @p request into shard @p start or — when it is full — probe the
  /// others once around, skipping shards whose circuit refuses; when every
  /// push failed and a circuit was skipped, a fail-static pass ignores
  /// circuit state (a queue that may recover beats a rejection). Returns
  /// Ok, Full (moved from @p request only on Ok) or Stopped (shutdown).
  [[nodiscard]] ShardQueue::Push route(Request& request, std::size_t start);

  /// Round-robin with per-thread affinity: each submitting thread keeps
  /// hitting the same shard (its producer lock stays warm and uncontended
  /// until thread count exceeds shard count).
  [[nodiscard]] std::size_t home_shard() const noexcept;

  /// Crash barrier around dispatcher_run: an escaped exception marks the
  /// shard dead for the supervisor instead of terminating the process.
  void dispatcher_loop(std::size_t shard_index);
  void dispatcher_run(std::size_t shard_index);
  /// Steal from the most loaded other shard into @p shard_index's batcher.
  [[nodiscard]] bool try_steal(std::size_t shard_index);
  /// Execute one dispatch group on @p shard: shed expired deadlines,
  /// coalesce activations per function, run softmax rows and lone
  /// activations per request, verify table-path results when armed, fulfil
  /// every promise exactly once.
  void execute_group(Shard& shard, std::vector<Request> group);
  /// Non-coalesced execution of one request (also the error-isolation
  /// fallback when a coalesced evaluation throws), including its finish().
  void execute_one(Shard& shard, Request& request);
  /// out = f(in) on @p shard: the scalar path while f is quarantined,
  /// else the table path, verified before release when the shard is
  /// armed (a detection quarantines f and recomputes on the scalar path).
  /// Returns whether the scalar path served the result.
  [[nodiscard]] bool evaluate_activation(Shard& shard, Function f,
                                         std::span<const fp::Fixed> in,
                                         std::span<fp::Fixed> out);
  /// A verify-before-release check failed on @p shard: quarantine the
  /// function, request a scrub, record the failure against the circuit.
  void on_detection(Shard& shard, std::size_t function_index);
  /// Record completion metrics and the enqueue→complete latency. Called
  /// before the request's result is published, so a client whose future
  /// is ready sees the counters too.
  void finish(const Request& request);

  // -- supervisor (watchdog thread or poke_supervisor) ---------------------
  void supervisor_loop();
  /// One pass; caller holds supervisor_mutex_.
  void supervisor_pass(std::chrono::steady_clock::time_point now);
  /// Join a dead dispatcher, sweep its orphans, rebuild its engine,
  /// respawn the thread, requeue-or-fail the orphans.
  void recover_dead_shard(std::size_t shard_index,
                          std::chrono::steady_clock::time_point now);
  /// Scrub-rebuild every quarantined table of @p shard_index, re-verify
  /// through the armed read path, clear quarantine / close the circuit on
  /// success; keep stuck-at functions quarantined (still serving, scalar).
  void scrub_shard(std::size_t shard_index,
                   std::chrono::steady_clock::time_point now);
  /// Transparently re-enqueue an orphaned request if it has retry credit
  /// and the budget admits; otherwise fail its future (ShardFailedError).
  void requeue_or_fail(Request&& request);
  /// Post-join shutdown sweep: fail anything a dead shard left behind.
  void sweep_leftovers();

  ServerOptions options_;
  core::NacuConfig config_;  ///< kept for supervisor engine rebuilds
  bool stamp_enqueue_time_ = false;  ///< max_wait > 0 needs the age stamp
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Golden parity signatures + calibrated ranges shared by every shard's
  /// verify path (read-only after construction). Built only when some
  /// shard verifies and the format is table-cacheable.
  std::unique_ptr<fault::InvariantChecker> checker_;
  RetryBudget retry_budget_;

  std::thread supervisor_;
  std::mutex supervisor_mutex_;  ///< serialises passes (watchdog vs poke)
  std::mutex supervisor_wake_mutex_;
  std::condition_variable supervisor_wake_;
  /// Supervisor-pass state (guarded by supervisor_mutex_): last observed
  /// heartbeat and when it last advanced, per shard.
  std::vector<std::uint64_t> last_heartbeat_;
  std::vector<std::chrono::steady_clock::time_point> last_progress_;

  std::atomic<bool> stopping_{false};
  std::once_flag join_once_;

  obs::Registry metrics_;
  // Handles into metrics_, looked up once; each event is counted here only.
  obs::Counter& accepted_ = metrics_.counter("serve.accepted");
  obs::Counter& rejected_overload_ =
      metrics_.counter("serve.rejected_overload");
  obs::Counter& rejected_shutdown_ =
      metrics_.counter("serve.rejected_shutdown");
  obs::Counter& rejected_deadline_ =
      metrics_.counter("serve.admission.rejected_deadline");
  obs::Counter& shed_deadline_ =
      metrics_.counter("serve.admission.shed_deadline");
  obs::Counter& completed_ = metrics_.counter("serve.completed");
  obs::Counter& dispatches_ = metrics_.counter("serve.dispatches");
  obs::Counter& steals_ = metrics_.counter("serve.shard.steals");
  obs::Counter& stolen_requests_ =
      metrics_.counter("serve.shard.stolen_requests");
  obs::Counter& degraded_requests_ =
      metrics_.counter("serve.resilience.degraded_requests");
  obs::Counter& retried_ = metrics_.counter("serve.resilience.retried");
  obs::Counter& retry_exhausted_ =
      metrics_.counter("serve.resilience.retry_exhausted");
  obs::Counter& circuit_opens_ =
      metrics_.counter("serve.resilience.circuit_opens");
  obs::Counter& circuit_closes_ =
      metrics_.counter("serve.resilience.circuit_closes");
  obs::Counter& dispatcher_crashes_ =
      metrics_.counter("serve.resilience.dispatcher_crashes");
  obs::Gauge& queue_depth_ = metrics_.gauge("serve.queue_depth");
  obs::Gauge& queue_depth_high_water_ =
      metrics_.gauge("serve.queue_depth_high_water");
  obs::Histogram& steal_batch_ = metrics_.histogram("serve.shard.steal_batch");
  obs::Histogram& group_requests_ = metrics_.histogram("serve.group_requests");
  obs::Histogram& coalesced_elems_ =
      metrics_.histogram("serve.coalesced_elems");
  obs::Histogram& dispatch_ns_ = metrics_.histogram("serve.dispatch_ns");
  obs::Histogram& request_latency_ns_ =
      metrics_.histogram("serve.request_latency_ns");
};

}  // namespace nacu::serve
