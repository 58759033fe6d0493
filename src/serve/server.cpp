#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "fault/detectors.hpp"
#include "obs/trace.hpp"

namespace nacu::serve {
namespace {

/// A shard whose heartbeat stays frozen this long while its inbox holds
/// work is declared stalled: its circuit opens and its inbox
/// redistributes.
constexpr std::chrono::milliseconds kStallTimeout{50};
/// Open → HalfOpen cooldown.
constexpr std::chrono::milliseconds kOpenCooldown{5};
/// Requests a HalfOpen shard admits before routing skips it again; the
/// first cleanly executed dispatch group closes the circuit.
constexpr std::size_t kHalfOpenTrials = 4;
/// Consecutive shard-level failures (detections, scrub re-verify
/// failures) that trip a Closed circuit open. Dispatcher death and stalls
/// force it open immediately.
constexpr std::size_t kFailureThreshold = 3;
/// How often an idle shard re-polls neighbours for stealable work (it has
/// no other wake-up source for work that never touches its queue). Also
/// the real-time bound on a wait whose deadline is on an injected clock.
constexpr std::chrono::microseconds kIdlePoll{100};

std::size_t resolve_shard_count(std::size_t requested) {
  return std::clamp<std::size_t>(requested, 1, 64);
}

/// Shard @p index's share of queue_capacity over @p shards: the quotient,
/// plus one slot for each of the first (queue_capacity % shards) shards,
/// so the shares sum to queue_capacity exactly. ShardQueue clamps a share
/// of 0 to one slot.
std::size_t shard_capacity(std::size_t queue_capacity, std::size_t shards,
                           std::size_t index) {
  return queue_capacity / shards + (index < queue_capacity % shards ? 1 : 0);
}

}  // namespace

InferenceServer::Shard::Shard(const core::NacuConfig& config,
                              const core::BatchNacu::Options& batch_options,
                              const BatcherOptions& batcher_options,
                              std::size_t capacity)
    : engine{std::make_unique<core::BatchNacu>(config, batch_options)},
      queue{capacity},
      batcher{batcher_options} {}

std::vector<Request> InferenceServer::Shard::take_all() {
  std::vector<Request> all;
  while (!batcher.empty()) {
    std::vector<Request> group = batcher.take_group();
    queue.on_taken(group.size());
    std::move(group.begin(), group.end(), std::back_inserter(all));
  }
  (void)queue.steal_into([&](Request&& r) { all.push_back(std::move(r)); },
                         std::numeric_limits<std::size_t>::max());
  return all;
}

InferenceServer::InferenceServer(const core::NacuConfig& config,
                                 ServerOptions options)
    : options_{std::move(options)},
      config_{config},
      stamp_enqueue_time_{options_.batcher.max_wait.count() > 0},
      retry_budget_{options_.resilience.retry_budget_per_s,
                    options_.resilience.retry_budget_burst, now()} {
  const std::size_t shard_count = resolve_shard_count(options_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config, options_.batch_options, options_.batcher,
        shard_capacity(options_.batcher.queue_capacity, shard_count, i)));
  }
  const ResilienceOptions& res = options_.resilience;
  bool any_port = false;
  for (std::size_t i = 0; i < shard_count; ++i) {
    if (i < res.shard_fault_ports.size() &&
        res.shard_fault_ports[i] != nullptr) {
      shards_[i]->fault_port = res.shard_fault_ports[i];
      shards_[i]->engine->attach_fault_port(shards_[i]->fault_port);
      any_port = true;
    }
  }
  if (any_port && shards_.front()->engine->table_cacheable()) {
    // One golden-signature checker shared read-only by every armed
    // shard's verify path. Construction runs the full-domain sweeps once.
    checker_ = std::make_unique<fault::InvariantChecker>(config);
  }
  for (auto& shard : shards_) {
    shard->verify = checker_ != nullptr && shard->fault_port != nullptr;
  }
  if (options_.warm_tables && shards_.front()->engine->table_cacheable()) {
    for (auto& shard : shards_) {
      shard->engine->warm(Function::Sigmoid);
      shard->engine->warm(Function::Tanh);
      shard->engine->warm(Function::Exp);
    }
  }
  last_heartbeat_.assign(shard_count, 0);
  last_progress_.assign(shard_count, now());
  metrics_.gauge("serve.shard.count")
      .set(static_cast<std::int64_t>(shard_count));
  // Cache working set across all shards' engines (plus any other live
  // engines in the process). No layout decision reads it; with σ/tanh
  // folded it is 256 KiB per 16-bit shard where Dense would be 384 KiB.
  obs::gauge("serve.table.resident_bytes")
      .set(static_cast<std::int64_t>(core::BatchNacu::live_table_bytes()));
  // Dispatchers start only after every shard exists: try_steal walks the
  // whole shard vector.
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_[i]->dispatcher = std::thread{[this, i] { dispatcher_loop(i); }};
  }
  if (res.supervise) {
    supervisor_ = std::thread{[this] { supervisor_loop(); }};
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::shutdown() {
  // Order matters: dispatchers that wake on queue.stop() must already see
  // stopping_ so they flush partial groups immediately instead of waiting
  // out max_wait.
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->queue.stop();
  }
  supervisor_wake_.notify_all();
  // One caller joins; concurrent callers block here until the drain is
  // complete, so "shutdown returned" always means "every accepted future
  // is ready".
  std::call_once(join_once_, [this] {
    if (supervisor_.joinable()) {
      // The supervisor first: it may be mid-respawn, mutating dispatcher
      // thread handles.
      supervisor_.join();
    }
    for (auto& shard : shards_) {
      if (shard->dispatcher.joinable()) {
        shard->dispatcher.join();
      }
    }
    sweep_leftovers();
  });
}

void InferenceServer::sweep_leftovers() {
  // A dispatcher that exited cleanly leaves nothing behind (it only
  // returns on Stopped + empty). Anything still queued belongs to a shard
  // that died with no supervisor pass left to recover it: fail every
  // orphan so the drain guarantee (every accepted future becomes ready)
  // holds unconditionally.
  for (auto& shard : shards_) {
    for (Request& r : shard->take_all()) {
      retry_exhausted_.add();
      finish(r);
      r.result.set_exception(std::make_exception_ptr(ShardFailedError{}));
    }
  }
}

bool InferenceServer::accepting() const {
  return !stopping_.load(std::memory_order_acquire);
}

std::size_t InferenceServer::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.size();
  }
  return total;
}

const core::BatchNacu& InferenceServer::engine() const noexcept {
  return *shards_.front()->engine;
}

ShardHealthSnapshot InferenceServer::shard_health(
    std::size_t shard_index) const {
  const ShardHealth& h = shards_[shard_index]->health;
  ShardHealthSnapshot s;
  s.state = h.state();
  s.quarantined = h.quarantined();
  s.dispatcher_dead = h.dispatcher_dead();
  s.heartbeat = h.heartbeat();
  s.detections = h.detections();
  s.scrubs = h.scrubs();
  s.scrub_failures = h.scrub_failures();
  s.respawns = h.respawns();
  s.stalls = h.stalls();
  return s;
}

InferenceServer::Counters InferenceServer::counters() const {
  Counters c{.accepted = accepted_.value(),
             .rejected_overload = rejected_overload_.value(),
             .rejected_shutdown = rejected_shutdown_.value(),
             .rejected_deadline = rejected_deadline_.value(),
             .shed_deadline = shed_deadline_.value(),
             .completed = completed_.value(),
             .dispatches = dispatches_.value(),
             .steals = steals_.value(),
             .stolen_requests = stolen_requests_.value(),
             .degraded_requests = degraded_requests_.value(),
             .retried = retried_.value(),
             .retry_exhausted = retry_exhausted_.value(),
             .circuit_opens = circuit_opens_.value(),
             .circuit_closes = circuit_closes_.value()};
  for (const auto& shard : shards_) {
    const ShardHealth& h = shard->health;
    c.detections += h.detections();
    c.scrubs += h.scrubs();
    c.scrub_failures += h.scrub_failures();
    c.respawns += h.respawns();
    c.stalls += h.stalls();
  }
  return c;
}

std::size_t InferenceServer::home_shard() const noexcept {
  // Process-global token issuance: each thread draws one token for life,
  // so threads spread round-robin over shards and then stick (affinity).
  static std::atomic<std::uint64_t> next_token{0};
  thread_local const std::uint64_t token =
      next_token.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(token % shards_.size());
}

std::future<std::vector<fp::Fixed>> InferenceServer::enqueue(
    Request request, const SubmitOptions& submit_options) {
  std::future<std::vector<fp::Fixed>> future = request.result.get_future();
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_shutdown_.add();
    throw ShutdownError{};
  }
  if (submit_options.deadline.has_value() &&
      *submit_options.deadline <= now()) {
    rejected_deadline_.add();
    throw DeadlineExpiredError{};
  }

  request.deadline = submit_options.deadline;
  request.retries_left = submit_options.max_retries;
  if (stamp_enqueue_time_ || obs::metrics_enabled()) {
    // The stamp feeds the max_wait flush policy and the enqueue→complete
    // latency histogram; with max_wait = 0 and metrics off nothing reads
    // it, so the hot path skips the clock.
    request.enqueued_at = now();
  }

  switch (route(request, home_shard())) {
    case ShardQueue::Push::Ok:
      accepted_.add();
      return future;
    case ShardQueue::Push::Stopped:
      rejected_shutdown_.add();
      throw ShutdownError{};
    case ShardQueue::Push::Full:
      break;
  }
  rejected_overload_.add();
  throw OverloadedError{};
}

ShardQueue::Push InferenceServer::route(Request& request, std::size_t start) {
  const std::size_t shard_count = shards_.size();
  bool circuit_skipped = false;
  for (const bool respect_circuit : {true, false}) {
    for (std::size_t probe = 0; probe < shard_count; ++probe) {
      Shard& shard = *shards_[(start + probe) % shard_count];
      if (respect_circuit && !shard.health.try_admit()) {
        circuit_skipped = true;
        continue;
      }
      switch (shard.queue.try_push(request)) {
        case ShardQueue::Push::Ok:
          queue_depth_high_water_.record_max(
              static_cast<std::int64_t>(shard.queue.size()));
          return ShardQueue::Push::Ok;
        case ShardQueue::Push::Stopped:
          // stop() reaches every queue; seeing one stopped means shutdown.
          return ShardQueue::Push::Stopped;
        case ShardQueue::Push::Full:
          break;  // probe the next shard
      }
    }
    if (!circuit_skipped) {
      break;  // the fail-static pass could not change the outcome
    }
  }
  return ShardQueue::Push::Full;
}

std::future<std::vector<fp::Fixed>> InferenceServer::submit(
    Function f, std::vector<fp::Fixed> input,
    const SubmitOptions& submit_options) {
  Request request;
  request.function = f;
  request.input = std::move(input);
  return enqueue(std::move(request), submit_options);
}

std::future<std::vector<fp::Fixed>> InferenceServer::submit_softmax(
    std::vector<fp::Fixed> logits, const SubmitOptions& submit_options) {
  Request request;
  request.input = std::move(logits);
  return enqueue(std::move(request), submit_options);
}

bool InferenceServer::try_steal(std::size_t shard_index) {
  Shard& thief = *shards_[shard_index];
  const std::size_t shard_count = shards_.size();
  // Cheap atomic scan for the most loaded victim — advisory, the steal
  // itself re-checks under the victim's lock.
  std::size_t victim = shard_index;
  std::size_t victim_depth = 0;
  for (std::size_t offset = 1; offset < shard_count; ++offset) {
    const std::size_t i = (shard_index + offset) % shard_count;
    const std::size_t depth = shards_[i]->queue.size();
    if (depth > victim_depth) {
      victim = i;
      victim_depth = depth;
    }
  }
  if (victim == shard_index || victim_depth == 0) {
    return false;
  }
  // Take up to half the victim's backlog, bounded by one dispatch group.
  const std::size_t want =
      std::min(std::max<std::size_t>(1, victim_depth / 2),
               thief.batcher.options().max_batch);
  const std::size_t got = shards_[victim]->queue.steal_into(
      [&](Request&& request) { thief.batcher.push(std::move(request)); },
      want);
  if (got == 0) {
    return false;
  }
  thief.queue.adopt(got);
  steals_.add();
  stolen_requests_.add(got);
  steal_batch_.record(got);
  return true;
}

void InferenceServer::dispatcher_loop(std::size_t shard_index) {
  try {
    dispatcher_run(shard_index);
  } catch (...) {
    // The crash barrier: an escaped exception must not terminate the
    // process. Mark the shard dead; the supervisor joins this thread,
    // sweeps the orphans into retries-or-errors, rebuilds the engine, and
    // respawns.
    dispatcher_crashes_.add();
    shards_[shard_index]->health.mark_dead();
  }
}

void InferenceServer::dispatcher_run(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const std::size_t max_batch = shard.batcher.options().max_batch;
  const bool stealing =
      options_.work_stealing && shards_.size() > 1;
  for (;;) {
    shard.health.beat();
    if (options_.resilience.dispatch_hook) {
      // Chaos/test seam. Here — after the heartbeat, before draining —
      // the dispatcher holds no requests, so a throw orphans only what
      // the supervisor can reach (queue + batcher), never a taken group.
      options_.resilience.dispatch_hook(shard_index);
    }
    // Top up the private batcher with the oldest ingress — at most one
    // group's worth per pass, so the rest of a burst stays in the inbox
    // where idle neighbours can steal it.
    if (shard.batcher.size() < max_batch) {
      (void)shard.queue.drain_into(
          [&](Request&& request) { shard.batcher.push(std::move(request)); },
          max_batch - shard.batcher.size());
    }
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (shard.batcher.empty()) {
      if (!stopping && stealing && try_steal(shard_index)) {
        continue;
      }
      std::optional<std::chrono::steady_clock::time_point> poll;
      if (!stopping && (stealing || options_.resilience.dispatch_hook)) {
        // With a dispatch hook armed, bounded waits keep the heartbeat
        // advancing (and the hook observable) even on an idle shard.
        poll = std::chrono::steady_clock::now() + kIdlePoll;
      }
      switch (shard.queue.wait(poll)) {
        case ShardQueue::Wait::Work:
        case ShardQueue::Wait::Timeout:
          continue;
        case ShardQueue::Wait::Stopped:
          // Stopped with an empty inbox and an empty private deque: every
          // request this shard will ever see has been dispatched.
          return;
      }
    }
    if (!stopping && !shard.batcher.should_flush(now())) {
      // Partial group: sleep until the oldest request ages out or new
      // ingress arrives (which may complete the group). Time only
      // advances through should_flush on the next pass. With an injected
      // clock the flush deadline is a fake-time point that a real
      // condition variable cannot wait until — bound the sleep on the
      // real clock and re-check fake time each wake instead.
      if (options_.clock) {
        (void)shard.queue.wait(std::chrono::steady_clock::now() + kIdlePoll);
      } else {
        (void)shard.queue.wait(shard.batcher.flush_deadline());
      }
      continue;
    }
    std::vector<Request> group = shard.batcher.take_group();
    shard.queue.on_taken(group.size());
    queue_depth_.set(static_cast<std::int64_t>(shard.queue.size()));
    execute_group(shard, std::move(group));
  }
}

void InferenceServer::on_detection(Shard& shard, std::size_t function_index) {
  // Order matters for the scrub handshake: publish the quarantine bit
  // (release) before requesting the scrub, so the supervisor's rewrite
  // can never race a table read from this dispatcher — we stop reading
  // the table the moment the bit is set, and only the supervisor clears
  // it after the rewrite.
  shard.health.quarantine(function_index);
  shard.health.request_scrub();
  shard.health.record_detection();
  shard.group_detections += 1;
  if (shard.health.record_failure(kFailureThreshold, now())) {
    circuit_opens_.add();
  }
}

void InferenceServer::execute_group(Shard& shard, std::vector<Request> group) {
  dispatches_.add();
  group_requests_.record(group.size());
  const obs::ScopedTimer timer{dispatch_ns_};
  const obs::TraceSpan span{"InferenceServer::dispatch"};
  shard.group_detections = 0;

  std::vector<bool> handled(group.size(), false);
  // Deadline shedding before anything touches the engine: an expired
  // request is never dispatched — its future carries the error instead.
  bool any_deadline = false;
  for (const Request& request : group) {
    any_deadline = any_deadline || request.deadline.has_value();
  }
  if (any_deadline) {
    const auto at = now();
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i].deadline.has_value() && *group[i].deadline <= at) {
        handled[i] = true;
        shed_deadline_.add();
        finish(group[i]);
        group[i].result.set_exception(
            std::make_exception_ptr(DeadlineExpiredError{}));
      }
    }
  }
  // Coalesce the element-wise activation requests: one engine call per
  // function over the concatenation of every member's input. Element-wise
  // evaluation is position-independent, so slicing the output back apart
  // is bit-identical to per-request evaluation (the differential test's
  // central claim).
  for (std::size_t fi = 0; fi < core::BatchNacu::kFunctionCount; ++fi) {
    const auto f = static_cast<Function>(fi);
    std::vector<std::size_t>& members = shard.scratch_members;
    members.clear();
    std::size_t total = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (!handled[i] && group[i].function == f) {
        members.push_back(i);
        total += group[i].input.size();
      }
    }
    if (members.size() < 2) {
      continue;  // nothing to coalesce; the per-request loop picks it up
    }
    std::vector<fp::Fixed>& in = shard.scratch_in;
    in.clear();
    in.reserve(total);
    for (const std::size_t i : members) {
      in.insert(in.end(), group[i].input.begin(), group[i].input.end());
    }
    try {
      shard.scratch_out.assign(total,
                               fp::Fixed::zero(shard.engine->format()));
      std::vector<fp::Fixed>& out = shard.scratch_out;
      if (evaluate_activation(shard, f, in, out)) {
        degraded_requests_.add(members.size());
      }
      coalesced_elems_.record(total);
      std::size_t offset = 0;
      for (const std::size_t i : members) {
        Request& request = group[i];
        const std::size_t n = request.input.size();
        // The input vector is dead once evaluated — recycle it as the
        // result buffer so the coalesced path allocates nothing per
        // request beyond the promise's shared state.
        std::copy(out.begin() + static_cast<std::ptrdiff_t>(offset),
                  out.begin() + static_cast<std::ptrdiff_t>(offset + n),
                  request.input.begin());
        offset += n;
        handled[i] = true;
        finish(request);
        request.result.set_value(std::move(request.input));
      }
    } catch (...) {
      // A bad request poisons the whole coalesced call (e.g. an input
      // outside the datapath format). Fall back to per-request execution
      // so only the offenders see the exception — error isolation.
      for (const std::size_t i : members) {
        if (!handled[i]) {
          execute_one(shard, group[i]);
          handled[i] = true;
        }
      }
    }
  }
  // Everything else — softmax rows and lone activations — runs one engine
  // call per request. The engine still fans large calls out across the
  // thread pool internally.
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (!handled[i]) {
      execute_one(shard, group[i]);
    }
  }
  // A dispatch group with no detections is the circuit's success signal —
  // it resets the failure streak and closes a HalfOpen trial.
  if (shard.group_detections == 0) {
    if (shard.health.record_success()) {
      circuit_closes_.add();
    }
  }
}

void InferenceServer::execute_one(Shard& shard, Request& request) {
  // Every counter — degraded_requests_ and finish()'s — moves *before* the
  // promise resolves, so a client that observed its future ready also
  // observes the counters (promise synchronisation publishes the
  // sequenced-before increments). Hence compute first, then account, then
  // publish.
  std::vector<fp::Fixed> out;
  std::exception_ptr error;
  try {
    const auto exp_fi = static_cast<std::size_t>(Function::Exp);
    if (request.function) {
      out.assign(request.input.size(),
                 fp::Fixed::zero(shard.engine->format()));
      if (evaluate_activation(shard, *request.function, request.input, out)) {
        degraded_requests_.add();
      }
    } else if ((shard.health.quarantined() & (1u << exp_fi)) != 0) {
      // Softmax reads the exp table; quarantined → the scalar unit's
      // softmax (bit-identical by construction).
      degraded_requests_.add();
      out = shard.engine->unit().softmax(request.input);
    } else {
      out = shard.engine->softmax(request.input);
      if (shard.verify &&
          !verify_softmax(*checker_, *shard.engine, request.input)) {
        on_detection(shard, exp_fi);
        degraded_requests_.add();
        out = shard.engine->unit().softmax(request.input);
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  finish(request);
  if (error) {
    request.result.set_exception(std::move(error));
  } else {
    request.result.set_value(std::move(out));
  }
}

bool InferenceServer::evaluate_activation(Shard& shard, Function f,
                                          std::span<const fp::Fixed> in,
                                          std::span<fp::Fixed> out) {
  const auto fi = static_cast<std::size_t>(f);
  if ((shard.health.quarantined() & (1u << fi)) != 0) {
    evaluate_degraded(shard.engine->unit(), f, in, out);
    return true;
  }
  shard.engine->evaluate(f, in, out);
  if (shard.verify &&
      !verify_activation(*checker_, shard.engine->format(), f, in, out)) {
    // A served word failed its parity signature. Quarantine first, then
    // recompute on the scalar path — clients get correct bits, never the
    // corrupt ones.
    on_detection(shard, fi);
    evaluate_degraded(shard.engine->unit(), f, in, out);
    return true;
  }
  return false;
}

void InferenceServer::finish(const Request& request) {
  completed_.add();
  if (obs::metrics_enabled() &&
      request.enqueued_at != std::chrono::steady_clock::time_point{}) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now() - request.enqueued_at)
                        .count();
    request_latency_ns_.record(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
  }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

void InferenceServer::supervisor_loop() {
  std::unique_lock<std::mutex> lock{supervisor_wake_mutex_};
  while (!stopping_.load(std::memory_order_acquire)) {
    supervisor_wake_.wait_for(lock, options_.resilience.watchdog_interval);
    if (stopping_.load(std::memory_order_acquire)) {
      return;
    }
    poke_supervisor();
  }
}

void InferenceServer::poke_supervisor() {
  const std::lock_guard<std::mutex> lock{supervisor_mutex_};
  if (stopping_.load(std::memory_order_acquire)) {
    return;  // shutdown's join + sweep owns recovery from here
  }
  supervisor_pass(now());
}

void InferenceServer::supervisor_pass(
    std::chrono::steady_clock::time_point now) {
  // Snapshot inbox depths before any recovery runs: requests this pass
  // redistributes from a stalled shard must not count as the *target*
  // shard's long-pending work — its stall window starts next pass.
  std::vector<std::size_t> depth(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    depth[i] = shards_[i]->queue.size();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (shard.health.dispatcher_dead()) {
      recover_dead_shard(i, now);
      continue;
    }
    // Stall detection: heartbeat frozen while work queues. A stalled
    // thread is never killed (never safe); its circuit opens and its
    // *inbox* redistributes — requests already drained into its private
    // batcher stay with it until it resumes. Pointless with one shard
    // (nowhere to redistribute to).
    const std::uint64_t hb = shard.health.heartbeat();
    if (hb != last_heartbeat_[i]) {
      last_heartbeat_[i] = hb;
      last_progress_[i] = now;
    } else if (depth[i] == 0) {
      // A frozen heartbeat with nothing pending is idleness, not a stall:
      // the stall clock measures work-pending-without-progress, so it
      // starts when work arrives.
      last_progress_[i] = now;
    } else if (shards_.size() > 1 &&
               now - last_progress_[i] >= kStallTimeout) {
      shard.health.record_stall();
      if (shard.health.force_open(now)) {
        circuit_opens_.add();
      }
      std::vector<Request> stranded;
      (void)shard.queue.steal_into(
          [&](Request&& r) { stranded.push_back(std::move(r)); },
          std::numeric_limits<std::size_t>::max());
      // A stranded request never ran, so moving it is not a retry: it draws
      // no retry credit and no budget token. Routing starts past this
      // shard, whose circuit is now open; only a full or stopping server
      // fails the request.
      for (Request& r : stranded) {
        if (route(r, i + 1) != ShardQueue::Push::Ok) {
          r.retries_left = 0;
          requeue_or_fail(std::move(r));
        }
      }
      last_progress_[i] = now;  // one redistribution per frozen window
    }
    if (shard.health.take_scrub_request()) {
      scrub_shard(i, now);
    }
    shard.health.maybe_half_open(now, kOpenCooldown, kHalfOpenTrials);
  }
}

void InferenceServer::recover_dead_shard(
    std::size_t shard_index, std::chrono::steady_clock::time_point now) {
  Shard& shard = *shards_[shard_index];
  if (shard.dispatcher.joinable()) {
    shard.dispatcher.join();  // already exited through the crash barrier
  }
  if (shard.health.force_open(now)) {
    circuit_opens_.add();
  }
  // With the thread joined, the batcher and scratch are supervisor-owned.
  // Sweep everything the dead dispatcher held or would have drained.
  std::vector<Request> orphans = shard.take_all();
  // Rebuild the engine from the pristine config — tables and all — and
  // re-attach the shard's fault port so chaos campaigns survive respawns.
  shard.engine =
      std::make_unique<core::BatchNacu>(config_, options_.batch_options);
  if (shard.fault_port != nullptr) {
    shard.engine->attach_fault_port(shard.fault_port);
  }
  if (options_.warm_tables && shard.engine->table_cacheable()) {
    shard.engine->warm(Function::Sigmoid);
    shard.engine->warm(Function::Tanh);
    shard.engine->warm(Function::Exp);
  }
  obs::gauge("serve.table.resident_bytes")
      .set(static_cast<std::int64_t>(core::BatchNacu::live_table_bytes()));
  shard.health.clear_dead();
  shard.health.record_respawn();
  last_heartbeat_[shard_index] = shard.health.heartbeat();
  last_progress_[shard_index] = now;
  if (!stopping_.load(std::memory_order_acquire)) {
    shard.dispatcher =
        std::thread{[this, shard_index] { dispatcher_loop(shard_index); }};
  }
  // Requeue after the respawn so even a one-shard server has a live
  // dispatcher to serve the retries.
  for (Request& r : orphans) {
    requeue_or_fail(std::move(r));
  }
}

void InferenceServer::scrub_shard(std::size_t shard_index,
                                  std::chrono::steady_clock::time_point now) {
  const obs::TraceSpan span{"InferenceServer::scrub"};
  Shard& shard = *shards_[shard_index];
  const std::int64_t min_raw = shard.engine->format().min_raw();
  std::uint32_t mask = shard.health.quarantined();
  for (std::size_t fi = 0; fi < core::BatchNacu::kFunctionCount; ++fi) {
    if ((mask & (1u << fi)) == 0) {
      continue;
    }
    const auto f = static_cast<Function>(fi);
    if (!shard.engine->table_built(f)) {
      shard.health.clear_quarantine(fi);  // nothing to scrub or serve from
      continue;
    }
    // Rewrite every entry from the scalar datapath (heals transients —
    // on_rewrite marks them spent), then re-verify through the *armed*
    // read path so a stuck-at cell, which survives any rewrite, fails the
    // re-check and keeps the function on the scalar path.
    shard.engine->scrub_table(f);
    bool clean = true;
    if (checker_ != nullptr) {
      const fault::DetectionReport report = checker_->check_table(
          f, [&](std::size_t word) {
            std::int64_t in = min_raw + static_cast<std::int64_t>(word);
            std::int64_t out = 0;
            shard.engine->evaluate_raw(f, std::span<const std::int64_t>{&in, 1},
                                       std::span<std::int64_t>{&out, 1});
            return out;
          });
      clean = !report.flagged();
    }
    shard.health.record_scrub(clean);
    if (clean) {
      shard.health.clear_quarantine(fi);
    } else if (shard.health.record_failure(kFailureThreshold, now)) {
      circuit_opens_.add();
    }
  }
  if (shard.health.quarantined() == 0 && !shard.health.dispatcher_dead() &&
      shard.health.state() != CircuitState::Closed) {
    // Fully healed: back to full-speed table serving without waiting out
    // the cooldown/half-open probation.
    shard.health.close();
    circuit_closes_.add();
  }
}

void InferenceServer::requeue_or_fail(Request&& request) {
  if (request.retries_left > 0 && retry_budget_.try_draw(now())) {
    request.retries_left -= 1;
    if (route(request, 0) == ShardQueue::Push::Ok) {
      retried_.add();
      return;
    }
  }
  retry_exhausted_.add();
  finish(request);
  request.result.set_exception(std::make_exception_ptr(ShardFailedError{}));
}

}  // namespace nacu::serve
