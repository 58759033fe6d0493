// Serving-layer differential and stress coverage.
//
// The central claim: results delivered through the async InferenceServer
// — activation batches and softmax rows, the one request shape it serves —
// are bit-identical to direct core::BatchNacu evaluation, no matter how
// the dynamic micro-batcher coalesces concurrent requests into dispatch
// groups. The differential sweep proves it for every NacuConfig variant
// the batch engine's own differential test covers, under multi-threaded
// clients and three very different batching policies. It holds too no
// matter how many dispatcher shards the work spreads over or how work
// stealing reshuffles it: a full shards × max_batch × config matrix plus
// a single-thread-burst stealing test pin it down. Around that:
// ShardQueue unit coverage (exact depth accounting, steal transfer, stop
// semantics), exact backpressure at the high-water mark, the
// graceful-shutdown drain guarantee raced against bursty unbalanced
// submitters, per-request error isolation inside coalesced groups, and
// the obs:: serving metrics. The whole binary also runs under the CI TSan
// job (serving-smoke) — submission, dispatch, stealing, and shutdown are
// the concurrency surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "nn/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/server.hpp"
#include "serve/shard_queue.hpp"

namespace nacu::serve {
namespace {

using core::BatchNacu;
using core::NacuConfig;
using core::config_for_bits;
using Function = BatchNacu::Function;

/// The same five config variants as tests/test_batch_differential.cpp —
/// every switch that changes the datapath's bit behaviour gets one.
std::vector<std::pair<const char*, NacuConfig>> config_variants() {
  std::vector<std::pair<const char*, NacuConfig>> variants;
  variants.emplace_back("default", config_for_bits(16));

  NacuConfig general = config_for_bits(16);
  general.use_bit_trick_units = false;
  variants.emplace_back("general-subtractors", general);

  NacuConfig truncate = config_for_bits(16);
  truncate.output_rounding = fp::Rounding::Truncate;
  variants.emplace_back("truncate-rounding", truncate);

  NacuConfig approx = config_for_bits(16);
  approx.approximate_reciprocal = true;
  variants.emplace_back("approx-reciprocal", approx);

  NacuConfig refined = config_for_bits(16);
  refined.refine_quantised_lut = true;
  variants.emplace_back("refined-lut", refined);
  return variants;
}

/// One client's reproducible request: function + input vector.
struct WorkItem {
  Function function = Function::Sigmoid;
  std::vector<fp::Fixed> input;
};

/// Deterministic per-client workload mixing functions and sizes (including
/// empty and single-element requests) over the full representable range.
std::vector<WorkItem> make_workload(const NacuConfig& config,
                                    std::uint64_t seed, std::size_t items) {
  nn::Rng rng{seed};
  const fp::Format fmt = config.format;
  std::vector<WorkItem> work(items);
  for (WorkItem& item : work) {
    item.function = static_cast<Function>(rng.below(3));
    const std::size_t n = rng.below(97);  // 0..96, crosses none/one/many
    item.input.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto raw = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(fmt.max_raw() - fmt.min_raw() +
                                               1))) +
          fmt.min_raw();
      item.input.push_back(fp::Fixed::from_raw(raw, fmt));
    }
  }
  return work;
}

void expect_bit_equal(const std::vector<fp::Fixed>& got,
                      const std::vector<fp::Fixed>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].raw(), want[i].raw()) << context << " element " << i;
  }
}

/// Drive @p clients concurrent threads of @p items requests each through
/// @p server and compare every future against direct BatchNacu evaluation.
void run_differential(InferenceServer& server, const NacuConfig& config,
                      std::size_t clients, std::size_t items,
                      const std::string& context) {
  const BatchNacu direct{config};
  std::vector<std::thread> threads;
  std::vector<std::string> failures(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<WorkItem> work =
          make_workload(config, 1000 + 31 * c, items);
      std::vector<std::future<std::vector<fp::Fixed>>> futures;
      futures.reserve(work.size());
      for (const WorkItem& item : work) {
        futures.push_back(server.submit(item.function, item.input));
      }
      for (std::size_t k = 0; k < work.size(); ++k) {
        const std::vector<fp::Fixed> got = futures[k].get();
        const std::vector<fp::Fixed> want =
            direct.evaluate(work[k].function, work[k].input);
        if (got.size() != want.size()) {
          failures[c] = context + ": size mismatch";
          return;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i].raw() != want[i].raw()) {
            failures[c] = context + ": client " + std::to_string(c) +
                          " request " + std::to_string(k) + " element " +
                          std::to_string(i);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::string& failure : failures) {
    ASSERT_TRUE(failure.empty()) << failure;
  }
}

TEST(Serving, BitIdenticalToDirectBatchNacuForEveryConfigVariant) {
  // The acceptance-criteria differential: all five config variants, four
  // concurrent clients, coalescing on — every delivered bit equals direct
  // BatchNacu evaluation.
  for (const auto& [name, config] : config_variants()) {
    ServerOptions options;
    options.batcher.max_batch = 16;
    options.batcher.max_wait = std::chrono::microseconds{100};
    InferenceServer server{config, options};
    run_differential(server, config, 4, 48, name);
  }
}

TEST(Serving, CoalescingPolicyCannotChangeTheBits) {
  // The same workload under per-request dispatch (max_batch=1), mid-size
  // groups, and huge groups with age-only flushing must deliver identical
  // raws — coalescing is a pure scheduling decision.
  const NacuConfig config = config_for_bits(16);
  const std::vector<WorkItem> work = make_workload(config, 77, 64);
  std::vector<std::vector<std::vector<std::int64_t>>> per_policy;
  const std::size_t policies = 3;
  for (std::size_t p = 0; p < policies; ++p) {
    ServerOptions options;
    if (p == 0) {
      options.batcher.max_batch = 1;  // per-request baseline
    } else if (p == 1) {
      options.batcher.max_batch = 8;
      options.batcher.max_wait = std::chrono::microseconds{50};
    } else {
      options.batcher.max_batch = 1024;
      options.batcher.max_wait = std::chrono::microseconds{0};
    }
    InferenceServer server{config, options};
    std::vector<std::future<std::vector<fp::Fixed>>> futures;
    for (const WorkItem& item : work) {
      futures.push_back(server.submit(item.function, item.input));
    }
    std::vector<std::vector<std::int64_t>> results;
    for (auto& future : futures) {
      std::vector<std::int64_t> raws;
      for (const fp::Fixed& x : future.get()) {
        raws.push_back(x.raw());
      }
      results.push_back(std::move(raws));
    }
    per_policy.push_back(std::move(results));
  }
  for (std::size_t p = 1; p < per_policy.size(); ++p) {
    ASSERT_EQ(per_policy[p], per_policy[0]) << "policy " << p;
  }
}

TEST(Serving, SoftmaxRowsMatchDirectEvaluation) {
  for (const auto& [name, config] : config_variants()) {
    const BatchNacu direct{config};
    ServerOptions options;
    options.batcher.max_batch = 8;
    InferenceServer server{config, options};
    nn::Rng rng{5};
    std::vector<std::vector<fp::Fixed>> rows;
    std::vector<std::future<std::vector<fp::Fixed>>> futures;
    for (std::size_t r = 0; r < 24; ++r) {
      std::vector<fp::Fixed> row;
      const std::size_t n = 1 + rng.below(12);
      for (std::size_t i = 0; i < n; ++i) {
        row.push_back(
            fp::Fixed::from_double(rng.uniform(-6.0, 6.0), config.format));
      }
      futures.push_back(server.submit_softmax(row));
      rows.push_back(std::move(row));
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      expect_bit_equal(futures[r].get(), direct.softmax(rows[r]),
                       std::string{name} + " row " + std::to_string(r));
    }
  }
}

TEST(Serving, BackpressureRejectsExactlyAboveTheHighWaterMark) {
  // With flushing effectively disabled (huge max_batch, long max_wait) the
  // queue fills to exactly queue_capacity accepted requests; request
  // capacity+1 is rejected with OverloadedError and nothing is enqueued.
  // Shutdown then drains every accepted request.
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 1 << 20;
  options.batcher.max_wait = std::chrono::seconds{30};
  options.batcher.queue_capacity = 8;
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{
      fp::Fixed::from_double(0.5, config.format)};
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(server.submit(Function::Sigmoid, input));
  }
  EXPECT_EQ(server.pending(), 8u);
  EXPECT_THROW((void)server.submit(Function::Sigmoid, input),
               OverloadedError);
  EXPECT_THROW((void)server.submit_softmax(input), OverloadedError);
  EXPECT_EQ(server.pending(), 8u);  // rejected submits enqueued nothing

  server.shutdown();
  const BatchNacu direct{config};
  const std::vector<fp::Fixed> want =
      direct.evaluate(Function::Sigmoid, input);
  for (auto& future : futures) {
    expect_bit_equal(future.get(), want, "drained request");
  }
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, 8u);
  EXPECT_EQ(counters.rejected_overload, 2u);
  EXPECT_EQ(counters.completed, 8u);
}

TEST(Serving, BackpressureIsExactWhenShardsSplitTheCapacityUnevenly) {
  // queue_capacity 8 over 3 shards splits 3 + 3 + 2, so exactly 8
  // requests are accepted across all shards and the 9th is rejected (a
  // ceil(8 / 3) = 3 split would accept 9). Stealing is off, flushing is
  // stalled and the supervisor is off (a stall pass would move a
  // dispatcher's inbox), so every accepted request stays pending.
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.shards = 3;
  options.work_stealing = false;
  options.batcher.max_batch = 1 << 20;
  options.batcher.max_wait = std::chrono::seconds{30};
  options.batcher.queue_capacity = 8;
  options.resilience.supervise = false;
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{
      fp::Fixed::from_double(-0.75, config.format)};
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(server.submit(Function::Sigmoid, input));
  }
  EXPECT_EQ(server.pending(), 8u);
  EXPECT_THROW((void)server.submit(Function::Sigmoid, input),
               OverloadedError);
  EXPECT_EQ(server.pending(), 8u);

  server.shutdown();
  const BatchNacu direct{config};
  const std::vector<fp::Fixed> want =
      direct.evaluate(Function::Sigmoid, input);
  for (auto& future : futures) {
    expect_bit_equal(future.get(), want, "drained request");
  }
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, 8u);
  EXPECT_EQ(counters.rejected_overload, 1u);
  EXPECT_EQ(counters.completed, 8u);
}

TEST(Serving, ShutdownDrainsEveryAcceptedRequestThenRejects) {
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 32;
  options.batcher.max_wait = std::chrono::microseconds{200};
  options.batcher.queue_capacity = 1 << 16;
  InferenceServer server{config, options};

  // Clients submit while another thread pulls the plug: every accepted
  // future must still resolve with a value, every post-shutdown submit
  // must throw ShutdownError, and nothing may deadlock.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 200;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<fp::Fixed> input(
          4, fp::Fixed::from_double(0.25 * static_cast<double>(c + 1),
                                    config.format));
      std::vector<std::future<std::vector<fp::Fixed>>> futures;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        try {
          futures.push_back(server.submit(Function::Tanh, input));
          ++accepted;
        } catch (const ShutdownError&) {
          ++rejected;
        }
      }
      for (auto& future : futures) {
        (void)future.get();  // must not throw and must not hang
        ++resolved;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{2});
  server.shutdown();
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(accepted.load() + rejected.load(), kClients * kPerClient);
  EXPECT_EQ(resolved.load(), accepted.load());
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(server.pending(), 0u);
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, accepted.load());
  EXPECT_EQ(counters.completed, accepted.load());
  EXPECT_EQ(counters.rejected_shutdown, rejected.load());
  // Post-shutdown submissions are refused outright.
  EXPECT_THROW((void)server.submit(Function::Exp, {}), ShutdownError);
  server.shutdown();  // idempotent
}

TEST(Serving, SubmitShutdownRaceLeavesNoHungFuture) {
  // The sharpened shutdown contract: submitters racing shutdown() get
  // exactly one of {accepted-and-drained, ShutdownError} per request, and
  // the moment shutdown() returns every accepted future is *already*
  // ready — a client holding one never blocks, not even briefly. The
  // submitters are staggered so some race the stop flag, some the queue
  // stop, and some arrive after; retry credit and deadlines ride along so
  // the sweep's orphan bookkeeping and dispatch-time deadline checks are
  // on the racing path too. Runs under TSan in CI.
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.shards = 2;
  options.batcher.max_batch = 16;
  options.batcher.max_wait = std::chrono::microseconds{100};
  options.batcher.queue_capacity = 1 << 16;
  InferenceServer server{config, options};

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 120;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  struct ClientState {
    std::vector<std::future<std::vector<fp::Fixed>>> futures;
    std::vector<fp::Fixed> input;
  };
  std::vector<ClientState> states(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientState& state = states[c];
      state.input.assign(
          3, fp::Fixed::from_double(0.125 * static_cast<double>(c + 1),
                                    config.format));
      std::this_thread::sleep_for(std::chrono::microseconds{300 * c});
      SubmitOptions submit;
      submit.max_retries = c % 2;  // odd clients carry retry credit
      if (c % 3 == 0) {  // some carry deadlines that never expire
        submit.deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds{30};
      }
      for (std::size_t i = 0; i < kPerClient; ++i) {
        try {
          state.futures.push_back(
              server.submit(Function::Sigmoid, state.input, submit));
          ++accepted;
        } catch (const ShutdownError&) {
          ++rejected;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{1});
  server.shutdown();
  for (std::thread& t : clients) {
    t.join();
  }

  EXPECT_EQ(accepted.load() + rejected.load(), kClients * kPerClient);
  const BatchNacu direct{config};
  std::uint64_t resolved = 0;
  for (ClientState& state : states) {
    const std::vector<fp::Fixed> want =
        state.input.empty()
            ? std::vector<fp::Fixed>{}
            : direct.evaluate(Function::Sigmoid, state.input);
    for (auto& future : state.futures) {
      // shutdown() returned, so the drain is complete: ready *now*.
      ASSERT_EQ(future.wait_for(std::chrono::seconds{0}),
                std::future_status::ready)
          << "accepted future not resolved by the time shutdown() returned";
      expect_bit_equal(future.get(), want, "drained racing request");
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, accepted.load());
  EXPECT_EQ(server.pending(), 0u);
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, accepted.load());
  EXPECT_EQ(counters.completed, accepted.load());
  EXPECT_EQ(counters.rejected_shutdown, rejected.load());
}

TEST(Serving, BadRequestsFailAloneInsideCoalescedGroups) {
  // One request whose input is not in the datapath format poisons the
  // coalesced evaluation; the server must fall back to per-request
  // execution so only the offender's future carries the exception.
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 1 << 20;
  options.batcher.max_wait = std::chrono::seconds{30};
  InferenceServer server{config, options};

  const fp::Format wrong{2, 5};
  const std::vector<fp::Fixed> good{
      fp::Fixed::from_double(1.0, config.format)};
  const std::vector<fp::Fixed> bad{fp::Fixed::from_double(0.5, wrong)};

  auto f1 = server.submit(Function::Sigmoid, good);
  auto f_bad = server.submit(Function::Sigmoid, bad);
  auto f2 = server.submit(Function::Sigmoid, good);
  server.shutdown();  // flushes all three as one group

  const BatchNacu direct{config};
  const std::vector<fp::Fixed> want =
      direct.evaluate(Function::Sigmoid, good);
  expect_bit_equal(f1.get(), want, "good before");
  expect_bit_equal(f2.get(), want, "good after");
  EXPECT_THROW((void)f_bad.get(), std::invalid_argument);
}

TEST(Serving, EmptyRequestsResolveToEmptyResults) {
  const NacuConfig config = config_for_bits(16);
  InferenceServer server{config};
  auto activation = server.submit(Function::Sigmoid, {});
  auto softmax = server.submit_softmax({});
  EXPECT_TRUE(activation.get().empty());
  EXPECT_TRUE(softmax.get().empty());
}

// --- ShardQueue unit coverage -------------------------------------------
// The ingress queue's accounting is what the backpressure and stealing
// contracts rest on, so its exact semantics get direct tests.

/// A promise-carrying request whose activation input has @p tag elements —
/// the tag identifies it through drains and steals.
Request tagged_request(std::size_t tag) {
  Request request;
  request.function = Function::Sigmoid;
  request.input.assign(tag, fp::Fixed::from_raw(0, fp::Format{8, 7}));
  return request;
}

std::size_t tag_of(const Request& request) { return request.input.size(); }

TEST(ShardQueue, TryPushEnforcesDepthLimitsExactlyAndMovesOnlyOnOk) {
  // The queue's capacity is its one depth limit.
  ShardQueue queue{2};
  Request request = tagged_request(10);
  EXPECT_EQ(queue.try_push(request), ShardQueue::Push::Ok);
  request = tagged_request(11);
  EXPECT_EQ(queue.try_push(request), ShardQueue::Push::Ok);
  request = tagged_request(12);
  // At capacity: rejected, and the request is NOT consumed — the server
  // relies on this to probe the next shard with the same object.
  EXPECT_EQ(queue.try_push(request), ShardQueue::Push::Full);
  EXPECT_EQ(tag_of(request), 12u);
  EXPECT_EQ(queue.size(), 2u);
  // A slot taken into a dispatch group is free again.
  ASSERT_EQ(queue.drain_into([](Request&&) {}, 1), 1u);
  queue.on_taken(1);
  EXPECT_EQ(queue.try_push(request), ShardQueue::Push::Ok);
  EXPECT_EQ(queue.size(), 2u);

  // A capacity of 0 clamps to one slot.
  ShardQueue tiny{0};
  request = tagged_request(13);
  EXPECT_EQ(tiny.try_push(request), ShardQueue::Push::Ok);
  request = tagged_request(14);
  EXPECT_EQ(tiny.try_push(request), ShardQueue::Push::Full);
  EXPECT_EQ(tiny.size(), 1u);
}

TEST(ShardQueue, StealTakesTheOldestAndTransfersAccountingToTheThief) {
  ShardQueue victim{8};
  ShardQueue thief{8};
  for (std::size_t tag = 0; tag < 4; ++tag) {
    Request request = tagged_request(tag);
    ASSERT_EQ(victim.try_push(request), ShardQueue::Push::Ok);
  }
  std::vector<std::size_t> stolen;
  const std::size_t got = victim.steal_into(
      [&](Request&& request) { stolen.push_back(tag_of(request)); }, 2);
  EXPECT_EQ(got, 2u);
  EXPECT_EQ(stolen, (std::vector<std::size_t>{0, 1}));  // oldest first
  EXPECT_EQ(victim.size(), 2u);  // stolen requests left its accounting...
  thief.adopt(got);
  EXPECT_EQ(thief.size(), 2u);  // ...and entered the thief's

  // drain_into (the owning dispatcher) keeps the count until on_taken:
  // drained-but-undispatched still holds backpressure slots.
  std::vector<std::size_t> drained;
  EXPECT_EQ(victim.drain_into(
                [&](Request&& request) { drained.push_back(tag_of(request)); },
                10),
            2u);
  EXPECT_EQ(drained, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(victim.size(), 2u);
  victim.on_taken(2);
  EXPECT_EQ(victim.size(), 0u);
}

TEST(ShardQueue, StopRejectsNewPushesButDrainsWhatWasAccepted) {
  ShardQueue queue{4};
  Request request = tagged_request(1);
  ASSERT_EQ(queue.try_push(request), ShardQueue::Push::Ok);
  queue.stop();
  request = tagged_request(2);
  EXPECT_EQ(queue.try_push(request), ShardQueue::Push::Stopped);
  // The drain guarantee at queue level: wait reports Work while accepted
  // requests remain, and Stopped only once the inbox is empty — so a
  // dispatcher can never exit with undelivered promises.
  EXPECT_EQ(queue.wait(std::nullopt), ShardQueue::Wait::Work);
  (void)queue.drain_into([](Request&&) {}, 10);
  queue.on_taken(1);
  EXPECT_EQ(queue.wait(std::nullopt), ShardQueue::Wait::Stopped);
}

TEST(ShardQueue, WaitTimesOutOnAnEmptyQueue) {
  ShardQueue queue{1};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds{1};
  EXPECT_EQ(queue.wait(deadline), ShardQueue::Wait::Timeout);
}

// --- Sharded determinism and stealing -----------------------------------

TEST(Serving, DeterminismMatrixShardsByBatchByConfig) {
  // The scale-out acceptance matrix: shards ∈ {1,2,4} × max_batch ∈
  // {1,8,1024} × all five config variants, three concurrent clients each.
  // Every cell must be bit-identical to direct BatchNacu evaluation AND to
  // the shards=1 cell (the PR 5 single-dispatcher path) of the same
  // max_batch — shard count, affinity, and stealing are pure scheduling.
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kItems = 24;
  for (const auto& [name, config] : config_variants()) {
    const BatchNacu direct{config};
    // Direct expectations, once per config.
    std::vector<std::vector<std::vector<std::int64_t>>> want(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::vector<WorkItem> work =
          make_workload(config, 9000 + 17 * c, kItems);
      for (const WorkItem& item : work) {
        std::vector<std::int64_t> raws;
        for (const fp::Fixed& x : direct.evaluate(item.function, item.input)) {
          raws.push_back(x.raw());
        }
        want[c].push_back(std::move(raws));
      }
    }
    for (const std::size_t max_batch : {1, 8, 1024}) {
      std::vector<std::vector<std::vector<std::int64_t>>> reference;
      for (const std::size_t shards : {1, 2, 4}) {
        ServerOptions options;
        options.batcher.max_batch = max_batch;
        options.batcher.max_wait = max_batch == 1024
                                       ? std::chrono::microseconds{0}
                                       : std::chrono::microseconds{50};
        options.shards = shards;
        // Keep the 45-cell sweep fast: skip table warming and stay on the
        // scalar datapath (tables are built FROM it, so the bits match).
        options.warm_tables = false;
        options.batch_options.table_threshold = std::size_t{1} << 30;
        const std::string context = std::string{name} + " max_batch=" +
                                    std::to_string(max_batch) +
                                    " shards=" + std::to_string(shards);
        std::vector<std::vector<std::vector<std::int64_t>>> raws(kClients);
        {
          InferenceServer server{config, options};
          std::vector<std::thread> threads;
          for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
              const std::vector<WorkItem> work =
                  make_workload(config, 9000 + 17 * c, kItems);
              std::vector<std::future<std::vector<fp::Fixed>>> futures;
              for (const WorkItem& item : work) {
                futures.push_back(server.submit(item.function, item.input));
              }
              for (auto& future : futures) {
                std::vector<std::int64_t> r;
                for (const fp::Fixed& x : future.get()) {
                  r.push_back(x.raw());
                }
                raws[c].push_back(std::move(r));
              }
            });
          }
          for (std::thread& t : threads) {
            t.join();
          }
        }
        ASSERT_EQ(raws, want) << context << " vs direct BatchNacu";
        if (shards == 1) {
          reference = raws;  // the single-dispatcher (PR 5) behaviour
        } else {
          ASSERT_EQ(raws, reference) << context << " vs shards=1";
        }
      }
    }
  }
}

TEST(Serving, WorkStealingRebalancesASingleThreadBurst) {
  // All submissions come from this one thread, so per-thread affinity
  // lands every request on the same home shard; with dispatch groups of 2
  // and a deep burst, the three idle shards must steal from the loaded
  // one — and stolen requests must deliver exactly the same bits.
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.shards = 4;
  options.batcher.max_batch = 2;
  options.batcher.max_wait = std::chrono::microseconds{0};
  options.batcher.queue_capacity = 1 << 12;
  InferenceServer server{config, options};

  const BatchNacu direct{config};
  const std::vector<fp::Fixed> input(
      4096, fp::Fixed::from_double(0.75, config.format));
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Tanh, input);
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  futures.reserve(256);
  for (int i = 0; i < 256; ++i) {
    futures.push_back(server.submit(Function::Tanh, input));
  }
  for (auto& future : futures) {
    expect_bit_equal(future.get(), want, "burst request");
  }
  server.shutdown();
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, 256u);
  EXPECT_EQ(counters.completed, 256u);
  EXPECT_GT(counters.steals, 0u);
  EXPECT_GT(counters.stolen_requests, 0u);
  EXPECT_EQ(server.pending(), 0u);
}

TEST(Serving, ShutdownRacesBurstyUnbalancedSubmittersAcrossShards) {
  // The shutdown drain guarantee under the nastiest schedule we can force:
  // four shards, five clients submitting unbalanced bursts (some 48-deep,
  // some 6-deep, so stealing is active), and shutdown() fired at a
  // different point in each round. Invariants per round: no accepted
  // future is lost or doubled (resolved == accepted and the dispatcher
  // would std::terminate on a double set_value), client tallies equal the
  // server's counters, and post-shutdown submits throw ShutdownError.
  const NacuConfig config = config_for_bits(16);
  for (int round = 0; round < 6; ++round) {
    ServerOptions options;
    options.shards = 4;
    options.batcher.max_batch = 8;
    options.batcher.max_wait = std::chrono::microseconds{100};
    options.batcher.queue_capacity = 1 << 12;
    InferenceServer server{config, options};

    constexpr std::size_t kClients = 5;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<std::uint64_t> failed{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::size_t burst = (c % 2 == 0) ? 48 : 6;
        const std::vector<fp::Fixed> input(
            8, fp::Fixed::from_double(0.125 * static_cast<double>(c + 1),
                                      config.format));
        std::vector<std::future<std::vector<fp::Fixed>>> futures;
        bool down = false;
        for (int b = 0; b < 10 && !down; ++b) {
          for (std::size_t i = 0; i < burst; ++i) {
            try {
              futures.push_back(server.submit(Function::Sigmoid, input));
              ++accepted;
            } catch (const ShutdownError&) {
              ++rejected;
              down = true;
              break;
            }
          }
          std::this_thread::yield();
        }
        for (auto& future : futures) {
          try {
            (void)future.get();
            ++resolved;
          } catch (...) {
            ++failed;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds{300 + 500 * round});
    server.shutdown();
    for (std::thread& t : clients) {
      t.join();
    }

    EXPECT_EQ(resolved.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(failed.load(), 0u) << "round " << round;
    const InferenceServer::Counters counters = server.counters();
    EXPECT_EQ(counters.accepted, accepted.load()) << "round " << round;
    EXPECT_EQ(counters.completed, accepted.load()) << "round " << round;
    EXPECT_EQ(counters.rejected_shutdown, rejected.load())
        << "round " << round;
    EXPECT_EQ(server.pending(), 0u) << "round " << round;
    EXPECT_THROW((void)server.submit(Function::Sigmoid, {}), ShutdownError);
  }
}

TEST(Serving, ServingMetricsArePopulated) {
  obs::set_metrics_enabled(true);
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 4;
  options.batcher.max_wait = std::chrono::microseconds{100};
  InferenceServer server{config, options};
  const std::vector<fp::Fixed> input(
      8, fp::Fixed::from_double(-0.5, config.format));
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.submit(Function::Sigmoid, input));
  }
  for (auto& future : futures) {
    (void)future.get();
  }
  server.shutdown();
  // The server's own registry, so nothing else in the process can leak in.
  obs::Registry& metrics = server.metrics();
  EXPECT_EQ(metrics.counter("serve.accepted").value(), 12u);
  EXPECT_EQ(metrics.counter("serve.completed").value(), 12u);
  EXPECT_GE(metrics.gauge("serve.queue_depth_high_water").value(), 1);
  const obs::Histogram::Snapshot latency =
      metrics.histogram("serve.request_latency_ns").snapshot();
  EXPECT_EQ(latency.count, 12u);
  EXPECT_GT(latency.quantile_bound(0.99), 0u);
  const obs::Histogram::Snapshot groups =
      metrics.histogram("serve.group_requests").snapshot();
  EXPECT_GE(groups.count, 3u);  // 12 requests in groups of <= 4
  obs::set_metrics_enabled(false);
}

// --- The one clock (ServerOptions::clock) --------------------------------
//
// The max_wait flush policy and dispatch-time deadline shedding read the
// same injected clock as admission, so fake time drives them too.

/// Injectable deterministic clock (same idiom as tests/test_resilience.cpp),
/// handed to ServerOptions::clock: the one clock of the whole layer.
struct FakeClock {
  std::shared_ptr<std::atomic<std::int64_t>> ns =
      std::make_shared<std::atomic<std::int64_t>>(std::int64_t{1});

  void advance(std::chrono::nanoseconds d) const { ns->fetch_add(d.count()); }
  [[nodiscard]] std::function<std::chrono::steady_clock::time_point()> fn()
      const {
    auto cell = ns;
    return [cell] {
      return std::chrono::steady_clock::time_point{
          std::chrono::nanoseconds{cell->load()}};
    };
  }
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return fn()();
  }
};

TEST(ServingClock, MaxWaitFlushFiresOnFakeTimeNotWallTime) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  FakeClock clock;
  ServerOptions options;
  options.shards = 1;
  options.batcher.max_batch = 64;  // never reached — only max_wait can flush
  options.batcher.max_wait = std::chrono::milliseconds{50};
  options.resilience.supervise = false;
  options.clock = clock.fn();
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{
      fp::Fixed::from_double(-0.5, config.format),
      fp::Fixed::from_double(1.25, config.format)};
  std::future<std::vector<fp::Fixed>> future =
      server.submit(Function::Sigmoid, input);
  // Wall time passes, fake time does not: the partial group must NOT
  // flush — 50 real milliseconds exceed max_wait many times over.
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds{50}),
            std::future_status::timeout);
  // One fake tick past max_wait: the dispatcher's next poll flushes.
  clock.advance(std::chrono::milliseconds{51});
  ASSERT_EQ(future.wait_for(std::chrono::seconds{10}),
            std::future_status::ready);
  const std::vector<fp::Fixed> got = future.get();
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Sigmoid, input);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].raw(), want[i].raw()) << "element " << i;
  }
}

TEST(ServingClock, BatchFullFlushNeedsNoClockAdvance) {
  // The size trigger is clock-independent: a full group flushes even with
  // fake time frozen solid.
  const NacuConfig config = config_for_bits(16);
  FakeClock clock;
  ServerOptions options;
  options.shards = 1;
  options.batcher.max_batch = 4;
  options.batcher.max_wait = std::chrono::hours{1};
  options.resilience.supervise = false;
  options.clock = clock.fn();
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{fp::Fixed::zero(config.format)};
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit(Function::Tanh, input));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds{10}),
              std::future_status::ready);
    (void)future.get();
  }
}

TEST(ServingClock, DispatchTimeDeadlineShedRunsOnTheSameFakeClock) {
  // A request whose deadline expires while it queues must be shed at
  // dispatch, never executed — driven entirely by fake time. Under the
  // old split clock this scenario was untestable: the flush check
  // compared a real-clock now against the (then real-clock) stamp while
  // the shed check compared the fake admission clock, so fake-driven
  // expiry either never flushed or never shed.
  const NacuConfig config = config_for_bits(16);
  FakeClock clock;
  ServerOptions options;
  options.shards = 1;
  options.batcher.max_batch = 8;
  options.batcher.max_wait = std::chrono::milliseconds{10};
  options.resilience.supervise = false;
  options.clock = clock.fn();
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{fp::Fixed::zero(config.format)};
  SubmitOptions submit_options;
  submit_options.deadline = clock.now() + std::chrono::milliseconds{5};
  std::future<std::vector<fp::Fixed>> doomed =
      server.submit(Function::Sigmoid, input, submit_options);
  // Frozen fake clock: neither flushed nor shed yet.
  EXPECT_EQ(doomed.wait_for(std::chrono::milliseconds{20}),
            std::future_status::timeout);
  // Advance past BOTH the deadline and max_wait in one fake step: the
  // flush fires and dispatch-time shedding catches the expired deadline.
  clock.advance(std::chrono::milliseconds{20});
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds{10}),
            std::future_status::ready);
  EXPECT_THROW((void)doomed.get(), DeadlineExpiredError);
  // The dispatcher keeps the books before it fulfils the future, so they
  // are exact the moment get() returns.
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.shed_deadline, 1u);
  EXPECT_EQ(counters.completed, 1u);  // shed still fulfils the future
}

// --- ShardQueue: the moved-only-on-Ok contract ---------------------------

TEST(ShardQueue, FullAndStoppedLeaveEveryRequestFieldIntact) {
  // The server's shard-probe loop hands the SAME Request object to shard
  // after shard until one accepts; admission metadata must survive every
  // rejection bit-for-bit or the accepting shard schedules it wrongly, and
  // the promise must still be the one the client's future is tied to.
  const fp::Format fmt{8, 7};
  const auto deadline = std::chrono::steady_clock::time_point{
      std::chrono::nanoseconds{123456789}};
  const auto make = [&] {
    Request request;
    request.function = Function::Exp;
    request.input = {fp::Fixed::from_raw(-301, fmt),
                     fp::Fixed::from_raw(77, fmt)};
    request.deadline = deadline;
    request.retries_left = 3;
    return request;
  };
  const auto expect_intact = [&](const Request& request, const char* after) {
    ASSERT_EQ(request.input.size(), 2u) << after;
    EXPECT_EQ(request.input[0].raw(), -301) << after;
    EXPECT_EQ(request.input[1].raw(), 77) << after;
    EXPECT_EQ(request.function, Function::Exp) << after;
    ASSERT_TRUE(request.deadline.has_value()) << after;
    EXPECT_EQ(*request.deadline, deadline) << after;
    EXPECT_EQ(request.retries_left, 3u) << after;
  };

  ShardQueue full_queue{1};
  Request filler = tagged_request(1);
  ASSERT_EQ(full_queue.try_push(filler), ShardQueue::Push::Ok);
  ShardQueue stopped_queue{1};
  stopped_queue.stop();

  Request request = make();
  EXPECT_EQ(full_queue.try_push(request), ShardQueue::Push::Full);
  expect_intact(request, "after Full");
  // The promise still has its shared state and no future taken from it.
  std::future<std::vector<fp::Fixed>> future = request.result.get_future();
  EXPECT_EQ(stopped_queue.try_push(request), ShardQueue::Push::Stopped);
  expect_intact(request, "after Stopped");
  // ... and fulfilling it still reaches that future.
  request.result.set_value({fp::Fixed::from_raw(5, fmt)});
  ASSERT_EQ(future.wait_for(std::chrono::seconds{0}),
            std::future_status::ready);
  const std::vector<fp::Fixed> got = future.get();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].raw(), 5);
}

TEST(ShardQueue, RequestSurvivingManyFullProbesDispatchesBitIdentically) {
  // Regression for the probe loop end-to-end: a request bounced off N full
  // shards, finally accepted, drained through a MicroBatcher and executed,
  // must produce exactly the bits direct evaluation produces — the N Full
  // rejections must not have corrupted the payload they did not consume.
  const NacuConfig config = config_for_bits(16);
  const BatchNacu engine{config};
  const std::vector<fp::Fixed> input = {
      fp::Fixed::from_double(-3.5, config.format),
      fp::Fixed::from_double(0.125, config.format),
      fp::Fixed::from_double(6.0, config.format)};
  const std::vector<fp::Fixed> want = engine.evaluate(Function::Tanh, input);

  Request request;
  request.function = Function::Tanh;
  request.input = input;
  std::future<std::vector<fp::Fixed>> future = request.result.get_future();

  ShardQueue full_queue{1};
  Request filler = tagged_request(1);
  ASSERT_EQ(full_queue.try_push(filler), ShardQueue::Push::Ok);
  constexpr int kProbes = 16;
  for (int probe = 0; probe < kProbes; ++probe) {
    ASSERT_EQ(full_queue.try_push(request), ShardQueue::Push::Full)
        << "probe " << probe;
  }

  ShardQueue home{4};
  ASSERT_EQ(home.try_push(request), ShardQueue::Push::Ok);
  MicroBatcher batcher{BatcherOptions{.max_batch = 4}};
  ASSERT_EQ(home.drain_into(
                [&](Request&& r) { batcher.push(std::move(r)); }, 4),
            1u);
  std::vector<Request> group = batcher.take_group();
  home.on_taken(group.size());
  ASSERT_EQ(group.size(), 1u);

  Request& taken = group.front();
  taken.result.set_value(engine.evaluate(*taken.function, taken.input));
  const std::vector<fp::Fixed> got = future.get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].raw(), want[i].raw()) << "element " << i;
  }
}

}  // namespace
}  // namespace nacu::serve
