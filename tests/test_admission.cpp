// Admission coverage: a request is accepted while a shard queue has room
// and its deadline has not passed. Deadlines are driven by a fake clock
// (expiry advances only when the test says so, no sleeping): an expired
// request is rejected at submit or shed at dispatch, never executed, and
// the accounting identity
//
//   accepted + rejected_* == submissions attempted
//   completed == accepted
//
// holds exactly under concurrent load with a shutdown racing the
// submitters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "serve/server.hpp"

namespace nacu::serve {
namespace {

using core::NacuConfig;
using core::config_for_bits;
using Function = core::BatchNacu::Function;
using Clock = std::chrono::steady_clock;

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point{std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds{ns})};
}

/// Injectable clock: the server reads whatever the test last set, so
/// deadline expiry advances only when the test says so.
struct FakeClock {
  std::shared_ptr<std::atomic<std::int64_t>> ns =
      std::make_shared<std::atomic<std::int64_t>>(0);

  [[nodiscard]] std::function<Clock::time_point()> fn() const {
    auto ticks = ns;
    return [ticks] { return at_ns(ticks->load()); };
  }
  [[nodiscard]] Clock::time_point now() const { return at_ns(ns->load()); }
  void advance(std::chrono::nanoseconds d) { ns->fetch_add(d.count()); }
};

TEST(Admission, ServerRejectsAlreadyExpiredDeadlinesAtSubmit) {
  FakeClock clock;
  clock.advance(std::chrono::seconds{5});
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.clock = clock.fn();
  // Fake time stays frozen, so a partial group must not wait to age.
  options.batcher.max_wait = std::chrono::microseconds{0};
  InferenceServer server{config, options};

  SubmitOptions expired;
  expired.deadline = clock.now();  // deadline <= now counts as expired
  const std::vector<fp::Fixed> input{
      fp::Fixed::from_double(0.5, config.format)};
  EXPECT_THROW((void)server.submit(Function::Sigmoid, input, expired),
               DeadlineExpiredError);
  SubmitOptions live;
  live.deadline = clock.now() + std::chrono::hours{1};
  auto future = server.submit(Function::Sigmoid, input, live);
  (void)future.get();

  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.rejected_deadline, 1u);
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.completed, 1u);
}

TEST(Admission, RequestsExpiringWhileQueuedAreShedNeverDispatched) {
  // Flushing is stalled (huge max_batch, long max_wait) so submissions sit
  // queued until shutdown() drains them; by then the fake clock has moved
  // past their deadlines and the dispatch-time shed must fire — each shed
  // future carries DeadlineExpiredError, and the engine never sees those
  // requests (the undeadlined one still computes correctly).
  FakeClock clock;
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 1 << 20;
  options.batcher.max_wait = std::chrono::seconds{30};
  options.clock = clock.fn();
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{
      fp::Fixed::from_double(-1.0, config.format)};
  SubmitOptions options_deadline;
  options_deadline.deadline = clock.now() + std::chrono::milliseconds{1};
  std::vector<std::future<std::vector<fp::Fixed>>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(
        server.submit(Function::Tanh, input, options_deadline));
  }
  auto alive = server.submit(Function::Tanh, input);

  clock.advance(std::chrono::milliseconds{2});  // every deadline now past
  server.shutdown();

  for (auto& future : doomed) {
    EXPECT_THROW((void)future.get(), DeadlineExpiredError);
  }
  const core::BatchNacu direct{config};
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Tanh, input);
  const std::vector<fp::Fixed> got = alive.get();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[0].raw(), want[0].raw());

  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, 4u);
  EXPECT_EQ(counters.shed_deadline, 3u);
  EXPECT_EQ(counters.completed, 4u);  // shed futures still become ready
  EXPECT_EQ(counters.rejected_deadline, 0u);
}

TEST(Admission, AccountingIsExactUnderConcurrentLoad) {
  // Six client threads hammer a two-shard server with a small queue and
  // occasional tight or born-expired deadlines, while the main thread
  // pulls the plug mid-stream. Every submission must land in exactly one
  // bucket, client-side tallies must equal the server's counters, and
  // every accepted future must become ready (value or
  // DeadlineExpiredError).
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 8;
  options.batcher.max_wait = std::chrono::microseconds{50};
  options.batcher.queue_capacity = 64;
  options.shards = 2;
  InferenceServer server{config, options};

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 250;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> shutdown_rejected{0};
  std::atomic<std::uint64_t> deadline_rejected{0};
  std::atomic<std::uint64_t> got_value{0};
  std::atomic<std::uint64_t> got_shed{0};
  std::atomic<std::uint64_t> got_other{0};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<fp::Fixed> input(
          4, fp::Fixed::from_double(0.1 * static_cast<double>(c + 1),
                                    config.format));
      std::vector<std::future<std::vector<fp::Fixed>>> futures;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        SubmitOptions submit_options;
        if (i % 7 == 0) {
          // Tight enough that some expire while queued.
          submit_options.deadline =
              Clock::now() + std::chrono::microseconds{100};
        } else if (i % 13 == 0) {
          submit_options.deadline =
              Clock::now() - std::chrono::microseconds{1};  // born expired
        }
        try {
          futures.push_back(
              server.submit(Function::Sigmoid, input, submit_options));
          ++accepted;
        } catch (const OverloadedError&) {
          ++overloaded;
        } catch (const ShutdownError&) {
          ++shutdown_rejected;
        } catch (const DeadlineExpiredError&) {
          ++deadline_rejected;
        }
      }
      for (auto& future : futures) {
        try {
          (void)future.get();
          ++got_value;
        } catch (const DeadlineExpiredError&) {
          ++got_shed;
        } catch (...) {
          ++got_other;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{3});
  server.shutdown();
  for (std::thread& t : clients) {
    t.join();
  }

  // Exactly one outcome per submission attempt.
  EXPECT_EQ(accepted.load() + overloaded.load() + shutdown_rejected.load() +
                deadline_rejected.load(),
            kClients * kPerClient);
  // Client tallies equal the server's own books.
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, accepted.load());
  EXPECT_EQ(counters.rejected_overload, overloaded.load());
  EXPECT_EQ(counters.rejected_shutdown, shutdown_rejected.load());
  EXPECT_EQ(counters.rejected_deadline, deadline_rejected.load());
  // The drain guarantee: every accepted future became ready, none twice,
  // none with an unexpected error.
  EXPECT_EQ(counters.completed, accepted.load());
  EXPECT_EQ(got_value.load() + got_shed.load(), accepted.load());
  EXPECT_EQ(got_other.load(), 0u);
  EXPECT_EQ(counters.shed_deadline, got_shed.load());
  EXPECT_EQ(server.pending(), 0u);
}

}  // namespace
}  // namespace nacu::serve
