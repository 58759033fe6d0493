// Admission-control coverage: priority depth limits, per-tenant token
// buckets, and deadline handling — first against the AdmissionController
// in isolation with a fake clock (refill rates and expiry are driven by
// explicit ticks, no sleeping), then through the whole InferenceServer:
// best-effort sheds before high-priority, an expired request is never
// dispatched, and the accounting identity
//
//   accepted + rejected_* + shed_priority == submissions attempted
//   completed == accepted
//
// holds exactly under concurrent multi-priority load with a shutdown
// racing the submitters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "serve/admission.hpp"
#include "serve/server.hpp"

namespace nacu::serve {
namespace {

using core::NacuConfig;
using core::config_for_bits;
using Function = core::BatchNacu::Function;
using Verdict = AdmissionController::Verdict;
using Clock = std::chrono::steady_clock;

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point{std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds{ns})};
}

/// Injectable clock: admission reads whatever the test last set, so bucket
/// refill and deadline expiry advance only when the test says so.
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

TEST(Admission, BestEffortGetsHalfTheShardCapacityAndNeverLessThanOneSlot) {
  // High and Normal may fill the whole shard; BestEffort gets
  // max(1, capacity / 2), so it is throttled but never configured out.
  for (const auto& [capacity, best_effort] :
       {std::pair<std::size_t, std::size_t>{16, 8}, {7, 3}, {1, 1}}) {
    AdmissionController controller{AdmissionOptions{}, capacity};
    EXPECT_EQ(controller.depth_limit(Priority::High), capacity);
    EXPECT_EQ(controller.depth_limit(Priority::Normal), capacity);
    EXPECT_EQ(controller.depth_limit(Priority::BestEffort), best_effort)
        << "capacity " << capacity;
  }
}

TEST(Admission, TokenBucketEnforcesBurstThenRefillsAtTheConfiguredRate) {
  FakeClock clock;
  AdmissionOptions options;
  options.quotas.emplace_back(7u, TenantQuota{10.0, 3.0});  // 10/s, burst 3
  AdmissionController controller{options, 16, clock.fn()};

  SubmitOptions metered;
  metered.tenant = 7;
  // The bucket starts full: exactly burst admissions, then empty.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(controller.preadmit(metered), Verdict::Admit) << "burst " << i;
  }
  EXPECT_EQ(controller.preadmit(metered), Verdict::RejectQuota);

  // 100 ms at 10 tokens/s refills exactly one token.
  clock.advance(std::chrono::milliseconds{100});
  EXPECT_EQ(controller.preadmit(metered), Verdict::Admit);
  EXPECT_EQ(controller.preadmit(metered), Verdict::RejectQuota);

  // A long idle period refills only to the burst cap, never beyond.
  clock.advance(std::chrono::seconds{10});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(controller.preadmit(metered), Verdict::Admit) << "cap " << i;
  }
  EXPECT_EQ(controller.preadmit(metered), Verdict::RejectQuota);

  // Tenants without a configured quota are unmetered.
  SubmitOptions unmetered;
  unmetered.tenant = 42;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(controller.preadmit(unmetered), Verdict::Admit);
  }
}

TEST(Admission, ZeroRateBucketNeverRefills) {
  FakeClock clock;
  AdmissionOptions options;
  options.quotas.emplace_back(9u, TenantQuota{0.0, 2.0});
  AdmissionController controller{options, 16, clock.fn()};
  SubmitOptions metered;
  metered.tenant = 9;
  EXPECT_EQ(controller.preadmit(metered), Verdict::Admit);
  EXPECT_EQ(controller.preadmit(metered), Verdict::Admit);
  EXPECT_EQ(controller.preadmit(metered), Verdict::RejectQuota);
  clock.advance(std::chrono::hours{1});
  EXPECT_EQ(controller.preadmit(metered), Verdict::RejectQuota);
}

TEST(Admission, ExpiredDeadlineNeverConsumesAQuotaToken) {
  FakeClock clock;
  AdmissionOptions options;
  options.quotas.emplace_back(5u, TenantQuota{0.0, 1.0});  // exactly 1 token
  AdmissionController controller{options, 16, clock.fn()};
  clock.advance(std::chrono::seconds{1});

  SubmitOptions expired;
  expired.tenant = 5;
  expired.deadline = clock.now() - std::chrono::microseconds{1};
  EXPECT_EQ(controller.preadmit(expired), Verdict::RejectDeadline);
  // The deadline check runs before the token draw, so the single token is
  // still there for a servable request.
  SubmitOptions fresh;
  fresh.tenant = 5;
  EXPECT_EQ(controller.preadmit(fresh), Verdict::Admit);
  EXPECT_EQ(controller.preadmit(fresh), Verdict::RejectQuota);
}

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

TEST(Admission, BestEffortIsShedBeforeHigherPriorities) {
  // queue_capacity 8, one shard: best-effort admits against floor(0.5*8)=4
  // while high/normal admit to the full 8. With flushing stalled, the 5th
  // best-effort submit is a priority shed — but normal and high traffic
  // still get the remaining capacity, and only the 9th overall rejection
  // is a true overload.
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 1 << 20;
  options.batcher.max_wait = std::chrono::seconds{30};
  options.batcher.queue_capacity = 8;
  options.shards = 1;
  InferenceServer server{config, options};

  const std::vector<fp::Fixed> input{
      fp::Fixed::from_double(0.25, config.format)};
  SubmitOptions best_effort;
  best_effort.priority = Priority::BestEffort;
  SubmitOptions high;
  high.priority = Priority::High;

  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit(Function::Sigmoid, input, best_effort));
  }
  // Best-effort has hit its class limit — shed, not overloaded.
  EXPECT_THROW((void)server.submit(Function::Sigmoid, input, best_effort),
               OverloadedError);
  EXPECT_EQ(server.counters().shed_priority, 1u);
  EXPECT_EQ(server.counters().rejected_overload, 0u);

  // Higher priorities still fill the queue to true capacity.
  futures.push_back(server.submit(Function::Sigmoid, input));  // normal
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(Function::Sigmoid, input, high));
  }
  EXPECT_EQ(server.pending(), 8u);
  EXPECT_THROW((void)server.submit(Function::Sigmoid, input, high),
               OverloadedError);
  EXPECT_EQ(server.counters().rejected_overload, 1u);
  EXPECT_EQ(server.counters().shed_priority, 1u);

  server.shutdown();  // drains all eight accepted requests
  const core::BatchNacu direct{config};
  const std::vector<fp::Fixed> want =
      direct.evaluate(Function::Sigmoid, input);
  for (auto& future : futures) {
    const std::vector<fp::Fixed> got = future.get();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got[0].raw(), want[0].raw());
  }
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, 8u);
  EXPECT_EQ(counters.completed, 8u);
}

TEST(Admission, AccountingIsExactUnderConcurrentMultiPriorityLoad) {
  // Six client threads hammer a two-shard server with mixed priorities,
  // a metered tenant, and occasional tight deadlines, while the main
  // thread pulls the plug mid-stream. Every submission must land in
  // exactly one bucket, client-side tallies must equal the server's
  // counters, and every accepted future must become ready (value or
  // DeadlineExpiredError).
  const NacuConfig config = config_for_bits(16);
  ServerOptions options;
  options.batcher.max_batch = 8;
  options.batcher.max_wait = std::chrono::microseconds{50};
  options.batcher.queue_capacity = 64;
  options.shards = 2;
  options.admission.quotas.emplace_back(3u, TenantQuota{200000.0, 32.0});
  InferenceServer server{config, options};

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 250;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> shutdown_rejected{0};
  std::atomic<std::uint64_t> quota_rejected{0};
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
        submit_options.priority = static_cast<Priority>(i % 3);
        if (i % 5 == 0) {
          submit_options.tenant = 3;  // the metered tenant
        }
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
          ++overloaded;  // true overload or priority shed — both throw this
        } catch (const ShutdownError&) {
          ++shutdown_rejected;
        } catch (const QuotaExceededError&) {
          ++quota_rejected;
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
                quota_rejected.load() + deadline_rejected.load(),
            kClients * kPerClient);
  // Client tallies equal the server's own books.
  const InferenceServer::Counters counters = server.counters();
  EXPECT_EQ(counters.accepted, accepted.load());
  EXPECT_EQ(counters.rejected_overload + counters.shed_priority,
            overloaded.load());
  EXPECT_EQ(counters.rejected_shutdown, shutdown_rejected.load());
  EXPECT_EQ(counters.rejected_quota, quota_rejected.load());
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
