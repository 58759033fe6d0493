// Tests for the observability layer: metrics registry semantics, the
// disabled fast path, trace span export, and the instrumentation contracts
// the engine relies on (one table build per (function, config); softmax
// engine phase counters mirror the Result fields).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "core/thread_pool.hpp"
#include "hwmodel/softmax_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nacu::obs {
namespace {

/// Every test runs with metrics on and a clean slate, and restores the
/// disabled default afterwards so unrelated tests keep the zero-cost path.
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    registry().reset_all();
    reset_trace();
  }
  void TearDown() override {
    registry().reset_all();
    reset_trace();
    disable_trace();
    set_metrics_enabled(false);
  }
};

using ObsMetrics = ObsFixture;

TEST_F(ObsMetrics, CounterAccumulatesAndResets) {
  Counter& c = counter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsMetrics, RegistryReturnsStableReferences) {
  Counter& a = counter("test.counter.stable");
  Counter& b = counter("test.counter.stable");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = histogram("test.hist.stable");
  Histogram& h2 = histogram("test.hist.stable");
  EXPECT_EQ(&h1, &h2);
  // Same name in different metric families is allowed and distinct.
  Gauge& g = gauge("test.counter.stable");
  EXPECT_NE(static_cast<void*>(&g), static_cast<void*>(&a));
}

TEST_F(ObsMetrics, DisabledMetricsAreNoOps) {
  Counter& c = counter("test.counter.disabled");
  Gauge& g = gauge("test.gauge.disabled");
  Histogram& h = histogram("test.hist.disabled");
  set_metrics_enabled(false);
  c.add(7);
  g.set(9);
  g.record_max(11);
  h.record(100);
  {
    const ScopedTimer timer{h};
  }
  // Counters always count — they are the serving layer's exact books.
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(ObsMetrics, GaugeRecordMaxKeepsHighWater) {
  Gauge& g = gauge("test.gauge.highwater");
  g.record_max(5);
  g.record_max(3);
  EXPECT_EQ(g.value(), 5);
  g.record_max(12);
  EXPECT_EQ(g.value(), 12);
  g.set(-4);
  EXPECT_EQ(g.value(), -4);
}

TEST_F(ObsMetrics, HistogramBucketsByPowerOfTwo) {
  Histogram& h = histogram("test.hist.buckets");
  h.record(1);    // bucket 0: [1, 2)
  h.record(2);    // bucket 1: [2, 4)
  h.record(3);    // bucket 1
  h.record(900);  // bucket 9: [512, 1024)
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 906u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 900u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_DOUBLE_EQ(snap.mean(), 906.0 / 4.0);
  // p50 falls in bucket 1 (inclusive bound 3), p99 in bucket 9 (bound
  // 1023): buckets hold [2^b, 2^(b+1)).
  EXPECT_EQ(snap.quantile_bound(0.5), 3u);
  EXPECT_EQ(snap.quantile_bound(0.99), 1023u);
}

TEST_F(ObsMetrics, HistogramMergesAcrossThreads) {
  Histogram& h = histogram("test.hist.threads");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.sum, static_cast<std::uint64_t>(kThreads) * kPerThread *
                          (kPerThread + 1) / 2);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, static_cast<std::uint64_t>(kPerThread));
}

TEST_F(ObsMetrics, DestroyedRegistryNeverHandsAThreadItsShard) {
  // One thread records into a histogram, its registry dies, and the same
  // thread records into a new registry's histogram — which the allocator
  // may place where the old one lived. The thread's shard cache must not
  // hand the new histogram the freed shard.
  std::vector<std::uint64_t> counts;
  std::thread{[&counts] {
    auto old_registry = std::make_unique<Registry>();
    old_registry->histogram("test.hist.owned").record(5);
    for (int round = 0; round < 8; ++round) {
      old_registry.reset();
      auto new_registry = std::make_unique<Registry>();
      Histogram& h = new_registry->histogram("test.hist.owned");
      h.record(7);
      counts.push_back(h.snapshot().count);
      old_registry = std::move(new_registry);
    }
  }}.join();
  EXPECT_EQ(counts, std::vector<std::uint64_t>(8, 1));
}

TEST_F(ObsMetrics, ToJsonIsWellFormedAndComplete) {
  counter("test.json.counter").add(3);
  gauge("test.json.gauge").set(-7);
  histogram("test.json.hist").record(100);
  const std::string json = registry().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check.
  long braces = 0;
  long brackets = 0;
  for (const char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(ObsMetrics, ResetAllZeroesEveryFamily) {
  Counter& c = counter("test.reset.counter");
  Gauge& g = gauge("test.reset.gauge");
  Histogram& h = histogram("test.reset.hist");
  c.add(5);
  g.set(5);
  h.record(5);
  registry().reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

// ---- Instrumentation contracts on the engine ----

using ObsEngine = ObsFixture;

TEST_F(ObsEngine, ExactlyOneTableBuildPerFunctionAndConfig) {
  Counter& builds = counter("core.batch_nacu.table_builds");
  const std::uint64_t before = builds.value();
  // A fresh config value (distinct from every other test's) so the cache
  // key is cold. Repeated evaluation must build each function's table
  // exactly once.
  core::NacuConfig config = core::config_for_bits(14);
  const core::BatchNacu batch{config};
  std::vector<fp::Fixed> xs;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(fp::Fixed::from_double(0.05 * i - 1.6, config.format));
  }
  std::vector<fp::Fixed> out = xs;
  for (int rep = 0; rep < 3; ++rep) {
    batch.evaluate(core::BatchNacu::Function::Sigmoid, xs, out);
  }
  const std::uint64_t after_sigmoid = builds.value();
  for (int rep = 0; rep < 3; ++rep) {
    batch.evaluate(core::BatchNacu::Function::Tanh, xs, out);
  }
  const std::uint64_t after_tanh = builds.value();
  // At most one build each — zero when another test already built this
  // (function, config) pair's shared table.
  EXPECT_LE(after_sigmoid - before, 1u);
  EXPECT_LE(after_tanh - after_sigmoid, 1u);
  // Re-evaluating now is guaranteed table-hit: the build counter must not
  // move again for either function.
  batch.evaluate(core::BatchNacu::Function::Sigmoid, xs, out);
  batch.evaluate(core::BatchNacu::Function::Tanh, xs, out);
  EXPECT_EQ(builds.value(), after_tanh);
}

TEST_F(ObsEngine, SoftmaxEngineCountersMatchResultFields) {
  Counter& runs = counter("hw.softmax_engine.runs");
  Counter& elems = counter("hw.softmax_engine.elems");
  Counter& max_c = counter("hw.softmax_engine.max_phase_cycles");
  Counter& exp_c = counter("hw.softmax_engine.exp_phase_cycles");
  Counter& div_c = counter("hw.softmax_engine.divide_phase_cycles");
  const core::NacuConfig config = core::config_for_bits(16);
  hw::SoftmaxEngine engine{config};
  std::vector<std::int64_t> raws;
  for (int i = 0; i < 9; ++i) {
    raws.push_back(
        fp::Fixed::from_double(0.3 * i - 1.0, config.format).raw());
  }
  const auto r1 = engine.run(raws);
  EXPECT_EQ(runs.value(), 1u);
  EXPECT_EQ(elems.value(), raws.size());
  EXPECT_EQ(max_c.value(), r1.max_phase_cycles);
  EXPECT_EQ(exp_c.value(), r1.exp_phase_cycles);
  EXPECT_EQ(div_c.value(), r1.divide_phase_cycles);
  const auto r2 = engine.run(raws);
  EXPECT_EQ(runs.value(), 2u);
  EXPECT_EQ(exp_c.value(), r1.exp_phase_cycles + r2.exp_phase_cycles);
}

TEST_F(ObsEngine, SoftmaxPathCountersDistinguishFusedAndFixed) {
  Counter& fused = counter("core.batch_nacu.softmax_fused");
  Counter& fixed = counter("core.batch_nacu.softmax_fixed");
  const std::uint64_t fused0 = fused.value();
  const std::uint64_t fixed0 = fixed.value();
  const core::NacuConfig config = core::config_for_bits(16);
  const core::BatchNacu batch{config};
  std::vector<fp::Fixed> xs;
  for (int i = 0; i < 6; ++i) {
    xs.push_back(fp::Fixed::from_double(0.4 * i - 1.0, config.format));
  }
  (void)batch.softmax(xs);
  // Exactly one of the two paths ran.
  EXPECT_EQ((fused.value() - fused0) + (fixed.value() - fixed0), 1u);
}

TEST_F(ObsEngine, ThreadPoolCountsBatchesAndTasks) {
  Counter& batches = counter("core.thread_pool.batches");
  Counter& tasks = counter("core.thread_pool.tasks_executed");
  Gauge& high_water = gauge("core.thread_pool.queue_depth_high_water");
  Histogram& batch_ns = histogram("core.thread_pool.batch_ns");
  const std::uint64_t batches0 = batches.value();
  const std::uint64_t tasks0 = tasks.value();
  core::ThreadPool pool{2};
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> work;
  for (int i = 0; i < 6; ++i) {
    work.emplace_back([&ran] { ran.fetch_add(1); });
  }
  pool.run(std::move(work));
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(batches.value() - batches0, 1u);
  EXPECT_EQ(tasks.value() - tasks0, 6u);
  // All six tasks were enqueued before any could drain, so the high-water
  // gauge saw the full batch depth.
  EXPECT_GE(high_water.value(), 6);
  EXPECT_GE(batch_ns.snapshot().count, 1u);
}

// ---- Trace spans ----

using ObsTrace = ObsFixture;

TEST_F(ObsTrace, SpansRecordOnlyWhenEnabled) {
  {
    const TraceSpan span{"off"};
  }
  EXPECT_EQ(trace_event_count(), 0u);
  enable_trace();
  {
    const TraceSpan span{"on"};
  }
  disable_trace();
  EXPECT_EQ(trace_event_count(), 1u);
  {
    const TraceSpan span{"off-again"};
  }
  EXPECT_EQ(trace_event_count(), 1u);
}

TEST_F(ObsTrace, WriteTraceEmitsChromeTraceJson) {
  enable_trace();
  {
    const TraceSpan outer{"outer", "test"};
    const TraceSpan inner{"inner", "test"};
  }
  disable_trace();
  const std::string path =
      ::testing::TempDir() + "/nacu_trace_test.json";
  ASSERT_TRUE(write_trace(path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"test\""), std::string::npos);
  // Complete-event fields Chrome requires.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTrace, SpansMergeAcrossThreads) {
  enable_trace();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 5; ++i) {
        const TraceSpan span{"worker"};
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  disable_trace();
  EXPECT_EQ(trace_event_count(), 15u);
}

TEST_F(ObsTrace, ResetDropsBufferedEvents) {
  enable_trace();
  {
    const TraceSpan span{"dropped"};
  }
  disable_trace();
  ASSERT_EQ(trace_event_count(), 1u);
  reset_trace();
  EXPECT_EQ(trace_event_count(), 0u);
}

}  // namespace
}  // namespace nacu::obs
