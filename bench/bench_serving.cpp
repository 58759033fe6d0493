// Serving-layer throughput: per-request dispatch vs dynamic micro-batching
// vs the sharded scale-out, swept over concurrent client counts.
//
// The experiment the serving layer exists for: N concurrent clients each
// keep a window of small activation requests in flight against one
// InferenceServer and we measure end-to-end request throughput and tail
// latency under three configurations over identical workloads:
//
//   per-request — max_batch = 1, one shard: every request is its own
//                 dispatch group, paying the full dispatcher/engine
//                 per-call overhead — the "no dynamic batching" baseline
//                 every serving-system paper compares against;
//   micro-batch — max_batch = 256, max_wait = 0, one shard: the PR 5
//                 design — the dispatcher coalesces whatever is pending
//                 each time it wakes (adaptive batching — zero added
//                 latency, group size grows with load), but every client
//                 funnels through one ingress mutex and one dispatcher;
//   sharded     — the same adaptive batching across 4 dispatcher shards
//                 with per-thread shard affinity and work stealing: the
//                 submission path contends on 1/4 of the locks, which is
//                 where the single-dispatcher design measurably fell over
//                 as clients grew.
//
// Requests are deliberately small (kElemsPerRequest elements): at that
// size the fixed per-dispatch cost (dispatcher loop and locking, take/
// execute bookkeeping, per-call engine entry, per-request result
// allocation) rivals the table-lookup work itself, which is precisely the
// regime micro-batching and sharding exist for. Results are bit-identical
// across all three configurations (tests/test_serving.cpp proves it, over
// the full shards × max_batch × config matrix); this bench quantifies the
// throughput and tail-latency differences.
//
// Per-request p50/p99 enqueue→complete latency comes from the
// serve.request_latency_ns obs histogram (log2 buckets — the quantile is
// an upper bucket bound, coarse but machine-comparable), read from each
// cell's own server, so every snapshot is cell-local.
//
//   ./bench_serving [--trials N]    # default 3, best-of-N per cell
//
// Writes BENCH_serving.json (schema nacu-bench-serving-v2): one record per
// (mode, clients) cell — requests/s, elems/s, avg dispatch group, p50_ns,
// p99_ns — plus one speedup record per client count comparing both
// batched modes against per-request dispatch. scripts/bench_compare.py
// gates CI runs against bench/baselines/ (speed and latency metrics
// --ignore'd across machines but required structurally; see
// docs/BENCHMARKS.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/batch_nacu.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using namespace nacu;
using Function = core::BatchNacu::Function;

constexpr std::size_t kElemsPerRequest = 8;
constexpr std::size_t kWindow = 128;  ///< requests each client keeps in flight

struct Cell {
  double requests_per_s = 0.0;
  double elems_per_s = 0.0;
  double avg_group = 0.0;  ///< requests per dispatch group actually formed
  std::uint64_t p50_ns = 0;  ///< median enqueue→complete latency bound
  std::uint64_t p99_ns = 0;  ///< tail enqueue→complete latency bound
};

/// One (policy, clients) measurement: every client pushes kWindow requests,
/// drains the futures, repeats for @p rounds. Latency quantiles come from
/// the cell's server's own obs histogram.
Cell run_cell(const core::NacuConfig& config, const serve::ServerOptions&
              options, std::size_t clients, std::size_t rounds) {
  serve::InferenceServer server{config, options};
  // Identical per-client inputs: a stride walk across the representable
  // range, rotating through sigma/tanh/exp.
  std::vector<fp::Fixed> input;
  input.reserve(kElemsPerRequest);
  const fp::Format fmt = config.format;
  for (std::size_t i = 0; i < kElemsPerRequest; ++i) {
    const std::int64_t raw =
        fmt.min_raw() +
        static_cast<std::int64_t>(
            (i * 1031) % static_cast<std::size_t>(fmt.max_raw() -
                                                  fmt.min_raw() + 1));
    input.push_back(fp::Fixed::from_raw(raw, fmt));
  }
  // Payloads are materialised before the clock starts (a client has its
  // request bytes ready; generating them is not serving work) and moved
  // into submit so the timed region measures the serving path itself.
  std::vector<std::vector<std::vector<fp::Fixed>>> payloads(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    payloads[c].assign(rounds * kWindow, input);
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&server, &payloads, rounds, c] {
      std::vector<std::future<std::vector<fp::Fixed>>> futures;
      futures.reserve(kWindow);
      for (std::size_t r = 0; r < rounds; ++r) {
        futures.clear();
        for (std::size_t k = 0; k < kWindow; ++k) {
          const auto f = static_cast<Function>((c + k) % 3);
          futures.push_back(
              server.submit(f, std::move(payloads[c][r * kWindow + k])));
        }
        for (auto& future : futures) {
          (void)future.get();
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto requests =
      static_cast<double>(clients) * static_cast<double>(rounds) *
      static_cast<double>(kWindow);
  Cell cell;
  cell.requests_per_s = requests / secs;
  cell.elems_per_s = requests * static_cast<double>(kElemsPerRequest) / secs;
  const auto counters = server.counters();
  cell.avg_group =
      counters.dispatches == 0
          ? 0.0
          : static_cast<double>(counters.completed) /
                static_cast<double>(counters.dispatches);
  const obs::Histogram::Snapshot latency =
      server.metrics().histogram("serve.request_latency_ns").snapshot();
  cell.p50_ns = latency.quantile_bound(0.50);
  cell.p99_ns = latency.quantile_bound(0.99);
  return cell;
}

serve::ServerOptions per_request_options() {
  serve::ServerOptions options;
  options.batcher.max_batch = 1;
  options.batcher.max_wait = std::chrono::microseconds{0};
  options.batcher.queue_capacity = 1 << 16;
  return options;
}

serve::ServerOptions micro_batch_options() {
  serve::ServerOptions options;
  options.batcher.max_batch = 256;
  options.batcher.max_wait = std::chrono::microseconds{0};
  options.batcher.queue_capacity = 1 << 16;
  return options;
}

serve::ServerOptions sharded_options() {
  serve::ServerOptions options = micro_batch_options();
  options.shards = 4;
  options.work_stealing = true;
  return options;
}

void add_cell(benchjson::Writer& writer, const char* mode,
              std::size_t clients, std::size_t shards, const Cell& cell) {
  writer.add(benchjson::Record{}
                 .add("bench", "serving")
                 .add("mode", mode)
                 .add("clients", clients)
                 .add("shards", shards)
                 .add("requests_per_s", cell.requests_per_s)
                 .add("elems_per_s", cell.elems_per_s)
                 .add("avg_group", cell.avg_group)
                 .add("p50_ns", cell.p50_ns)
                 .add("p99_ns", cell.p99_ns));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--trials" && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed > 0) {
        trials = static_cast<std::size_t>(parsed);
      }
    }
  }
  // The latency histograms need the metrics switch on; it costs one clock
  // read per request in every mode, so the comparison stays fair.
  obs::set_metrics_enabled(true);
  const core::NacuConfig config = core::config_for_bits(16);
  const std::vector<std::size_t> client_counts{1, 2, 4, 8, 16};
  // Rounds scale down with client count so every cell does comparable
  // total work and the bench stays a few seconds end to end.
  const std::size_t base_rounds = 256;

  benchjson::Writer writer{"nacu-bench-serving-v2"};
  std::printf(
      "Serving throughput: per-request vs micro-batch vs sharded (4 shards)\n");
  std::printf("(%zu-element requests, window %zu per client, best of %zu)\n\n",
              kElemsPerRequest, kWindow, trials);
  std::printf("%8s %13s %13s %13s %8s %8s %10s %10s\n", "clients",
              "per-req req/s", "batch req/s", "shard req/s", "b-spdup",
              "s-spdup", "shard p50", "shard p99");
  for (const std::size_t clients : client_counts) {
    const std::size_t rounds =
        std::max<std::size_t>(16, base_rounds / clients);
    Cell per_request;
    Cell batched;
    Cell sharded;
    for (std::size_t t = 0; t < trials; ++t) {
      const Cell a = run_cell(config, per_request_options(), clients, rounds);
      const Cell b = run_cell(config, micro_batch_options(), clients, rounds);
      const Cell s = run_cell(config, sharded_options(), clients, rounds);
      if (a.requests_per_s > per_request.requests_per_s) {
        per_request = a;
      }
      if (b.requests_per_s > batched.requests_per_s) {
        batched = b;
      }
      if (s.requests_per_s > sharded.requests_per_s) {
        sharded = s;
      }
    }
    const double batched_speedup =
        batched.requests_per_s / per_request.requests_per_s;
    const double sharded_speedup =
        sharded.requests_per_s / per_request.requests_per_s;
    std::printf("%8zu %13.0f %13.0f %13.0f %7.2fx %7.2fx %9lluns %9lluns\n",
                clients, per_request.requests_per_s, batched.requests_per_s,
                sharded.requests_per_s, batched_speedup, sharded_speedup,
                static_cast<unsigned long long>(sharded.p50_ns),
                static_cast<unsigned long long>(sharded.p99_ns));
    add_cell(writer, "per-request", clients, 1, per_request);
    add_cell(writer, "micro-batch", clients, 1, batched);
    add_cell(writer, "sharded", clients, 4, sharded);
    writer.add(benchjson::Record{}
                   .add("bench", "serving_speedup")
                   .add("clients", clients)
                   .add("speedup", batched_speedup)
                   .add("sharded_speedup", sharded_speedup));
  }
  if (writer.write("BENCH_serving.json")) {
    std::printf("\nwrote BENCH_serving.json\n");
  } else {
    std::fprintf(stderr, "error: could not write BENCH_serving.json\n");
    return 1;
  }
  return 0;
}
