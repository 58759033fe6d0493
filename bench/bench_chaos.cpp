// Chaos benchmark: the self-healing serving layer under live faults.
//
// Three modes over an identical full-domain workload (4 clients sweeping
// every representable input word through σ/tanh/exp against a 2-shard
// server, verifying every element against precomputed golden tables):
//
//   baseline   — no faults, verification off: the p50/p99 and throughput
//                reference the other modes degrade from;
//   seu        — a chaos thread arms one single-bit transient SEU at a
//                time (random table surface / word / bit, per-shard
//                BitFaultPorts, verify-before-release on) and measures
//                arm→detection latency and detection→healthy recovery
//                time (scrub + circuit closed) for each, while clients
//                keep asserting bit-exactness — the paper's SEC parity
//                story (§VII) extended to the serving layer: zero wrong
//                answers reach a client;
//   shard-kill — the chaos thread crashes a dispatcher thread outright
//                (exception through the dispatch hook); the supervisor
//                joins, rebuilds the shard engine, respawns, and requeues
//                orphans against the retry budget. Clients carry retry
//                credit, so goodput continues on the surviving shard and
//                recovery time to a re-closed circuit is measured.
//
// The binary is its own pass/fail gate (CI chaos-smoke runs --trials 1):
//   * any client-visible wrong answer in any mode           → exit 1
//   * SEU detection coverage < 99%                          → exit 1
//   * any circuit not Closed once the chaos script finishes → exit 1
//
//   ./bench_chaos [--trials N]    # default 1 chaos campaign per mode
//
// Writes BENCH_chaos.json (schema nacu-bench-chaos-v1): one record per
// mode — requests/s, p50/p99 latency, correct_pct, coverage_pct,
// detection/recovery means, degraded-request goodput, kills/respawns.
// scripts/bench_compare.py gates CI runs against bench/baselines/.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/batch_nacu.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using namespace nacu;
using Function = core::BatchNacu::Function;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 4;
constexpr std::size_t kChunk = 256;   ///< elements per request
constexpr std::size_t kWindow = 8;    ///< requests each client keeps in flight
constexpr std::size_t kSeuFaults = 12;
constexpr std::size_t kKills = 3;

const char* kModes[] = {"baseline", "seu", "shard-kill"};

/// xorshift64 — deterministic chaos schedule, no <random> heft.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct Golden {
  fp::Format fmt;
  std::vector<std::int64_t> raw[core::BatchNacu::kFunctionCount];
};

/// Full-domain golden outputs, one dense vector per function — what every
/// client asserts against, independent of the server under test.
Golden build_golden(const core::NacuConfig& config) {
  Golden g{config.format, {}};
  const core::BatchNacu direct{config};
  const std::int64_t min_raw = config.format.min_raw();
  const auto domain =
      static_cast<std::size_t>(config.format.max_raw() - min_raw + 1);
  std::vector<fp::Fixed> in;
  in.reserve(domain);
  for (std::size_t w = 0; w < domain; ++w) {
    in.push_back(
        fp::Fixed::from_raw(min_raw + static_cast<std::int64_t>(w),
                            config.format));
  }
  std::vector<fp::Fixed> out(domain, fp::Fixed::zero(config.format));
  for (std::size_t fi = 0; fi < core::BatchNacu::kFunctionCount; ++fi) {
    direct.evaluate(static_cast<Function>(fi), in, out);
    g.raw[fi].resize(domain);
    for (std::size_t w = 0; w < domain; ++w) {
      g.raw[fi][w] = out[w].raw();
    }
  }
  return g;
}

struct ModeResult {
  double requests_per_s = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;   ///< client-visible incorrect elements
  std::uint64_t failed = 0;  ///< requests resolved with an error
  std::uint64_t injected = 0;
  std::uint64_t detected = 0;
  double coverage_pct = 100.0;
  double detection_ms_mean = 0.0;
  double recovery_ms_mean = 0.0;
  std::uint64_t degraded_requests = 0;
  std::uint64_t scrubs = 0;
  std::uint64_t respawns = 0;
  std::uint64_t kills = 0;
  bool circuits_closed = true;
};

bool all_circuits_closed(const serve::InferenceServer& server) {
  for (std::size_t i = 0; i < kShards; ++i) {
    const serve::ShardHealthSnapshot h = server.shard_health(i);
    if (h.state != serve::CircuitState::Closed || h.quarantined != 0 ||
        h.dispatcher_dead) {
      return false;
    }
  }
  return true;
}

/// Spin (with a short sleep) until @p pred or the timeout elapses.
template <typename Pred>
bool await(Pred&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (!pred()) {
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  return true;
}

ModeResult run_mode(const core::NacuConfig& config, const Golden& golden,
                    std::string_view mode) {
  const bool seu = mode == "seu";
  const bool kill_mode = mode == "shard-kill";

  std::vector<fault::FaultInjector> injectors(kShards);
  std::atomic<std::int64_t> kill_shard{-1};

  serve::ServerOptions options;
  options.shards = kShards;
  options.batcher.max_batch = 64;
  options.batcher.max_wait = std::chrono::microseconds{100};
  options.batcher.queue_capacity = 1 << 16;
  options.resilience.watchdog_interval = std::chrono::microseconds{200};
  // The chaos campaign should never lose a request to budget exhaustion —
  // failures here would muddy the wrong-answer gate this bench exists for.
  options.resilience.retry_budget_per_s = 1e6;
  options.resilience.retry_budget_burst = 1e6;
  if (seu) {
    for (std::size_t i = 0; i < kShards; ++i) {
      options.resilience.shard_fault_ports.push_back(&injectors[i]);
    }
  }
  if (kill_mode) {
    options.resilience.dispatch_hook = [&kill_shard](std::size_t shard) {
      if (kill_shard.load(std::memory_order_acquire) ==
          static_cast<std::int64_t>(shard)) {
        throw std::runtime_error{"chaos: dispatcher killed"};
      }
    };
  }
  serve::InferenceServer server{config, options};

  const std::int64_t min_raw = config.format.min_raw();
  const auto domain = golden.raw[0].size();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> done_requests{0};

  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::SubmitOptions submit;
      submit.max_retries = 3;  // survive shard kills transparently
      struct InFlight {
        std::future<std::vector<fp::Fixed>> future;
        std::size_t fi;
        std::size_t w0;
      };
      std::vector<InFlight> window;
      std::vector<fp::Fixed> input(kChunk, fp::Fixed::zero(config.format));
      std::size_t pos = c * (domain / kClients);  // stagger sweep origins
      std::size_t round = 0;
      const auto drain = [&](InFlight& f) {
        try {
          const std::vector<fp::Fixed> out = f.future.get();
          for (std::size_t k = 0; k < out.size(); ++k) {
            const std::size_t w = (f.w0 + k) % domain;
            if (out[k].raw() != golden.raw[f.fi][w]) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
          }
          done_requests.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      };
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t fi = round % core::BatchNacu::kFunctionCount;
        for (std::size_t k = 0; k < kChunk; ++k) {
          input[k] = fp::Fixed::from_raw(
              min_raw + static_cast<std::int64_t>((pos + k) % domain),
              config.format);
        }
        try {
          window.push_back(InFlight{
              server.submit(static_cast<Function>(fi),
                            std::vector<fp::Fixed>{input}, submit),
              fi, pos});
        } catch (...) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        pos = (pos + kChunk) % domain;
        ++round;
        if (window.size() >= kWindow) {
          for (InFlight& f : window) {
            drain(f);
          }
          window.clear();
        }
      }
      for (InFlight& f : window) {
        drain(f);
      }
    });
  }

  // The chaos script runs on this thread; clients hammer away meanwhile.
  ModeResult result;
  Rng rng;
  std::vector<double> detection_ms;
  std::vector<double> recovery_ms;
  if (seu) {
    constexpr fault::Surface kTables[] = {fault::Surface::TableSigmoid,
                                          fault::Surface::TableTanh,
                                          fault::Surface::TableExp};
    for (std::size_t n = 0; n < kSeuFaults; ++n) {
      const std::size_t shard = rng.next() % kShards;
      const fault::Surface surface = kTables[rng.next() % 3];
      const auto word = static_cast<std::size_t>(rng.next() % domain);
      const int bit = static_cast<int>(rng.next() %
                                       static_cast<std::uint64_t>(
                                           config.format.width()));
      const std::uint64_t det_before = server.counters().detections;
      ++result.injected;
      const auto armed_at = Clock::now();
      injectors[shard].arm(fault::Fault{surface, word, bit,
                                        fault::FaultModel::TransientSeu});
      // Every client sweeps the full domain, so the upset word is read
      // within one sweep — detection is a question of when, not if.
      if (await([&] { return server.counters().detections > det_before; },
                std::chrono::milliseconds{5000})) {
        ++result.detected;
        detection_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      armed_at)
                .count());
        const auto detected_at = Clock::now();
        // Recovery = scrub rebuilt the table, quarantine lifted, circuit
        // re-closed — back to full-speed table-path serving.
        if (await([&] { return all_circuits_closed(server); },
                  std::chrono::milliseconds{5000})) {
          recovery_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        detected_at)
                  .count());
        }
      } else {
        injectors[shard].disarm_all();  // stop an undetected fault leaking
      }
    }
  } else if (kill_mode) {
    for (std::size_t n = 0; n < kKills; ++n) {
      const std::size_t victim = rng.next() % kShards;
      const std::uint64_t respawns_before = server.counters().respawns;
      ++result.kills;
      const auto killed_at = Clock::now();
      kill_shard.store(static_cast<std::int64_t>(victim),
                       std::memory_order_release);
      // The watchdog can respawn faster than we can observe the transient
      // dead state — the respawn counter is the reliable death receipt.
      (void)await(
          [&] { return server.counters().respawns > respawns_before; },
          std::chrono::milliseconds{5000});
      kill_shard.store(-1, std::memory_order_release);
      if (await([&] { return all_circuits_closed(server); },
                std::chrono::milliseconds{5000})) {
        recovery_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      killed_at)
                .count());
      }
    }
  } else {
    // Baseline: let the clients run long enough for a stable measurement.
    std::this_thread::sleep_for(std::chrono::milliseconds{500});
  }

  // Give recovery a final chance to converge before judging the circuits.
  result.circuits_closed =
      await([&] { return all_circuits_closed(server); },
            std::chrono::milliseconds{5000});
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) {
    t.join();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.shutdown();

  const serve::InferenceServer::Counters counters = server.counters();
  result.requests_per_s =
      static_cast<double>(done_requests.load()) / secs;
  result.completed = counters.completed;
  result.wrong = wrong.load();
  result.failed = failed.load();
  result.degraded_requests = counters.degraded_requests;
  result.scrubs = counters.scrubs;
  result.respawns = counters.respawns;
  result.coverage_pct =
      result.injected == 0
          ? 100.0
          : 100.0 * static_cast<double>(result.detected) /
                static_cast<double>(result.injected);
  const auto mean = [](const std::vector<double>& v) {
    if (v.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (const double x : v) {
      sum += x;
    }
    return sum / static_cast<double>(v.size());
  };
  result.detection_ms_mean = mean(detection_ms);
  result.recovery_ms_mean = mean(recovery_ms);
  const obs::Histogram::Snapshot latency =
      server.metrics().histogram("serve.request_latency_ns").snapshot();
  result.p50_ns = latency.quantile_bound(0.50);
  result.p99_ns = latency.quantile_bound(0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--trials" && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed > 0) {
        trials = static_cast<std::size_t>(parsed);
      }
    }
  }
  obs::set_metrics_enabled(true);
  const core::NacuConfig config = core::config_for_bits(16);
  const Golden golden = build_golden(config);

  benchjson::Writer writer{"nacu-bench-chaos-v1"};
  std::printf("Chaos: self-healing serving under SEUs and dispatcher kills\n");
  std::printf("(%zu shards, %zu clients, %zu-element full-domain sweeps, "
              "%zu trial(s))\n\n",
              kShards, kClients, kChunk, trials);
  std::printf("%11s %10s %10s %10s %8s %8s %9s %9s %9s\n", "mode", "req/s",
              "p50", "p99", "wrong", "cover%", "detect", "recover",
              "degraded");
  bool gate_failed = false;
  for (const char* mode : kModes) {
    ModeResult best;
    bool have = false;
    for (std::size_t t = 0; t < trials; ++t) {
      const ModeResult r = run_mode(config, golden, mode);
      // The correctness gates apply to *every* trial, not just the best.
      if (r.wrong != 0) {
        std::fprintf(stderr, "GATE: %s served %llu wrong elements\n", mode,
                     static_cast<unsigned long long>(r.wrong));
        gate_failed = true;
      }
      if (r.coverage_pct < 99.0) {
        std::fprintf(stderr, "GATE: %s detection coverage %.1f%% < 99%%\n",
                     mode, r.coverage_pct);
        gate_failed = true;
      }
      if (!r.circuits_closed) {
        std::fprintf(stderr,
                     "GATE: %s finished with a circuit not Closed\n", mode);
        gate_failed = true;
      }
      if (!have || r.requests_per_s > best.requests_per_s) {
        best = r;
        have = true;
      }
    }
    std::printf("%11s %10.0f %8lluns %8lluns %8llu %7.1f%% %7.2fms %7.2fms "
                "%9llu\n",
                mode, best.requests_per_s,
                static_cast<unsigned long long>(best.p50_ns),
                static_cast<unsigned long long>(best.p99_ns),
                static_cast<unsigned long long>(best.wrong),
                best.coverage_pct, best.detection_ms_mean,
                best.recovery_ms_mean,
                static_cast<unsigned long long>(best.degraded_requests));
    writer.add(benchjson::Record{}
                   .add("bench", "chaos")
                   .add("mode", mode)
                   .add("shards", kShards)
                   .add("clients", kClients)
                   .add("requests_per_s", best.requests_per_s)
                   .add("p50_ns", best.p50_ns)
                   .add("p99_ns", best.p99_ns)
                   .add("completed", best.completed)
                   .add("wrong", best.wrong)
                   .add("failed_requests", best.failed)
                   .add("injected", best.injected)
                   .add("detected", best.detected)
                   .add("coverage_pct", best.coverage_pct)
                   .add("detection_ms_mean", best.detection_ms_mean)
                   .add("recovery_ms_mean", best.recovery_ms_mean)
                   .add("degraded_requests", best.degraded_requests)
                   .add("scrubs", best.scrubs)
                   .add("respawns", best.respawns)
                   .add("kills", best.kills)
                   .add("circuits_closed",
                        static_cast<std::size_t>(best.circuits_closed)));
  }
  if (writer.write("BENCH_chaos.json")) {
    std::printf("\nwrote BENCH_chaos.json\n");
  } else {
    std::fprintf(stderr, "error: could not write BENCH_chaos.json\n");
    return 1;
  }
  if (gate_failed) {
    std::fprintf(stderr, "\nchaos gates FAILED\n");
    return 1;
  }
  std::printf("chaos gates passed: zero wrong answers, coverage >= 99%%, "
              "all circuits closed\n");
  return 0;
}
