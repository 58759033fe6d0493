// Throughput microbenchmarks (google-benchmark) + the paper's timing claims.
//
// Measures host-side ops/s of the bit-accurate functional model and the
// cycle-accurate RTL model, and reports *simulated* hardware timing from the
// cycle counts: 3/3/8-cycle latencies at 3.75 ns — including the §VII.C
// claim that consecutive exps stream at one per clock after the fill.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/batch_nacu.hpp"
#include "core/nacu.hpp"
#include "hwmodel/nacu_rtl.hpp"
#include "hwmodel/softmax_engine.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace nacu;

const core::NacuConfig kConfig = core::config_for_bits(16);

/// A batch covering the datapath domain with a stride-17 walk (the same
/// input pattern the scalar benchmarks use).
std::vector<fp::Fixed> make_batch(std::size_t n) {
  std::vector<fp::Fixed> xs;
  xs.reserve(n);
  std::int64_t raw = kConfig.format.min_raw();
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(fp::Fixed::from_raw(raw, kConfig.format));
    raw = raw >= kConfig.format.max_raw() ? kConfig.format.min_raw()
                                          : raw + 17;
  }
  return xs;
}

void BM_FunctionalSigmoid(benchmark::State& state) {
  const core::Nacu unit{kConfig};
  std::int64_t raw = kConfig.format.min_raw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        unit.sigmoid(fp::Fixed::from_raw(raw, kConfig.format)));
    raw = raw >= kConfig.format.max_raw() ? kConfig.format.min_raw()
                                          : raw + 17;
  }
}
BENCHMARK(BM_FunctionalSigmoid);

void BM_FunctionalTanh(benchmark::State& state) {
  const core::Nacu unit{kConfig};
  std::int64_t raw = kConfig.format.min_raw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        unit.tanh(fp::Fixed::from_raw(raw, kConfig.format)));
    raw = raw >= kConfig.format.max_raw() ? kConfig.format.min_raw()
                                          : raw + 17;
  }
}
BENCHMARK(BM_FunctionalTanh);

void BM_FunctionalExp(benchmark::State& state) {
  const core::Nacu unit{kConfig};
  std::int64_t raw = kConfig.format.min_raw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        unit.exp(fp::Fixed::from_raw(raw, kConfig.format)));
    raw = raw >= 0 ? kConfig.format.min_raw() : raw + 17;
  }
}
BENCHMARK(BM_FunctionalExp);

void BM_FunctionalSoftmax(benchmark::State& state) {
  const core::Nacu unit{kConfig};
  std::vector<fp::Fixed> xs;
  for (int i = 0; i < state.range(0); ++i) {
    xs.push_back(fp::Fixed::from_double(0.1 * i - 2.0, kConfig.format));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.softmax(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FunctionalSoftmax)->Arg(10)->Arg(100)->Arg(1000);

/// Scalar baseline: one full Fig. 2 datapath walk per element.
void BM_BatchScalarLoop(benchmark::State& state, core::BatchNacu::Function f) {
  const core::Nacu unit{kConfig};
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<fp::Fixed> xs = make_batch(n);
  std::vector<fp::Fixed> out(n, fp::Fixed::zero(kConfig.format));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = f == core::BatchNacu::Function::Sigmoid ? unit.sigmoid(xs[i])
               : f == core::BatchNacu::Function::Tanh  ? unit.tanh(xs[i])
                                                       : unit.exp(xs[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_BatchSigmoidScalar(benchmark::State& state) {
  BM_BatchScalarLoop(state, core::BatchNacu::Function::Sigmoid);
}
BENCHMARK(BM_BatchSigmoidScalar)->Arg(1 << 16)->Arg(1 << 18);
void BM_BatchTanhScalar(benchmark::State& state) {
  BM_BatchScalarLoop(state, core::BatchNacu::Function::Tanh);
}
BENCHMARK(BM_BatchTanhScalar)->Arg(1 << 16)->Arg(1 << 18);

/// Batched single-thread path: dense 2^16-entry table, no pool fan-out.
void BM_BatchCachedLoop(benchmark::State& state, core::BatchNacu::Function f) {
  core::BatchNacu::Options options;
  options.parallel_threshold = ~std::size_t{0};  // keep it on one thread
  const core::BatchNacu unit{kConfig, options};
  unit.warm(f);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<fp::Fixed> xs = make_batch(n);
  std::vector<fp::Fixed> out(n, fp::Fixed::zero(kConfig.format));
  for (auto _ : state) {
    unit.evaluate(f, xs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_BatchSigmoidCached(benchmark::State& state) {
  BM_BatchCachedLoop(state, core::BatchNacu::Function::Sigmoid);
}
BENCHMARK(BM_BatchSigmoidCached)->Arg(1 << 16)->Arg(1 << 18);
void BM_BatchTanhCached(benchmark::State& state) {
  BM_BatchCachedLoop(state, core::BatchNacu::Function::Tanh);
}
BENCHMARK(BM_BatchTanhCached)->Arg(1 << 16)->Arg(1 << 18);

/// Batched parallel path: table + thread-pool fan-out (defaults).
void BM_BatchParallelLoop(benchmark::State& state,
                          core::BatchNacu::Function f) {
  const core::BatchNacu unit{kConfig};
  unit.warm(f);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<fp::Fixed> xs = make_batch(n);
  std::vector<fp::Fixed> out(n, fp::Fixed::zero(kConfig.format));
  for (auto _ : state) {
    unit.evaluate(f, xs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_BatchSigmoidParallel(benchmark::State& state) {
  BM_BatchParallelLoop(state, core::BatchNacu::Function::Sigmoid);
}
BENCHMARK(BM_BatchSigmoidParallel)->Arg(1 << 16)->Arg(1 << 18);
void BM_BatchTanhParallel(benchmark::State& state) {
  BM_BatchParallelLoop(state, core::BatchNacu::Function::Tanh);
}
BENCHMARK(BM_BatchTanhParallel)->Arg(1 << 16)->Arg(1 << 18);

void BM_BatchSoftmax(benchmark::State& state) {
  const core::BatchNacu unit{kConfig};
  unit.warm(core::BatchNacu::Function::Exp);
  std::vector<fp::Fixed> xs;
  for (int i = 0; i < state.range(0); ++i) {
    xs.push_back(fp::Fixed::from_double(0.1 * i - 2.0, kConfig.format));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.softmax(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchSoftmax)->Arg(10)->Arg(100)->Arg(1000);

void BM_RtlSigmoidPipelined(benchmark::State& state) {
  // Streams one op per cycle; reports host cycles/sec of the cycle model.
  hw::NacuRtl rtl{kConfig};
  std::uint64_t tag = 0;
  std::int64_t raw = kConfig.format.min_raw();
  for (auto _ : state) {
    rtl.issue(hw::Func::Sigmoid, fp::Fixed::from_raw(raw, kConfig.format),
              tag++);
    rtl.tick();
    benchmark::DoNotOptimize(rtl.outputs());
    raw = raw >= kConfig.format.max_raw() ? kConfig.format.min_raw()
                                          : raw + 17;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlSigmoidPipelined);

void BM_RtlExpPipelined(benchmark::State& state) {
  hw::NacuRtl rtl{kConfig};
  std::uint64_t tag = 0;
  std::int64_t raw = kConfig.format.min_raw();
  for (auto _ : state) {
    rtl.issue(hw::Func::Exp, fp::Fixed::from_raw(raw, kConfig.format), tag++);
    rtl.tick();
    benchmark::DoNotOptimize(rtl.outputs());
    raw = raw >= 0 ? kConfig.format.min_raw() : raw + 17;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlExpPipelined);

}  // namespace

int main(int argc, char** argv) {
  // --metrics: enable the observability registry for the run and dump it
  // as JSON at the end. Stripped before benchmark::Initialize sees argv.
  bool metrics = false;
  {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string_view{argv[i]} == "--metrics") {
        metrics = true;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }
  if (metrics) {
    obs::set_metrics_enabled(true);
  }

  std::printf("=== Simulated hardware timing (28 nm, 3.75 ns clock) ===\n");
  std::printf("  sigmoid latency: 3 cycles = 11.25 ns\n");
  std::printf("  tanh    latency: 3 cycles = 11.25 ns\n");
  std::printf("  exp     latency: 8 cycles = 30.00 ns\n");
  std::printf("  exp throughput after fill: 1/cycle = 3.75 ns per e "
              "(Sec. VII.C)\n");
  std::printf("  vs [14] sequential CORDIC scaled to 28 nm: ~42 ns per e\n\n");

  std::printf("=== Softmax engine (cycle-accurate, Eq. 13 phases) ===\n");
  std::printf("%6s %8s %10s %12s %14s\n", "N", "cycles", "ns", "cyc/elem",
              "phases (max/exp/div)");
  hw::SoftmaxEngine engine{kConfig};
  for (const std::size_t n : {2u, 4u, 10u, 16u, 64u, 256u}) {
    std::vector<std::int64_t> logits;
    for (std::size_t i = 0; i < n; ++i) {
      logits.push_back(fp::Fixed::from_double(
          0.01 * static_cast<double>(i) - 1.0, kConfig.format).raw());
    }
    const auto result = engine.run(logits);
    std::printf("%6zu %8llu %10.0f %12.2f %8llu/%llu/%llu\n", n,
                static_cast<unsigned long long>(result.cycles),
                static_cast<double>(result.cycles) * 3.75,
                static_cast<double>(result.cycles) / static_cast<double>(n),
                static_cast<unsigned long long>(result.max_phase_cycles),
                static_cast<unsigned long long>(result.exp_phase_cycles),
                static_cast<unsigned long long>(result.divide_phase_cycles));
  }
  std::printf("  (pipeline fill overhead: 10 cycles ~ 38 ns; cf. the "
              "paper's ~90 ns fill quote,\n   which also covers the MAC "
              "accumulation pass)\n\n");

  // Scalar datapath vs table (scalar kernel) vs table (SIMD kernel) vs
  // parallel elems/s. Every path is bit-identical (proved exhaustively by
  // test_batch_differential / test_simd_differential), so this table is
  // pure speed — and it feeds BENCH_throughput.json so runs accumulate
  // machine-comparable artifacts.
  std::printf("=== Batch evaluation engine: elems/s by path ===\n");
  {
    using Clock = std::chrono::steady_clock;
    const simd::Backend simd_backend = simd::active_backend();
    const char* simd_name = simd::backend_name(simd_backend);
    const std::size_t pool_threads = core::ThreadPool::shared().size();
    const std::string fmt_name = kConfig.format.to_string();
    // v2: adds table_bytes (resident activation-table bytes behind each
    // row) and configs (live engine configs in the working-set sweep).
    benchjson::Writer writer{"nacu-bench-throughput-v2"};

    const core::Nacu scalar{kConfig};
    core::BatchNacu::Options table_scalar_options;
    table_scalar_options.parallel_threshold = ~std::size_t{0};
    table_scalar_options.backend = simd::Backend::Scalar;
    const core::BatchNacu table_scalar{kConfig, table_scalar_options};
    core::BatchNacu::Options table_simd_options;
    table_simd_options.parallel_threshold = ~std::size_t{0};
    table_simd_options.backend = simd_backend;
    const core::BatchNacu table_simd{kConfig, table_simd_options};
    const core::BatchNacu parallel{kConfig};

    const auto time_ops = [](auto&& body) {
      // One warm-up pass, then the best of three timed passes.
      body();
      double best_s = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        body();
        best_s = std::min(
            best_s, std::chrono::duration<double>(Clock::now() - t0).count());
      }
      return best_s;
    };
    const auto record = [&](const char* op, const char* backend,
                            std::size_t threads, std::size_t n,
                            double seconds, std::size_t table_bytes,
                            std::size_t configs = 1) {
      const double dn = static_cast<double>(n);
      writer.add(benchjson::Record{}
                     .add("op", op)
                     .add("format", fmt_name)
                     .add("backend", backend)
                     .add("threads", threads)
                     .add("elems", n)
                     .add("configs", configs)
                     .add("table_bytes", table_bytes)
                     .add("elems_per_s", dn / seconds)
                     .add("ns_per_elem", seconds * 1e9 / dn));
    };

    std::printf("  %-8s %8s %12s %12s %12s %12s %12s %9s\n", "func", "batch",
                "scalar el/s", "pr1 el/s", "table el/s", "simd el/s",
                "par el/s", "simd/pr1");
    std::string table_simd_label = "table-";
    table_simd_label += simd_name;
    for (const auto& [name, func] :
         {std::pair{"sigmoid", core::BatchNacu::Function::Sigmoid},
          std::pair{"tanh", core::BatchNacu::Function::Tanh},
          std::pair{"exp", core::BatchNacu::Function::Exp}}) {
      table_scalar.warm(func);
      table_simd.warm(func);
      parallel.warm(func);
      // PR 1 cached-table reference loop: per-element format check,
      // fault-port branch and range-checked from_raw — the acceptance
      // baseline the kernel layer replaces.
      const fp::Format fmt = kConfig.format;
      const std::int64_t min_raw = fmt.min_raw();
      const auto entries =
          static_cast<std::size_t>(fmt.max_raw() - min_raw + 1);
      std::vector<std::int16_t> table(entries);
      for (std::size_t k = 0; k < entries; ++k) {
        const fp::Fixed x = fp::Fixed::from_raw(
            min_raw + static_cast<std::int64_t>(k), fmt);
        const fp::Fixed y = func == core::BatchNacu::Function::Sigmoid
                                ? scalar.sigmoid(x)
                            : func == core::BatchNacu::Function::Tanh
                                ? scalar.tanh(x)
                                : scalar.exp(x);
        table[k] = static_cast<std::int16_t>(y.raw());
      }
      for (const std::size_t n : {std::size_t{1} << 16,
                                  std::size_t{1} << 18}) {
        const std::vector<fp::Fixed> xs = make_batch(n);
        std::vector<fp::Fixed> out(n, fp::Fixed::zero(kConfig.format));
        const core::BatchNacu::Function f = func;
        const double scalar_s = time_ops([&] {
          for (std::size_t i = 0; i < n; ++i) {
            out[i] = f == core::BatchNacu::Function::Sigmoid
                         ? scalar.sigmoid(xs[i])
                     : f == core::BatchNacu::Function::Tanh
                         ? scalar.tanh(xs[i])
                         : scalar.exp(xs[i]);
          }
        });
        fault::BitFaultPort* const port = nullptr;
        const double pr1_s = time_ops([&] {
          for (std::size_t i = 0; i < n; ++i) {
            if (xs[i].format() != fmt) {
              throw std::invalid_argument("input not in datapath format");
            }
            const auto word =
                static_cast<std::size_t>(xs[i].raw() - min_raw);
            std::int64_t entry = table[word];
            if (port != nullptr) {
              entry = port->read(core::BatchNacu::table_surface(f), word,
                                 entry, fmt.width());
            }
            out[i] = fp::Fixed::from_raw(entry, fmt);
          }
          benchmark::DoNotOptimize(out.data());
        });
        const double table_s =
            time_ops([&] { table_scalar.evaluate(f, xs, out); });
        const double simd_s =
            time_ops([&] { table_simd.evaluate(f, xs, out); });
        const double parallel_s =
            time_ops([&] { parallel.evaluate(f, xs, out); });
        const double dn = static_cast<double>(n);
        std::printf(
            "  %-8s %8zu %12.3e %12.3e %12.3e %12.3e %12.3e %8.1fx\n", name,
            n, dn / scalar_s, dn / pr1_s, dn / table_s, dn / simd_s,
            dn / parallel_s, pr1_s / simd_s);
        record(name, "scalar-datapath", 1, n, scalar_s, 0);
        record(name, "table-pr1", 1, n, pr1_s,
               entries * sizeof(std::int16_t));
        record(name, "table-scalar", 1, n, table_s,
               table_scalar.table_resident_bytes(f));
        record(name, table_simd_label.c_str(), 1, n, simd_s,
               table_simd.table_resident_bytes(f));
        record(name, "parallel", pool_threads, n, parallel_s,
               parallel.table_resident_bytes(f));
      }
    }
    // Batched softmax (fused raw-domain path when the exp table is up).
    {
      const std::size_t n = 1000;
      std::vector<fp::Fixed> xs;
      xs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(fp::Fixed::from_double(
            0.01 * static_cast<double>(i) - 2.0, kConfig.format));
      }
      const double softmax_s =
          time_ops([&] { benchmark::DoNotOptimize(table_simd.softmax(xs)); });
      std::printf("  %-8s %8zu %12s %12s %12s %12.3e %12s %9s\n", "softmax",
                  n, "-", "-", "-", static_cast<double>(n) / softmax_s, "-",
                  "-");
      record("softmax", table_simd_label.c_str(), 1, n, softmax_s,
             table_simd.table_resident_bytes(core::BatchNacu::Function::Exp));
    }
    // === Working-set sweep: live configs × table mode × backend ===
    // Many deployed configs share one cache. Each cell builds `configs`
    // engines with *distinct* NacuConfigs (different LUT geometries →
    // different table contents), warms σ + tanh on each, then streams the
    // same total element count through them — so every cell does identical
    // arithmetic and differs only in resident table bytes. Dense at 8
    // configs is 8 × 2 × 128 KiB = 2 MiB of tables (a typical L2);
    // HalfRange halves that; Pwl collapses it to a few KiB.
    //
    // Methodology: every evaluation uses the *same* small scrambled input
    // chunk (uniform over the raw range, so gathers hit the tables
    // randomly instead of walking them linearly), and each round cycles
    // through all engines before touching the first again — each engine's
    // tables must survive the other configs' gathers to stay resident.
    // Rounds scale inversely with `configs` so total work per cell is
    // constant and only the live table footprint varies.
    std::printf("\n=== Working-set sweep: live configs x table mode ===\n");
    std::printf("  %-8s %-6s %8s %12s %12s\n", "backend", "mode", "configs",
                "tables KiB", "elems/s");
    {
      const std::size_t kSweepLutEntries[8] = {53, 61, 71, 47,
                                               59, 67, 73, 79};
      struct ModeRow {
        core::BatchNacu::TableMode mode;
        const char* name;
      };
      const ModeRow modes[] = {
          {core::BatchNacu::TableMode::Dense, "dense"},
          {core::BatchNacu::TableMode::HalfRange, "half"},
          {core::BatchNacu::TableMode::Pwl, "pwl"},
      };
      std::vector<std::pair<simd::Backend, const char*>> sweep_backends;
      sweep_backends.emplace_back(simd::Backend::Scalar, "scalar");
      if (simd::avx2_available()) {
        sweep_backends.emplace_back(simd::Backend::Avx2, "avx2");
      }
      // Small chunks force frequent engine hand-offs: a mode whose live
      // tables exceed the L2 re-faults lines on every visit, one that fits
      // streams at full gather speed after the first round.
      const std::size_t kChunk = 4096;
      const std::size_t kRoundsAtOne = 128;  // rounds × configs is constant
      // Scrambled chunk: a fixed LCG walk over the full raw range, shared
      // by every cell (identical arithmetic everywhere, random gathers).
      std::vector<fp::Fixed> chunk;
      chunk.reserve(kChunk);
      {
        const std::int64_t span =
            kConfig.format.max_raw() - kConfig.format.min_raw() + 1;
        std::uint32_t s = 0x9E3779B9u;
        for (std::size_t i = 0; i < kChunk; ++i) {
          s = s * 1664525u + 1013904223u;
          chunk.push_back(fp::Fixed::from_raw(
              kConfig.format.min_raw() +
                  static_cast<std::int64_t>((s >> 8) % span),
              kConfig.format));
        }
      }
      std::vector<fp::Fixed> chunk_out(kChunk,
                                       fp::Fixed::zero(kConfig.format));
      // Contention robustness: a shared host can steal the core in
      // multi-second bursts, and back-to-back tries of one cell all land
      // inside the same burst. So every cell is built once up front, then
      // the whole grid is timed in several well-separated passes — each
      // visit runs the cell once untimed (tables re-resident, any burst
      // absorbed) and once timed, and a cell reports its best across
      // passes. A burst then costs one pass of a few cells, not a cell.
      struct SweepCell {
        const char* backend_name;
        const char* mode_name;
        std::size_t configs;
        std::size_t rounds;
        std::size_t resident;
        std::vector<std::unique_ptr<core::BatchNacu>> engines;
        double best_s;
      };
      std::vector<SweepCell> cells;
      for (const auto& [backend, backend_name] : sweep_backends) {
        for (const ModeRow& mode : modes) {
          for (const std::size_t configs : {std::size_t{1}, std::size_t{4},
                                            std::size_t{8}}) {
            SweepCell cell{backend_name, mode.name,   configs,
                           kRoundsAtOne / configs, 0, {},
                           1e100};
            core::BatchNacu::Options opts;
            opts.parallel_threshold = ~std::size_t{0};
            opts.backend = backend;
            opts.table_mode = mode.mode;
            for (std::size_t c = 0; c < configs; ++c) {
              cell.engines.push_back(std::make_unique<core::BatchNacu>(
                  core::config_for_bits(16, kSweepLutEntries[c]), opts));
              cell.engines.back()->warm(core::BatchNacu::Function::Sigmoid);
              cell.engines.back()->warm(core::BatchNacu::Function::Tanh);
              cell.resident += cell.engines.back()->table_resident_bytes(
                                   core::BatchNacu::Function::Sigmoid) +
                               cell.engines.back()->table_resident_bytes(
                                   core::BatchNacu::Function::Tanh);
            }
            cells.push_back(std::move(cell));
          }
        }
      }
      const auto run_cell = [&](SweepCell& cell) {
        for (std::size_t round = 0; round < cell.rounds; ++round) {
          for (std::size_t c = 0; c < cell.configs; ++c) {
            cell.engines[c]->evaluate(core::BatchNacu::Function::Sigmoid,
                                      chunk, chunk_out);
            cell.engines[c]->evaluate(core::BatchNacu::Function::Tanh,
                                      chunk, chunk_out);
          }
        }
        benchmark::DoNotOptimize(chunk_out.data());
      };
      for (int pass = 0; pass < 5; ++pass) {
        for (SweepCell& cell : cells) {
          run_cell(cell);
          const auto t0 = Clock::now();
          run_cell(cell);
          cell.best_s = std::min(
              cell.best_s,
              std::chrono::duration<double>(Clock::now() - t0).count());
        }
      }
      for (const SweepCell& cell : cells) {
        const std::size_t swept = cell.rounds * cell.configs * 2 * kChunk;
        std::printf("  %-8s %-6s %8zu %12zu %12.3e\n", cell.backend_name,
                    cell.mode_name, cell.configs, cell.resident / 1024,
                    static_cast<double>(swept) / cell.best_s);
        std::string label = "sweep-";
        label += cell.backend_name;
        label += '-';
        label += cell.mode_name;
        record("sweep", label.c_str(), 1, swept, cell.best_s, cell.resident,
               cell.configs);
      }
    }
    std::printf("  (activation table: %zu KiB dense / %zu KiB resident per "
                "function; simd backend %s; pool size %zu)\n",
                parallel.table_bytes() / 1024,
                parallel.table_resident_bytes(
                    core::BatchNacu::Function::Sigmoid) /
                    1024,
                simd_name, pool_threads);
    if (writer.write("BENCH_throughput.json")) {
      std::printf("  wrote BENCH_throughput.json\n\n");
    } else {
      std::printf("  FAILED to write BENCH_throughput.json\n\n");
    }
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (metrics) {
    std::printf("\n--- metrics ---\n%s", obs::registry().to_json().c_str());
  }
  return 0;
}
