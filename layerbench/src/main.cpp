// Layered request-path benchmark: drives one workload through the public
// entry points of net, serve and core, checks every result bit against a
// reference core::BatchNacu, and prints the metrics named in
// BENCHMARK.json. The last line of standard output is one JSON object.
//
//   layerbench --workload <edge_small|edge_wide|serve_direct> --seed <n>
//              --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics over one closed-loop window of
// --seconds after a one-second warm-up, untraced; set-up time as the
// fastest of kSetupReps + 1 stack constructions around it.
//
// --trace 1 measures the per-layer metrics: the workload's own entry point
// untraced and then traced (their throughput ratio is the tracing
// overhead), a traced replay of the same payloads on the other transport
// (TCP or in-process submit), a traced core::BatchNacu replay, and
// per-element timings of the wire encoders and engine entry points. Spans
// are recorded only here, around each public call, and written to
// .bench_build/traces/<workload>-seed<n>.json (Chrome trace format, under
// the working directory) at the end.
//
// Exit status: 0 on a completed run with every result bit-identical to the
// reference; 1 when any result was wrong; 2 on bad arguments or a failure
// to set up.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "layers.hpp"
#include "record.hpp"
#include "rungs.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace layerbench;
using nacu::core::BatchNacu;

constexpr std::size_t kSetupReps = 96;
constexpr double kWarmupS = 1.0;
constexpr std::size_t kSpanRing = std::size_t{1} << 14;
constexpr std::size_t kSpanSamples = std::size_t{1} << 16;
constexpr const char* kTraceDir = ".bench_build/traces";

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key{argv[i]};
    const std::string_view value{argv[i + 1]};
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = find_workload(value);
    } else if (key == "--seed") {
      args.seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != argv[i + 1] && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(argv[i + 1], &end);
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload == nullptr || !have_seed ||
      !have_trace || !(args.seconds > 0.0 && args.seconds <= 120.0)) {
    return std::nullopt;
  }
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof buffer,
                    std::isfinite(value) ? value : 0.0);
  return ec == std::errc{} ? std::string(buffer, end) : std::string{"0"};
}

/// Human-readable lines, then the one-line JSON result.
void report(const std::vector<Metric>& metrics, bool correct,
            std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = std::string{"{\"correct\": "} +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

const char* table_kind_name(nacu::simd::TableKind kind) {
  switch (kind) {
    case nacu::simd::TableKind::Dense: return "dense";
    case nacu::simd::TableKind::HalfSigmoid: return "half_sigmoid";
    case nacu::simd::TableKind::HalfOdd: return "half_odd";
    case nacu::simd::TableKind::Pwl: return "pwl";
  }
  return "unknown";
}

/// What a result depends on besides the code: runs whose identity differs
/// (another ISA, another table layout) are not comparable.
std::string identity(const Args& args, const BatchNacu& engine) {
  return std::string{"{\"workload\": \""} + std::string{args.workload->name} +
         "\", \"seed\": " + std::to_string(args.seed) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"backend\": \"" + nacu::simd::backend_name(engine.backend()) +
         "\", \"table_kind\": {\"sigmoid\": \"" +
         table_kind_name(engine.table_kind(Function::Sigmoid)) +
         "\", \"tanh\": \"" + table_kind_name(engine.table_kind(Function::Tanh)) +
         "\", \"exp\": \"" + table_kind_name(engine.table_kind(Function::Exp)) +
         "\"}}";
}

/// A window of @p length_s starting @p warmup_s from now, cut into
/// one-second slices; rates and percentiles are medians over the slices.
Window window_after(double warmup_s, double length_s) {
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now() + seconds(warmup_s);
  return Window{start, start + seconds(length_s), slices_for(length_s)};
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// p50 in µs of @p name's spans across every log.
double span_p50_us(const std::vector<SpanLog>& logs, SpanName name) {
  std::vector<std::uint32_t> samples;
  for (const SpanLog& log : logs) {
    log.durations(name).append_to(samples);
  }
  return quantile(samples, 0.5) / 1e3;
}

double user_us(const Usage& u) { return u.user_s * 1e6; }
double sys_us(const Usage& u) { return u.sys_s * 1e6; }
double cpu_us(const Usage& u) { return (u.user_s + u.sys_s) * 1e6; }
double ctx_switches(const Usage& u) { return u.ctx_switches; }

double per(double numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : numerator / static_cast<double>(denominator);
}

RungResult run_entry(const Workload& w, bool over_tcp,
                     const std::vector<Payload>& pool, Stack& stack,
                     Window window, std::vector<Tally> tallies,
                     std::vector<SpanLog>* logs) {
  return over_tcp ? run_tcp(w, pool, stack, window, std::move(tallies), logs)
                  : run_serve(w, pool, *stack.inference, window,
                              std::move(tallies), logs);
}

int finish(const std::vector<Metric>& metrics, const RungResult& total) {
  const bool correct = total.wrong == 0 && total.attempted > 0;
  report(metrics, correct, total.attempted, total.failed);
  if (total.wrong > 0) {
    std::fprintf(stderr, "layerbench: %llu results differ from the reference\n",
                 static_cast<unsigned long long>(total.wrong));
  }
  return correct ? 0 : 1;
}

int run_end_to_end(const Args& args, const nacu::core::NacuConfig& config,
                   const std::vector<Payload>& pool) {
  const Workload& w = *args.workload;
  RungResult total;
  // Set-up is timed kSetupReps times, half before the measured window and
  // half after it, plus the stack the window runs on; the fastest is
  // reported. The host's vCPUs have slow stretches of seconds, and set-ups
  // taken on both sides of the window are less likely to all fall in one.
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    const Clock::time_point start = Clock::now();
    Stack stack = make_stack(config, w.over_tcp, w.threads);
    setup_s.push_back(seconds_since(start));
    return stack;
  };
  const auto time_setups = [&](std::size_t reps) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Stack stack = time_setup();
      RungResult idle;
      finish_stack(stack, idle);
      total.absorb_failures(idle);
    }
  };
  time_setups(kSetupReps / 2);

  // The sample buffers are made, and what earlier stacks and the reference
  // engine freed is given back, before the resident baseline; the stack is
  // built after it. The window's peak resident size less the baseline is
  // then the memory the stack and its load hold, not the benchmark's own.
  std::vector<Tally> tallies = make_tallies(w.threads, slices_for(args.seconds));
  malloc_trim(0);
  const double resident_before = resident_mib();
  Stack stack = time_setup();
  std::printf("identity %s\n", identity(args, stack.inference->engine()).c_str());
  RungResult run = run_entry(w, w.over_tcp, pool, stack,
                             window_after(kWarmupS, args.seconds),
                             std::move(tallies), nullptr);
  finish_stack(stack, run);
  total.absorb_failures(run);
  time_setups(kSetupReps / 2);

  std::printf("layerbench %s: %llu completed in a %.3g s window after %.3g s "
              "warm-up; latency percentiles from %zu raw samples of %llu\n",
              std::string{w.name}.c_str(),
              static_cast<unsigned long long>(run.completed), args.seconds,
              kWarmupS, run.samples_kept(),
              static_cast<unsigned long long>(run.samples_seen()));
  std::printf("  per-slice req/s:");
  for (const Slice& slice : run.slices) {
    std::printf(" %.0f", static_cast<double>(slice.completed) / slice.seconds);
  }
  // The serve counters that fail a request without a wrong bit: the
  // watchdog declares a shard whose dispatcher is descheduled for 50 ms
  // stalled and requeues its work, and a requeue past the retry budget
  // fails the request.
  std::printf("\n  serve stalls %llu, retried %llu, retry_exhausted %llu, "
              "rejected_overload %llu",
              static_cast<unsigned long long>(run.counters.stalls),
              static_cast<unsigned long long>(run.counters.retried),
              static_cast<unsigned long long>(run.counters.retry_exhausted),
              static_cast<unsigned long long>(run.counters.rejected_overload));
  std::printf("\n  set-up s:");
  for (const double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  const double success =
      1.0 - per(static_cast<double>(total.failed), total.attempted);
  return finish(
      {
          {"throughput_rps", run.throughput(), "req/s"},
          {"latency_p50_us", run.latency_us(0.50), "us"},
          {"latency_p99_us", run.latency_us(0.99), "us"},
          {"cpu_us_per_req", run.per_request(cpu_us), "us"},
          {"success_frac", success, "ratio"},
          {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
          {"peak_rss_mb", run.peak_resident_mib - resident_before, "MiB"},
      },
      total);
}

std::vector<SpanLog> make_logs(Clock::time_point epoch, std::uint32_t rung,
                               std::size_t threads) {
  std::vector<SpanLog> logs;
  logs.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    logs.emplace_back(epoch, rung * 16 + static_cast<std::uint32_t>(t),
                      kSpanRing, kSpanSamples);
  }
  return logs;
}

/// Write every rung's spans as Chrome trace events (one process per rung).
void write_spans(const std::string& path, const std::string& identity_json,
                 const std::vector<std::pair<const char*, const std::vector<SpanLog>*>>& rungs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "layerbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\"otherData\": %s, \"traceEvents\": [\n",
               identity_json.c_str());
  bool first = true;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    std::fprintf(file,
                 "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %zu, "
                 "\"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", r, rungs[r].first);
    first = false;
    for (const SpanLog& log : *rungs[r].second) {
      for (const Span& s : log.spans()) {
        std::fprintf(file,
                     ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                     span_name(s.name), r, log.thread(),
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
      }
    }
  }
  std::fprintf(file, "\n]}\n");
  std::fclose(file);
}

int run_traced(const Args& args, const nacu::core::NacuConfig& config,
               const std::vector<Payload>& pool) {
  const Workload& w = *args.workload;
  const Clock::time_point epoch = Clock::now();
  const double segment = std::max(0.5, args.seconds / 4.0);
  const std::size_t slices = slices_for(segment);
  RungResult total;

  // The workload's own entry point: untraced, then traced, on one stack.
  Stack stack = make_stack(config, w.over_tcp, w.threads);
  const double table_resident_bytes =
      static_cast<double>(BatchNacu::live_table_bytes());
  const std::string identity_json = identity(args, stack.inference->engine());
  std::printf("identity %s\n", identity_json.c_str());
  RungResult untraced = run_entry(w, w.over_tcp, pool, stack,
                                  window_after(0.5, segment),
                                  make_tallies(w.threads, slices), nullptr);
  std::vector<SpanLog> entry_logs = make_logs(epoch, 0, w.threads);
  RungResult traced = run_entry(w, w.over_tcp, pool, stack,
                                window_after(0.2, segment),
                                make_tallies(w.threads, slices), &entry_logs);
  finish_stack(stack, traced);
  total.absorb_failures(untraced);
  total.absorb_failures(traced);

  // The same payloads on the other transport, so both the TCP and the
  // in-process round trip exist for every workload.
  Stack other_stack = make_stack(config, !w.over_tcp, w.threads);
  std::vector<SpanLog> other_logs = make_logs(epoch, 1, w.threads);
  RungResult other = run_entry(w, !w.over_tcp, pool, other_stack,
                               window_after(0.5, segment),
                               make_tallies(w.threads, slices), &other_logs);
  finish_stack(other_stack, other);
  total.absorb_failures(other);

  const RungResult& tcp = w.over_tcp ? traced : other;
  const RungResult& in_process = w.over_tcp ? other : traced;
  const std::vector<SpanLog>& tcp_logs = w.over_tcp ? entry_logs : other_logs;
  const std::vector<SpanLog>& serve_logs = w.over_tcp ? other_logs : entry_logs;

  // One layer further down: the engine alone, then per-element costs.
  const BatchNacu engine{config, serving_options().batch_options};
  for (const Function f : {Function::Sigmoid, Function::Tanh, Function::Exp}) {
    engine.warm(f);
  }
  std::vector<SpanLog> core_logs = make_logs(epoch, 2, 1);
  const auto core_end = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(args.seconds / 8.0));
  RungResult core = run_core(pool, engine, core_end, core_logs[0]);
  total.absorb_failures(core);

  const auto& counters = traced.counters;
  const double avg_group =
      per(static_cast<double>(counters.completed), counters.dispatches);
  const WireCost wire = measure_wire(pool, args.seconds / 16.0);
  const CoreCost core_cost =
      measure_core(pool, engine, avg_group, args.seconds / 8.0);
  const double table_build_ms = measure_table_build_ms(config, 3);

  const double net_roundtrip = tcp.latency_us(0.5);
  const double serve_roundtrip = in_process.latency_us(0.5);
  const double core_call = span_p50_us(core_logs, SpanName::CoreCall);

  std::filesystem::create_directories(kTraceDir);
  write_spans(std::string{kTraceDir} + "/" + std::string{w.name} + "-seed" +
                  std::to_string(args.seed) + ".json",
              identity_json,
              {{w.over_tcp ? "tcp" : "serve", &entry_logs},
               {w.over_tcp ? "serve" : "tcp", &other_logs},
               {"core", &core_logs}});
  std::printf("where one request's time goes (%s, p50 us): TCP round trip "
              "%.2f = net %.2f + serve %.2f + core %.2f\n",
              std::string{w.name}.c_str(), net_roundtrip,
              net_roundtrip - serve_roundtrip, serve_roundtrip - core_call,
              core_call);
  return finish(
      {
          {"net.roundtrip_us", net_roundtrip, "us"},
          {"net.client.send_us", span_p50_us(tcp_logs, SpanName::ClientSend), "us"},
          {"net.client.read_us", span_p50_us(tcp_logs, SpanName::ClientRead), "us"},
          {"net.self_us", net_roundtrip - serve_roundtrip, "us"},
          {"net.wire.request_bytes_per_elem", wire.request_bytes_per_elem, "B/elem"},
          {"net.wire.response_bytes_per_elem", wire.response_bytes_per_elem, "B/elem"},
          {"net.wire.encode_ns_per_elem", wire.encode_ns_per_elem, "ns/elem"},
          {"net.frames_read", static_cast<double>(tcp.net_stats.frames_read), "count"},
          {"net.responses_written",
           static_cast<double>(tcp.net_stats.responses_written), "count"},
          {"net.protocol_errors",
           static_cast<double>(tcp.net_stats.protocol_errors), "count"},
          {"net.write_failures",
           static_cast<double>(tcp.net_stats.write_failures), "count"},
          {"proc.user_us_per_req", untraced.per_request(user_us), "us"},
          {"proc.sys_us_per_req", untraced.per_request(sys_us), "us"},
          {"proc.ctx_switches_per_req", untraced.per_request(ctx_switches),
           "count"},
          {"serve.submit_us", span_p50_us(serve_logs, SpanName::ServeSubmit), "us"},
          {"serve.roundtrip_us", serve_roundtrip, "us"},
          {"serve.self_us", serve_roundtrip - core_call, "us"},
          {"serve.avg_group", avg_group, "count"},
          {"serve.dispatches", static_cast<double>(counters.dispatches), "count"},
          {"serve.steals", static_cast<double>(counters.steals), "count"},
          {"serve.rejected_overload",
           static_cast<double>(counters.rejected_overload), "count"},
          {"serve.degraded_requests",
           static_cast<double>(counters.degraded_requests), "count"},
          {"core.request_us", core_call, "us"},
          {"core.evaluate_ns_per_elem", core_cost.evaluate_ns_per_elem, "ns/elem"},
          {"core.evaluate_group_ns_per_elem", core_cost.evaluate_group_ns_per_elem,
           "ns/elem"},
          {"core.evaluate_raw_ns_per_elem", core_cost.evaluate_raw_ns_per_elem,
           "ns/elem"},
          {"core.softmax_ns_per_elem", core_cost.softmax_ns_per_elem, "ns/elem"},
          {"core.table_build_ms", table_build_ms, "ms"},
          {"core.table_resident_bytes", table_resident_bytes, "B"},
          {"trace.overhead_frac",
           1.0 - traced.throughput() / std::max(untraced.throughput(), 1e-9),
           "ratio"},
      },
      total);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: layerbench --workload <edge_small|edge_wide|"
                 "serve_direct> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    const nacu::core::NacuConfig config = nacu::core::config_for_bits(16);
    const std::vector<Payload> pool =
        make_pool(*args->workload, config, args->seed);
    return args->trace ? run_traced(*args, config, pool)
                       : run_end_to_end(*args, config, pool);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "layerbench: %s\n", error.what());
    return 2;
  }
}
