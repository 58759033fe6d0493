// The workloads, their seeded payload pools, and the closed-loop loads
// ("rungs") that push a pool through one layer's public entry point:
//
//   run_tcp    net::Client → NetServer → InferenceServer → BatchNacu
//   run_serve  InferenceServer::submit → BatchNacu
//   run_core   BatchNacu::evaluate / softmax
//
// A traced run replays the same pool on each rung, so a layer's self time
// is the difference between the p50 round trips of adjacent rungs.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/batch_nacu.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "record.hpp"
#include "serve/server.hpp"

namespace layerbench {

using Function = nacu::core::BatchNacu::Function;

struct Workload {
  std::string_view name;
  bool over_tcp = true;       ///< entry point: the TCP edge, else submit()
  std::size_t threads = 1;    ///< generator threads (one connection each)
  std::size_t window = 1;     ///< requests in flight per thread
  std::size_t elements = 8;   ///< values per request
  std::size_t softmax_every = 0;  ///< every n-th request is a softmax row
  std::size_t pool_requests = 0;  ///< distinct payloads, cycled
};

/// edge_small, edge_wide, serve_direct; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// One request of a pool, with the result the reference engine gave for it.
struct Payload {
  bool softmax = false;
  Function function = Function::Sigmoid;
  std::vector<nacu::fp::Fixed> input;
  std::vector<std::int64_t> raws;      ///< input as datapath raws
  std::vector<std::int64_t> expected;  ///< reference result raws
};

/// Uniform random raws over the whole datapath format, functions drawn
/// uniformly from σ/tanh/exp, from @p seed alone; expected bits computed by
/// a fresh core::BatchNacu that is destroyed before this returns.
[[nodiscard]] std::vector<Payload> make_pool(const Workload& workload,
                                             const nacu::core::NacuConfig& config,
                                             std::uint64_t seed);

/// The serving configuration under every rung: bench_e2e's 2-shard
/// adaptive-batching setup.
[[nodiscard]] nacu::serve::ServerOptions serving_options();

/// A server stack: InferenceServer, and over TCP a NetServer with one
/// connected Client (Hello read) per generator thread.
struct Stack {
  std::unique_ptr<nacu::serve::InferenceServer> inference;
  std::unique_ptr<nacu::net::NetServer> net;
  std::vector<std::unique_ptr<nacu::net::Client>> clients;
};
[[nodiscard]] Stack make_stack(const nacu::core::NacuConfig& config,
                               bool over_tcp, std::size_t clients);

/// When to start and stop counting: requests keep flowing from the rung's
/// start, but only results that complete inside [start, end) are counted,
/// each in one of `slices` equal slices of the window.
struct Window {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t slices = 1;
};

/// One-second slices for a window of @p seconds.
[[nodiscard]] std::size_t slices_for(double seconds);

/// One generator thread's tallies over a window: its counters, and per
/// slice the completions and a latency sample. The sample buffers are
/// filled with zeros when the tally is made, so a tally made before a
/// stack is built keeps its memory out of what that stack adds.
struct Tally {
  Tally(std::size_t thread, std::size_t slices);

  Window window;
  std::int64_t window_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<std::uint64_t> completed;  ///< per slice
  std::vector<Reservoir> latency;        ///< per slice

  /// Account one answered request: its result bits against the reference,
  /// and its latency in the slice it completed in, if any.
  void settle(bool answered, bool bits_match, Clock::time_point sent,
              Clock::time_point done);
};

/// One Tally per generator thread, for a window of @p slices slices.
[[nodiscard]] std::vector<Tally> make_tallies(std::size_t threads,
                                              std::size_t slices);

/// One slice of a window: what completed in it and what it cost.
struct Slice {
  std::uint64_t completed = 0;
  double seconds = 0.0;
  Usage usage;  ///< process usage over the slice
  std::vector<std::uint32_t> latency_ns;  ///< sampled, every thread merged
  std::uint64_t latency_seen = 0;         ///< latencies the sample drew from
};

/// What one rung saw. Failures count error responses, refused submits,
/// wrong results, unanswered requests and broken server invariants; wrong
/// counts results whose bits differ from the reference.
///
/// Rates and percentiles are medians over the window's slices, so a burst
/// of interference from outside the process moves one slice, not the run.
struct RungResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t completed = 0;  ///< results verified inside the window
  /// Highest process resident size sampled at the window's slice edges.
  double peak_resident_mib = 0.0;
  std::vector<Slice> slices;
  nacu::net::NetServer::Stats net_stats{};
  nacu::serve::InferenceServer::Counters counters{};

  /// Median over slices of completions per second.
  [[nodiscard]] double throughput() const;
  /// Median over slices of the slice's latency quantile @p q, in µs.
  [[nodiscard]] double latency_us(double q) const;
  /// Median over slices of @p part(slice usage) ÷ slice completions.
  [[nodiscard]] double per_request(double (*part)(const Usage&)) const;
  /// Latency samples kept and drawn from, over every slice.
  [[nodiscard]] std::size_t samples_kept() const;
  [[nodiscard]] std::uint64_t samples_seen() const;

  void absorb_failures(const RungResult& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
};

/// Closed loop over the stack's clients, one generator thread per tally
/// (@p tallies holds workload.threads, each of window.slices slices).
/// @p logs, when non-null, holds one SpanLog per thread and turns tracing
/// on.
[[nodiscard]] RungResult run_tcp(const Workload& workload,
                                 const std::vector<Payload>& pool,
                                 Stack& stack, Window window,
                                 std::vector<Tally> tallies,
                                 std::vector<SpanLog>* logs);

/// Closed loop straight into InferenceServer::submit / submit_softmax.
[[nodiscard]] RungResult run_serve(const Workload& workload,
                                   const std::vector<Payload>& pool,
                                   nacu::serve::InferenceServer& server,
                                   Window window, std::vector<Tally> tallies,
                                   std::vector<SpanLog>* logs);

/// The pool's requests one after another on @p engine until @p end, each
/// call traced into @p log.
[[nodiscard]] RungResult run_core(const std::vector<Payload>& pool,
                                  const nacu::core::BatchNacu& engine,
                                  Clock::time_point end, SpanLog& log);

/// Shut the stack down (clients half-close and drain, then the NetServer
/// and InferenceServer), record its final stats into @p result and count
/// every broken drain invariant as a failure.
void finish_stack(Stack& stack, RungResult& result);

}  // namespace layerbench
