// Serving demo — the async inference API end to end.
//
// Spins up a sharded serve::InferenceServer over a 16-bit NACU, drives it
// from concurrent client threads with a mixed workload (activation
// batches and softmax rows, the NACU's own operations), then
// demonstrates the contracts the layer exists for: bit-identical results
// across dispatcher shards and micro-batching, an already-expired
// deadline rejected at submit, reject-with-error backpressure at the
// high-water mark, a graceful shutdown that drains every accepted
// request, a mid-flight single-event upset that is detected, quarantined
// and scrubbed with zero client-visible errors, and the same serving
// layer reached over real loopback TCP through the src/net/ wire
// protocol. Finishes by dumping each server's own metrics registry.
//
// Usage: ./build/examples/serving_demo
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_nacu.hpp"
#include "fault/fault_injector.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

/// Raws of @p got that differ from @p want; a length mismatch counts every
/// element as wrong.
int mismatches(const std::vector<nacu::fp::Fixed>& got,
               const std::vector<nacu::fp::Fixed>& want) {
  if (got.size() != want.size()) {
    return static_cast<int>(std::max(got.size(), want.size()));
  }
  int wrong = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    wrong += static_cast<int>(got[i].raw() != want[i].raw());
  }
  return wrong;
}

}  // namespace

int main() {
  using namespace nacu;
  using Function = core::BatchNacu::Function;

  obs::set_metrics_enabled(true);
  const core::NacuConfig config = core::config_for_bits(16);

  // 1. Mixed workload from concurrent clients across two dispatcher
  //    shards. Each submitting thread sticks to its home shard; each
  //    shard's dispatcher coalesces whatever is pending per wake
  //    (max_wait = 0: adaptive batching); idle shards steal from loaded
  //    neighbours. None of that can change the bits.
  serve::ServerOptions sharded;
  sharded.shards = 2;
  serve::InferenceServer server{config, sharded};
  const core::BatchNacu direct{config};

  std::vector<fp::Fixed> xs;
  for (double v = -4.0; v <= 4.0; v += 0.25) {
    xs.push_back(fp::Fixed::from_double(v, config.format));
  }
  // The same values double as one Eq. 13 softmax row.
  const std::vector<fp::Fixed> softmax_want = direct.softmax(xs);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 64;
  std::vector<std::thread> clients;
  std::vector<int> wrong(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto f = static_cast<Function>((c + r) % 3);
        auto future = server.submit(f, xs);
        auto row = server.submit_softmax(xs);
        wrong[c] += mismatches(future.get(), direct.evaluate(f, xs));
        wrong[c] += mismatches(row.get(), softmax_want);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  int total_mismatches = 0;
  for (const int m : wrong) {
    total_mismatches += m;
  }
  const auto counters = server.counters();
  std::printf("\n%d clients x %d rounds over 2 shards: %llu requests, "
              "%llu dispatch groups (avg %.1f req/group), %llu steals\n",
              kClients, kRequestsPerClient,
              static_cast<unsigned long long>(counters.accepted),
              static_cast<unsigned long long>(counters.dispatches),
              static_cast<double>(counters.completed) /
                  static_cast<double>(counters.dispatches),
              static_cast<unsigned long long>(counters.steals));
  std::printf("bit-identical to direct BatchNacu: %s\n",
              total_mismatches == 0 ? "yes (0 mismatching raws)" : "NO");

  // 2. Deadlines: a request whose deadline has already passed is rejected
  //    at submit with DeadlineExpiredError and never enqueued.
  serve::SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds{1};
  bool deadline_rejected = false;
  try {
    (void)server.submit(Function::Tanh, xs, expired);
  } catch (const serve::DeadlineExpiredError&) {
    deadline_rejected = true;
  }
  std::printf("\nadmission: already-expired deadline %s\n",
              deadline_rejected ? "throws DeadlineExpiredError"
                                : "NOT rejected");

  // 3. Backpressure: a tiny queue with flushing disabled fills to its
  //    high-water mark, then rejects with OverloadedError.
  serve::ServerOptions tight;
  tight.batcher.queue_capacity = 4;
  tight.batcher.max_batch = 1 << 20;               // never flush on size
  tight.batcher.max_wait = std::chrono::seconds{30};  // nor on age
  serve::InferenceServer small{config, tight};
  std::vector<std::future<std::vector<fp::Fixed>>> accepted;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      accepted.push_back(small.submit(Function::Sigmoid, xs));
    } catch (const serve::OverloadedError&) {
      ++rejected;
    }
  }
  std::printf("\nbackpressure: capacity 4 -> %zu accepted, %d rejected "
              "with OverloadedError\n", accepted.size(), rejected);

  // 4. Graceful shutdown drains the accepted four; later submits are
  //    refused with ShutdownError.
  small.shutdown();
  int drained = 0;
  for (auto& f : accepted) {
    drained += static_cast<int>(f.get().size() == xs.size());
  }
  bool shutdown_rejected = false;
  try {
    (void)small.submit(Function::Tanh, xs);
  } catch (const serve::ShutdownError&) {
    shutdown_rejected = true;
  }
  std::printf("shutdown: %d/4 accepted futures resolved by the drain; "
              "post-shutdown submit %s\n", drained,
              shutdown_rejected ? "throws ShutdownError" : "NOT refused");

  // 5. Self-healing: a single-event upset flips one bit of a dense table
  //    word mid-flight. Verify-before-release catches the corrupt word on
  //    the very request that reads it, the client still receives correct
  //    bits (scalar-path recompute), the function quarantines, and the
  //    supervisor scrubs the table and lifts the quarantine — zero
  //    client-visible errors end to end. (poke_supervisor() drives the
  //    recovery deterministically here; in production the watchdog thread
  //    does it within its 500 us interval.)
  fault::FaultInjector seu;
  serve::ServerOptions healing;
  healing.shards = 1;
  healing.resilience.supervise = false;  // poke by hand for a stable demo
  healing.resilience.shard_fault_ports = {&seu};
  serve::InferenceServer resilient{config, healing};

  const std::int64_t hit_raw = xs[xs.size() / 2].raw();
  const std::vector<fp::Fixed> healing_want =
      direct.evaluate(Function::Sigmoid, xs);
  seu.arm(fault::Fault{fault::Surface::TableSigmoid,
                       static_cast<std::size_t>(hit_raw -
                                                config.format.min_raw()),
                       5, fault::FaultModel::TransientSeu});
  const int seu_mismatches = mismatches(
      resilient.submit(Function::Sigmoid, xs).get(), healing_want);
  const serve::ShardHealthSnapshot hit = resilient.shard_health(0);
  std::printf("\nself-healing: SEU armed on the σ table word for raw %lld; "
              "served result had %d wrong elements (detections=%llu, "
              "quarantined mask=0x%x)\n",
              static_cast<long long>(hit_raw), seu_mismatches,
              static_cast<unsigned long long>(hit.detections),
              hit.quarantined);
  resilient.poke_supervisor();  // scrub-rebuild + re-verify + close circuit
  const serve::ShardHealthSnapshot healed = resilient.shard_health(0);
  const int after_mismatches = mismatches(
      resilient.submit(Function::Sigmoid, xs).get(), healing_want);
  const bool healed_ok = seu_mismatches == 0 && after_mismatches == 0 &&
                         hit.detections >= 1 && hit.quarantined != 0 &&
                         healed.quarantined == 0 && healed.scrubs == 1 &&
                         healed.state == serve::CircuitState::Closed;
  std::printf("self-healing: scrubbed (%llu scrub), quarantine lifted, "
              "circuit %s, post-recovery result %s\n",
              static_cast<unsigned long long>(healed.scrubs),
              serve::circuit_state_name(healed.state),
              after_mismatches == 0 ? "bit-identical" : "WRONG");
  resilient.shutdown();

  // 6. The same layer over the wire: a net::NetServer wraps an
  //    InferenceServer behind the length-prefixed TCP protocol
  //    (src/net/wire.hpp) on an ephemeral loopback port; a net::Client
  //    pipelines activation and softmax requests over one connection
  //    and responses stream back in submission order —
  //    bit-identical to direct evaluation, because the wire carries raw
  //    fixed-point words untouched. Shutdown drains the connection: every
  //    accepted request is answered before the socket closes.
  serve::ServerOptions wire_opts;
  wire_opts.shards = 2;
  serve::InferenceServer wire_inference{config, wire_opts};
  net::NetServer net_server{wire_inference};
  int wire_mismatches = -1;
  {
    net::Client client{net_server.port()};
    if (client.valid()) {
      wire_mismatches = 0;
      constexpr int kPipelined = 9;
      for (int r = 0; r < kPipelined; ++r) {
        (void)client.send_submit(static_cast<Function>(r % 3), xs);
      }
      const std::uint64_t softmax_id = client.send_softmax(xs);
      for (int r = 0; r < kPipelined; ++r) {
        const auto response = client.read_response();
        if (!response.has_value() || !response->ok()) {
          ++wire_mismatches;
          continue;
        }
        wire_mismatches += mismatches(
            response->values,
            direct.evaluate(static_cast<Function>(r % 3), xs));
      }
      const auto softmax_response = client.read_response();
      if (!softmax_response.has_value() || !softmax_response->ok() ||
          softmax_response->id != softmax_id) {
        ++wire_mismatches;
      } else {
        wire_mismatches += mismatches(softmax_response->values, softmax_want);
      }
      client.close_send();            // half-close: done submitting
      while (client.read_response().has_value()) {
      }                               // drain to EOF
    }
  }
  net_server.shutdown();
  const net::NetServer::Stats wire_stats = net_server.stats();
  std::printf("\nover TCP (port was %u): %llu frames in, %llu requests, "
              "%llu responses written, result %s\n",
              static_cast<unsigned>(net_server.port()),
              static_cast<unsigned long long>(wire_stats.frames_read),
              static_cast<unsigned long long>(wire_stats.requests_submitted),
              static_cast<unsigned long long>(wire_stats.responses_written),
              wire_mismatches == 0 ? "bit-identical" : "WRONG");

  // 7. The per-stage metrics: every server keeps its own registry.
  const std::pair<const char*, obs::Registry*> registries[] = {
      {"sharded", &server.metrics()},
      {"backpressure", &small.metrics()},
      {"self-healing", &resilient.metrics()},
      {"over-TCP inference", &wire_inference.metrics()},
      {"over-TCP edge", &net_server.metrics()}};
  for (const auto& [name, registry] : registries) {
    std::printf("\n%s server's obs registry:\n%s", name,
                registry->to_json().c_str());
  }
  return total_mismatches == 0 && shutdown_rejected && deadline_rejected &&
                 healed_ok && wire_mismatches == 0
             ? 0
             : 1;
}
