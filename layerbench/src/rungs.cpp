#include "rungs.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <exception>
#include <future>
#include <random>
#include <stdexcept>
#include <thread>

namespace layerbench {

namespace fp = nacu::fp;
namespace net = nacu::net;
namespace serve = nacu::serve;
using nacu::core::BatchNacu;

namespace {

// Workload shapes; README.md gives the reasons. Pools are large enough
// that the payloads cycled through do not sit in one set of table lines.
constexpr std::array<Workload, 3> kWorkloads{{
    {"edge_small", true, 1, 16, 8, 0, 4096},
    {"edge_wide", true, 1, 4, 1024, 4, 256},
    {"serve_direct", false, 2, 128, 8, 0, 4096},
}};

/// Latency samples kept per generator thread, split evenly over slices.
constexpr std::size_t kLatencySamples = std::size_t{1} << 20;
bool bits_match(const std::vector<fp::Fixed>& values,
                const std::vector<std::int64_t>& expected) {
  return values.size() == expected.size() &&
         std::equal(values.begin(), values.end(), expected.begin(),
                    [](const fp::Fixed& v, std::int64_t e) {
                      return v.raw() == e;
                    });
}

/// Spawn one generator per tally, snapshot process usage and resident size
/// at every slice edge, join, and merge.
template <typename Body>
RungResult drive(std::vector<Tally>& tallies, Window window, Body body) {
  const std::size_t threads = tallies.size();
  for (Tally& tally : tallies) {
    if (tally.completed.size() != window.slices) {
      throw std::logic_error{"tally made for another slice count"};
    }
    tally.window = window;
    tally.window_ns = ns_between(window.start, window.end);
  }
  std::vector<std::thread> generators;
  generators.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    generators.emplace_back([&, t] {
      try {
        body(t, tallies[t]);
      } catch (const std::exception&) {
        ++tallies[t].failed;
      }
    });
  }
  const auto slice_length = (window.end - window.start) /
                            static_cast<std::int64_t>(window.slices);
  std::vector<Usage> edges;
  double peak_resident = 0.0;
  for (std::size_t s = 0; s <= window.slices; ++s) {
    std::this_thread::sleep_until(
        s == window.slices ? window.end
                           : window.start + slice_length * static_cast<std::int64_t>(s));
    edges.push_back(Usage::now());
    peak_resident = std::max(peak_resident, resident_mib());
  }
  for (std::thread& generator : generators) {
    generator.join();
  }

  RungResult result;
  result.peak_resident_mib = peak_resident;
  result.slices.resize(window.slices);
  for (std::size_t s = 0; s < window.slices; ++s) {
    Slice& slice = result.slices[s];
    slice.seconds = std::chrono::duration<double>(slice_length).count();
    slice.usage = edges[s + 1] - edges[s];
    for (const Tally& tally : tallies) {
      slice.completed += tally.completed[s];
      slice.latency_seen += tally.latency[s].seen();
      tally.latency[s].append_to(slice.latency_ns);
    }
    result.completed += slice.completed;
  }
  for (const Tally& tally : tallies) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    result.wrong += tally.wrong;
  }
  return result;
}

}  // namespace

std::size_t slices_for(double seconds) {
  return static_cast<std::size_t>(std::clamp(std::round(seconds), 1.0, 120.0));
}

Tally::Tally(std::size_t thread, std::size_t slices) : completed(slices, 0) {
  latency.reserve(slices);
  for (std::size_t s = 0; s < slices; ++s) {
    latency.emplace_back(kLatencySamples / slices, (thread + 1) * 1000003 + s);
  }
}

void Tally::settle(bool answered, bool bits_match, Clock::time_point sent,
                   Clock::time_point done) {
  if (!answered) {
    ++failed;
    return;
  }
  if (!bits_match) {
    ++wrong;
    ++failed;
    return;
  }
  if (done < window.start || done >= window.end) {
    return;
  }
  const auto slice = static_cast<std::size_t>(
      ns_between(window.start, done) *
      static_cast<std::int64_t>(window.slices) / window_ns);
  ++completed[slice];
  latency[slice].add(ns_between(sent, done));
}

std::vector<Tally> make_tallies(std::size_t threads, std::size_t slices) {
  std::vector<Tally> tallies;
  tallies.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    tallies.emplace_back(t, slices);
  }
  return tallies;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

std::vector<Payload> make_pool(const Workload& workload,
                               const nacu::core::NacuConfig& config,
                               std::uint64_t seed) {
  const fp::Format format = config.format;
  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<std::int64_t> raw_dist{format.min_raw(),
                                                       format.max_raw()};
  std::uniform_int_distribution<int> function_dist{0, 2};

  BatchNacu reference{config};
  for (const Function f : {Function::Sigmoid, Function::Tanh, Function::Exp}) {
    reference.warm(f);
  }
  std::vector<Payload> pool(workload.pool_requests);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Payload& p = pool[i];
    p.softmax = workload.softmax_every > 0 &&
                i % workload.softmax_every == workload.softmax_every - 1;
    p.function = static_cast<Function>(function_dist(rng));
    p.raws.resize(workload.elements);
    p.input.reserve(workload.elements);
    for (std::int64_t& raw : p.raws) {
      raw = raw_dist(rng);
      p.input.push_back(fp::Fixed::from_raw(raw, format));
    }
    const std::vector<fp::Fixed> out = p.softmax
                                           ? reference.softmax(p.input)
                                           : reference.evaluate(p.function,
                                                                p.input);
    p.expected.reserve(out.size());
    for (const fp::Fixed& v : out) {
      p.expected.push_back(v.raw());
    }
  }
  return pool;
}

serve::ServerOptions serving_options() {
  serve::ServerOptions options;
  options.shards = 2;
  options.work_stealing = true;
  options.batcher.max_batch = 256;
  options.batcher.max_wait = std::chrono::microseconds{50};
  options.batcher.queue_capacity = 1 << 16;
  return options;
}

Stack make_stack(const nacu::core::NacuConfig& config, bool over_tcp,
                 std::size_t clients) {
  Stack stack;
  stack.inference =
      std::make_unique<serve::InferenceServer>(config, serving_options());
  if (over_tcp) {
    stack.net = std::make_unique<net::NetServer>(*stack.inference);
    for (std::size_t c = 0; c < clients; ++c) {
      stack.clients.push_back(
          std::make_unique<net::Client>(stack.net->port()));
      if (!stack.clients.back()->valid()) {
        throw std::runtime_error{"client could not connect or read Hello"};
      }
    }
  }
  return stack;
}

RungResult run_tcp(const Workload& workload, const std::vector<Payload>& pool,
                   Stack& stack, Window window, std::vector<Tally> tallies,
                   std::vector<SpanLog>* logs) {
  return drive(tallies, window, [&](std::size_t t, Tally& tally) {
    net::Client& client = *stack.clients[t];
    SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
    struct InFlight {
      std::size_t index;
      std::uint64_t id;
      std::uint64_t span;
      Clock::time_point sent;
    };
    std::deque<InFlight> in_flight;
    std::size_t next = t * pool.size() / workload.threads;
    bool broken = false;
    Clock::time_point now = Clock::now();
    while (true) {
      while (!broken && in_flight.size() < workload.window &&
             now < window.end) {
        const std::size_t index = next++ % pool.size();
        const Payload& p = pool[index];
        const std::uint64_t span = log != nullptr ? log->reserve_id() : 0;
        const Clock::time_point sent = now;
        const std::uint64_t id = p.softmax
                                     ? client.send_softmax(p.input)
                                     : client.send_submit(p.function, p.input);
        now = Clock::now();
        ++tally.attempted;
        if (log != nullptr) {
          log->record(SpanName::ClientSend, span, span, sent, now);
        }
        if (id == 0) {
          ++tally.failed;
          broken = true;
          break;
        }
        in_flight.push_back({index, id, span, sent});
      }
      if (in_flight.empty()) {
        break;
      }
      const Clock::time_point read_start = Clock::now();
      const std::optional<net::Client::Response> response =
          client.read_response();
      now = Clock::now();
      if (!response.has_value()) {
        tally.failed += in_flight.size();
        break;
      }
      const InFlight request = in_flight.front();
      in_flight.pop_front();
      if (log != nullptr) {
        log->record(SpanName::ClientRead, request.span, request.span,
                    read_start, now);
        log->record(request.span, SpanName::Request, 0, request.span,
                    request.sent, now);
      }
      tally.settle(response->ok(),
                   response->id == request.id &&
                       bits_match(response->values, pool[request.index].expected),
                   request.sent, now);
    }
  });
}

RungResult run_serve(const Workload& workload, const std::vector<Payload>& pool,
                     serve::InferenceServer& server, Window window,
                     std::vector<Tally> tallies, std::vector<SpanLog>* logs) {
  return drive(tallies, window, [&](std::size_t t, Tally& tally) {
    SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
    struct Pending {
      std::future<std::vector<fp::Fixed>> future;
      std::size_t index;
      std::uint64_t span;
      Clock::time_point sent;
    };
    std::deque<Pending> pending;
    std::size_t next = t * pool.size() / workload.threads;
    Clock::time_point now = Clock::now();
    while (true) {
      while (pending.size() < workload.window && now < window.end) {
        const std::size_t index = next++ % pool.size();
        const Payload& p = pool[index];
        const std::uint64_t span = log != nullptr ? log->reserve_id() : 0;
        const Clock::time_point sent = now;
        std::vector<fp::Fixed> input = p.input;
        const Clock::time_point submit_start = Clock::now();
        ++tally.attempted;
        std::future<std::vector<fp::Fixed>> future;
        try {
          future = p.softmax ? server.submit_softmax(std::move(input))
                             : server.submit(p.function, std::move(input));
        } catch (const std::exception&) {
          ++tally.failed;
          now = Clock::now();
          continue;
        }
        now = Clock::now();
        if (log != nullptr) {
          log->record(SpanName::ServeSubmit, span, span, submit_start, now);
        }
        pending.push_back({std::move(future), index, span, sent});
      }
      if (pending.empty()) {
        break;
      }
      Pending request = std::move(pending.front());
      pending.pop_front();
      const Clock::time_point wait_start = Clock::now();
      bool answered = true;
      std::vector<fp::Fixed> values;
      try {
        values = request.future.get();
      } catch (const std::exception&) {
        answered = false;
      }
      now = Clock::now();
      if (log != nullptr) {
        log->record(SpanName::ServeWait, request.span, request.span,
                    wait_start, now);
        log->record(request.span, SpanName::Request, 0, request.span,
                    request.sent, now);
      }
      tally.settle(answered, bits_match(values, pool[request.index].expected),
                   request.sent, now);
    }
  });
}

RungResult run_core(const std::vector<Payload>& pool, const BatchNacu& engine,
                    Clock::time_point end, SpanLog& log) {
  RungResult result;
  std::vector<fp::Fixed> out;
  std::size_t index = 0;
  for (Clock::time_point now = Clock::now(); now < end;) {
    const Payload& p = pool[index++ % pool.size()];
    out.assign(p.input.size(), fp::Fixed::zero(engine.format()));
    const Clock::time_point call_start = Clock::now();
    if (p.softmax) {
      out = engine.softmax(p.input);
    } else {
      engine.evaluate(p.function, p.input, out);
    }
    now = Clock::now();
    log.record(SpanName::CoreCall, 0, 0, call_start, now);
    ++result.attempted;
    if (bits_match(out, p.expected)) {
      ++result.completed;
    } else {
      ++result.wrong;
      ++result.failed;
    }
  }
  return result;
}

double RungResult::throughput() const {
  std::vector<double> rates;
  for (const Slice& slice : slices) {
    rates.push_back(static_cast<double>(slice.completed) / slice.seconds);
  }
  return median(std::move(rates));
}

double RungResult::latency_us(double q) const {
  std::vector<double> per_slice;
  for (const Slice& slice : slices) {
    std::vector<std::uint32_t> samples = slice.latency_ns;
    per_slice.push_back(quantile(samples, q) / 1e3);
  }
  return median(std::move(per_slice));
}

double RungResult::per_request(double (*part)(const Usage&)) const {
  std::vector<double> per_slice;
  for (const Slice& slice : slices) {
    if (slice.completed > 0) {
      per_slice.push_back(part(slice.usage) /
                          static_cast<double>(slice.completed));
    }
  }
  return median(std::move(per_slice));
}

std::size_t RungResult::samples_kept() const {
  std::size_t kept = 0;
  for (const Slice& slice : slices) {
    kept += slice.latency_ns.size();
  }
  return kept;
}

std::uint64_t RungResult::samples_seen() const {
  std::uint64_t seen = 0;
  for (const Slice& slice : slices) {
    seen += slice.latency_seen;
  }
  return seen;
}

void finish_stack(Stack& stack, RungResult& result) {
  if (stack.net) {
    for (const auto& client : stack.clients) {
      client->close_send();
      while (client->read_response().has_value()) {
        ++result.failed;  // a response nobody asked for
      }
    }
    stack.net->shutdown();
    const net::NetServer::Stats stats = stack.net->stats();
    result.net_stats = stats;
    result.failed += stats.write_failures;
    result.failed += stats.requests_submitted > stats.responses_written
                         ? stats.requests_submitted - stats.responses_written
                         : stats.responses_written - stats.requests_submitted;
  }
  stack.inference->shutdown();
  const serve::InferenceServer::Counters counters = stack.inference->counters();
  result.counters = counters;
  result.failed += counters.accepted > counters.completed
                       ? counters.accepted - counters.completed
                       : counters.completed - counters.accepted;
  stack.clients.clear();
  stack.net.reset();
  stack.inference.reset();
}

}  // namespace layerbench
