#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "net/wire.hpp"

namespace layerbench {

namespace fp = nacu::fp;
namespace net = nacu::net;
using nacu::core::BatchNacu;

namespace {

constexpr std::array<Function, 3> kFunctions{Function::Sigmoid, Function::Tanh,
                                             Function::Exp};

/// Median ns per element of @p pass (which handles @p elements elements),
/// repeated until @p budget_s is spent and at least five passes ran.
template <typename Pass>
double ns_per_elem(std::size_t elements, double budget_s, Pass pass) {
  if (elements == 0) {
    return 0.0;
  }
  std::vector<double> per_elem;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  while (per_elem.size() < 5 || Clock::now() < stop) {
    const Clock::time_point start = Clock::now();
    pass();
    per_elem.push_back(static_cast<double>(ns_between(start, Clock::now())) /
                       static_cast<double>(elements));
  }
  return median(per_elem);
}

}  // namespace

WireCost measure_wire(const std::vector<Payload>& pool, double budget_s) {
  WireCost cost;
  const net::WireSubmitOptions options;
  std::size_t elements = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  std::uint64_t id = 0;
  const auto encode = [&](const Payload& p) {
    ++id;
    const std::vector<std::uint8_t> request =
        p.softmax ? net::encode_submit_softmax(id, p.raws, options)
                  : net::encode_submit(id, static_cast<std::uint8_t>(p.function),
                                       p.raws, options);
    const std::vector<std::uint8_t> response =
        net::encode_result_fixed(id, p.expected);
    return std::pair{request.size(), response.size()};
  };
  for (const Payload& p : pool) {
    const auto [request, response] = encode(p);
    elements += p.raws.size();
    request_bytes += request;
    response_bytes += response;
  }
  cost.request_bytes_per_elem =
      static_cast<double>(request_bytes) / static_cast<double>(elements);
  cost.response_bytes_per_elem =
      static_cast<double>(response_bytes) / static_cast<double>(elements);
  cost.encode_ns_per_elem = ns_per_elem(elements, budget_s, [&] {
    for (const Payload& p : pool) {
      encode(p);
    }
  });
  return cost;
}

CoreCost measure_core(const std::vector<Payload>& pool, const BatchNacu& engine,
                      double group_requests, double budget_s) {
  const fp::Fixed zero = fp::Fixed::zero(engine.format());
  std::vector<const Payload*> activations;
  std::vector<const Payload*> rows;
  std::size_t activation_elems = 0;
  std::size_t row_elems = 0;
  std::size_t widest = 0;
  for (const Payload& p : pool) {
    (p.softmax ? rows : activations).push_back(&p);
    (p.softmax ? row_elems : activation_elems) += p.input.size();
    widest = std::max(widest, p.input.size());
  }
  if (rows.empty()) {
    for (const Payload& p : pool) {
      rows.push_back(&p);
    }
    row_elems = activation_elems;
  }
  std::vector<fp::Fixed> out(widest, zero);
  std::vector<std::int64_t> out_raw(widest, 0);
  const double per_call = budget_s / 4.0;

  CoreCost cost;
  cost.evaluate_ns_per_elem = ns_per_elem(activation_elems, per_call, [&] {
    for (const Payload* p : activations) {
      engine.evaluate(p->function, p->input,
                      std::span{out}.first(p->input.size()));
    }
  });
  cost.evaluate_raw_ns_per_elem = ns_per_elem(activation_elems, per_call, [&] {
    for (const Payload* p : activations) {
      engine.evaluate_raw(p->function, p->raws,
                          std::span{out_raw}.first(p->raws.size()));
    }
  });

  // The serving layer coalesces one dispatch group's same-function
  // requests into one evaluate call; replay that at the measured group size.
  std::array<std::vector<fp::Fixed>, 3> by_function;
  for (const Payload* p : activations) {
    auto& buffer = by_function[static_cast<std::size_t>(p->function)];
    buffer.insert(buffer.end(), p->input.begin(), p->input.end());
  }
  const std::size_t request_elems =
      activations.empty() ? 1 : activations.front()->input.size();
  const std::size_t chunk = request_elems *
      static_cast<std::size_t>(std::max(1.0, std::round(group_requests)));
  std::vector<fp::Fixed> group_out(chunk, zero);
  cost.evaluate_group_ns_per_elem = ns_per_elem(activation_elems, per_call, [&] {
    for (const Function f : kFunctions) {
      const std::span<const fp::Fixed> all{by_function[static_cast<std::size_t>(f)]};
      for (std::size_t at = 0; at < all.size(); at += chunk) {
        const std::size_t n = std::min(chunk, all.size() - at);
        engine.evaluate(f, all.subspan(at, n), std::span{group_out}.first(n));
      }
    }
  });

  cost.softmax_ns_per_elem = ns_per_elem(row_elems, per_call, [&] {
    for (const Payload* p : rows) {
      (void)engine.softmax(p->input);
    }
  });
  return cost;
}

double measure_table_build_ms(const nacu::core::NacuConfig& config, int reps) {
  std::vector<double> per_function_ms;
  for (int r = 0; r < reps; ++r) {
    const BatchNacu engine{config, serving_options().batch_options};
    const Clock::time_point start = Clock::now();
    for (const Function f : kFunctions) {
      engine.warm(f);
    }
    per_function_ms.push_back(static_cast<double>(ns_between(start, Clock::now())) /
                              1e6 / static_cast<double>(kFunctions.size()));
  }
  return median(per_function_ms);
}

}  // namespace layerbench
