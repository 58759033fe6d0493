// Per-element costs of the layers under a request, timed in isolation on a
// workload's payloads: the wire encoding (net) and the batch engine's entry
// points (core). Each figure is the median of repeated whole-pool passes,
// so one clock read pair covers thousands of calls.
#pragma once

#include <vector>

#include "core/batch_nacu.hpp"
#include "rungs.hpp"

namespace layerbench {

struct WireCost {
  double request_bytes_per_elem = 0.0;   ///< encode_submit frame ÷ elements
  double response_bytes_per_elem = 0.0;  ///< encode_result_fixed frame ÷ elements
  double encode_ns_per_elem = 0.0;       ///< both encoders, per element
};
[[nodiscard]] WireCost measure_wire(const std::vector<Payload>& pool,
                                    double budget_s);

struct CoreCost {
  double evaluate_ns_per_elem = 0.0;        ///< evaluate at request size
  double evaluate_group_ns_per_elem = 0.0;  ///< at avg_group × request size
  double evaluate_raw_ns_per_elem = 0.0;    ///< evaluate_raw at request size
  double softmax_ns_per_elem = 0.0;         ///< softmax on the softmax rows
};
/// Activation payloads feed the evaluate figures; softmax rows feed the
/// softmax figure, or every payload read as a row when the pool has none.
[[nodiscard]] CoreCost measure_core(const std::vector<Payload>& pool,
                                    const nacu::core::BatchNacu& engine,
                                    double group_requests, double budget_s);

/// Median over @p reps fresh engines of BatchNacu::warm, in ms per function.
[[nodiscard]] double measure_table_build_ms(const nacu::core::NacuConfig& config,
                                            int reps);

}  // namespace layerbench
