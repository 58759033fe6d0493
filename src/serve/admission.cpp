#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>

namespace nacu::serve {
namespace {

std::size_t limit_for(double fraction, std::size_t capacity) {
  const double clamped = std::clamp(fraction, 0.0, 1.0);
  const auto limit = static_cast<std::size_t>(
      std::floor(clamped * static_cast<double>(capacity)));
  // A priority class can be throttled hard but never configured out: one
  // slot always remains, so a lone best-effort request on an idle server
  // is admitted no matter the fraction.
  return std::max<std::size_t>(1, limit);
}

}  // namespace

AdmissionController::AdmissionController(
    const AdmissionOptions& options, std::size_t shard_capacity,
    std::function<std::chrono::steady_clock::time_point()> clock)
    : clock_{clock ? std::move(clock)
                   : [] { return std::chrono::steady_clock::now(); }} {
  const std::size_t capacity = std::max<std::size_t>(1, shard_capacity);
  limits_[static_cast<std::size_t>(Priority::High)] =
      limit_for(options.high_depth_fraction, capacity);
  limits_[static_cast<std::size_t>(Priority::Normal)] =
      limit_for(options.normal_depth_fraction, capacity);
  limits_[static_cast<std::size_t>(Priority::BestEffort)] =
      limit_for(options.best_effort_depth_fraction, capacity);
  for (const auto& [tenant, quota] : options.quotas) {
    buckets_[tenant] = TokenBucket{quota, clock_()};  // buckets start full
  }
}

AdmissionController::Verdict AdmissionController::preadmit(
    const SubmitOptions& options) {
  // Deadline first: an already-expired request must never consume a
  // quota token — it could not have been served at any load.
  const bool needs_clock = options.deadline.has_value() || !buckets_.empty();
  if (!needs_clock) {
    return Verdict::Admit;  // the common unmetered, undeadlined fast path
  }
  const auto at = clock_();
  if (options.deadline.has_value() && *options.deadline <= at) {
    return Verdict::RejectDeadline;
  }
  if (!buckets_.empty()) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = buckets_.find(options.tenant);
    if (it != buckets_.end() && !it->second.try_draw(at)) {
      return Verdict::RejectQuota;
    }
  }
  return Verdict::Admit;
}

}  // namespace nacu::serve
