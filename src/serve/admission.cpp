#include "serve/admission.hpp"

#include <algorithm>

namespace nacu::serve {

AdmissionController::AdmissionController(
    const AdmissionOptions& options, std::size_t shard_capacity,
    std::function<std::chrono::steady_clock::time_point()> clock)
    : clock_{clock ? std::move(clock)
                   : [] { return std::chrono::steady_clock::now(); }},
      capacity_{std::max<std::size_t>(1, shard_capacity)},
      // One slot always remains, so a lone best-effort request on an idle
      // one-slot shard is admitted.
      best_effort_limit_{std::max<std::size_t>(1, capacity_ / 2)} {
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
