#include "serve/micro_batcher.hpp"

#include <algorithm>
#include <utility>

namespace nacu::serve {

MicroBatcher::MicroBatcher(BatcherOptions options) : options_{options} {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  if (options_.max_wait.count() < 0) {
    options_.max_wait = std::chrono::microseconds{0};
  }
}

void MicroBatcher::push(Request request) {
  pending_.push_back(std::move(request));
}

bool MicroBatcher::should_flush(
    std::chrono::steady_clock::time_point now) const noexcept {
  if (pending_.empty()) {
    return false;
  }
  if (pending_.size() >= options_.max_batch) {
    return true;
  }
  return now - pending_.front().enqueued_at >= options_.max_wait;
}

std::optional<std::chrono::steady_clock::time_point>
MicroBatcher::flush_deadline() const {
  if (pending_.empty()) {
    return std::nullopt;
  }
  return pending_.front().enqueued_at + options_.max_wait;
}

std::vector<Request> MicroBatcher::take_group() {
  const std::size_t count = std::min(pending_.size(), options_.max_batch);
  std::vector<Request> group;
  group.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    group.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  return group;
}

}  // namespace nacu::serve
