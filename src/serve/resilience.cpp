#include "serve/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "fault/detectors.hpp"
#include "fixedpoint/fixed.hpp"

namespace nacu::serve {

namespace {

[[nodiscard]] std::int64_t to_ns(
    std::chrono::steady_clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

const char* circuit_state_name(CircuitState s) noexcept {
  switch (s) {
    case CircuitState::Closed: return "closed";
    case CircuitState::Open: return "open";
    case CircuitState::HalfOpen: return "half-open";
  }
  return "?";
}

bool ShardHealth::try_admit() noexcept {
  if (dispatcher_dead_.load(std::memory_order_acquire)) {
    return false;
  }
  switch (state()) {
    case CircuitState::Closed:
      return true;
    case CircuitState::Open:
      return false;
    case CircuitState::HalfOpen: {
      std::int32_t tokens = half_open_tokens_.load(std::memory_order_relaxed);
      while (tokens > 0) {
        if (half_open_tokens_.compare_exchange_weak(
                tokens, tokens - 1, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

bool ShardHealth::record_success() noexcept {
  consecutive_failures_.store(0, std::memory_order_relaxed);
  auto expected = static_cast<std::uint8_t>(CircuitState::HalfOpen);
  return state_.compare_exchange_strong(
      expected, static_cast<std::uint8_t>(CircuitState::Closed),
      std::memory_order_acq_rel, std::memory_order_relaxed);
}

bool ShardHealth::record_failure(std::size_t threshold,
                                 Clock::time_point now) noexcept {
  const std::uint32_t failures =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  const CircuitState s = state();
  if (s == CircuitState::HalfOpen ||
      (s == CircuitState::Closed && failures >= threshold)) {
    return force_open(now);
  }
  return false;
}

bool ShardHealth::force_open(Clock::time_point now) noexcept {
  // Stamp the cooldown origin before publishing Open so maybe_half_open
  // never sees a fresh Open with a stale timestamp.
  opened_at_ns_.store(to_ns(now), std::memory_order_relaxed);
  const auto prev = state_.exchange(
      static_cast<std::uint8_t>(CircuitState::Open), std::memory_order_acq_rel);
  return prev != static_cast<std::uint8_t>(CircuitState::Open);
}

bool ShardHealth::maybe_half_open(Clock::time_point now,
                                  std::chrono::nanoseconds cooldown,
                                  std::size_t trials) noexcept {
  if (state() != CircuitState::Open) {
    return false;
  }
  const std::int64_t opened = opened_at_ns_.load(std::memory_order_relaxed);
  if (to_ns(now) - opened < cooldown.count()) {
    return false;
  }
  // Re-arm the trial tokens before flipping the state so a submitter that
  // observes HalfOpen always finds tokens from *this* probation window.
  half_open_tokens_.store(static_cast<std::int32_t>(
                              std::max<std::size_t>(trials, 1)),
                          std::memory_order_relaxed);
  auto expected = static_cast<std::uint8_t>(CircuitState::Open);
  return state_.compare_exchange_strong(
      expected, static_cast<std::uint8_t>(CircuitState::HalfOpen),
      std::memory_order_acq_rel, std::memory_order_relaxed);
}

void ShardHealth::close() noexcept {
  consecutive_failures_.store(0, std::memory_order_relaxed);
  state_.store(static_cast<std::uint8_t>(CircuitState::Closed),
               std::memory_order_release);
}

RetryBudget::RetryBudget(double tokens_per_s, double burst,
                         std::chrono::steady_clock::time_point now)
    : tokens_per_s_{std::max(0.0, tokens_per_s)},
      burst_{std::max(1.0, burst)},
      tokens_{burst_},
      last_{now} {}

bool RetryBudget::try_draw(std::chrono::steady_clock::time_point now) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const double dt = std::chrono::duration<double>(now - last_).count();
  if (dt > 0.0) {
    tokens_ = std::min(burst_, tokens_ + dt * tokens_per_s_);
    last_ = now;
  }
  if (tokens_ < 1.0) {
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

void evaluate_degraded(const core::Nacu& unit, core::BatchNacu::Function f,
                       std::span<const fp::Fixed> in,
                       std::span<fp::Fixed> out) {
  using Function = core::BatchNacu::Function;
  for (std::size_t k = 0; k < in.size(); ++k) {
    switch (f) {
      case Function::Sigmoid: out[k] = unit.sigmoid(in[k]); break;
      case Function::Tanh: out[k] = unit.tanh(in[k]); break;
      case Function::Exp: out[k] = unit.exp(in[k]); break;
    }
  }
}

bool verify_activation(const fault::InvariantChecker& checker, fp::Format fmt,
                       core::BatchNacu::Function f,
                       std::span<const fp::Fixed> in,
                       std::span<const fp::Fixed> out) {
  if (!checker.has_table_signatures(f)) {
    return true;
  }
  const std::int64_t min_raw = fmt.min_raw();
  for (std::size_t k = 0; k < in.size(); ++k) {
    const auto word = static_cast<std::size_t>(in[k].raw() - min_raw);
    if (!checker.word_intact(f, word, out[k].raw())) {
      return false;
    }
  }
  return true;
}

bool verify_softmax(const fault::InvariantChecker& checker,
                    const core::BatchNacu& engine,
                    std::span<const fp::Fixed> logits) {
  using Function = core::BatchNacu::Function;
  if (logits.empty() || !checker.has_table_signatures(Function::Exp) ||
      !engine.table_built(Function::Exp)) {
    return true;  // the row never read a dense-table word
  }
  const fp::Format fmt = engine.format();
  const std::int64_t min_raw = fmt.min_raw();
  // Mirror the Fixed-path softmax exactly: with a port armed the fused raw
  // path is disabled, so each element read exp-table word
  // clamp(x − x_max, ≥ min_raw) − min_raw. Re-read those words through the
  // engine's (armed) evaluate_raw path — an SRAM upset persists across
  // reads — and parity-check each against its golden signature.
  std::int64_t x_max = logits[0].raw();
  for (const fp::Fixed& x : logits) {
    x_max = std::max(x_max, x.raw());
  }
  std::vector<std::int64_t> diffs(logits.size());
  for (std::size_t k = 0; k < logits.size(); ++k) {
    diffs[k] = std::max(logits[k].raw() - x_max, min_raw);
  }
  std::vector<std::int64_t> exps(logits.size());
  engine.evaluate_raw(Function::Exp, diffs, exps);
  for (std::size_t k = 0; k < diffs.size(); ++k) {
    const auto word = static_cast<std::size_t>(diffs[k] - min_raw);
    if (!checker.word_intact(Function::Exp, word, exps[k])) {
      return false;
    }
  }
  return true;
}

}  // namespace nacu::serve
