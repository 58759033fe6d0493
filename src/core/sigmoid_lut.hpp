// The σ coefficient/bias LUT at the heart of NACU (paper §V.A).
//
// Stores a first-order PWL model of σ over the *positive* input half-range
// only: one (m1, q) pair per uniform segment. Everything else — negative σ,
// both tanh half-ranges, exp, softmax — is derived from these entries with
// shifts and the Fig. 3 bit tricks; no other function tables exist in the
// unit (that sharing is the ~2× coefficient-area saving quoted in §VII).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_port.hpp"
#include "fixedpoint/fixed.hpp"

namespace nacu::core {

class SigmoidLut {
 public:
  struct Config {
    /// Datapath format; the LUT covers x ∈ [0, In_max(format)].
    fp::Format format{4, 11};
    /// Coefficient/bias storage format. q ∈ [0.5, 1] and m1 ∈ [0, 0.25]
    /// both fit Q1.(N−2) at datapath width.
    fp::Format coeff_format{1, 14};
    std::size_t entries = 53;  ///< paper Table I: 53 entries at 16 bits
    /// Minimax (Chebyshev) per-segment fit when true, least-squares else.
    bool minimax = true;
    /// Quantisation-aware refinement: after rounding (m, q) onto the
    /// coefficient grid, search ±1 LSB around each and keep the pair that
    /// minimises the segment's measured fixed-point max error. The
    /// continuous fit optimum is not always the best *quantised* pair.
    bool refine_quantised = false;
  };

  explicit SigmoidLut(const Config& config);

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t entries() const noexcept { return m_raw_.size(); }
  /// m1 + q per entry, at coefficient width.
  [[nodiscard]] std::size_t storage_bits() const noexcept {
    return entries() * 2 *
           static_cast<std::size_t>(config_.coeff_format.width());
  }

  /// Segment index for a non-negative input raw value (saturates into the
  /// last segment beyond In_max).
  [[nodiscard]] std::size_t segment_for(std::int64_t x_raw) const noexcept;

  /// Slope m1 of segment @p i (value in [0, 0.25]).
  [[nodiscard]] fp::Fixed slope(std::size_t i) const;
  /// Bias q of segment @p i (value in [0.5, 1]).
  [[nodiscard]] fp::Fixed bias(std::size_t i) const;

  [[nodiscard]] std::int64_t slope_raw(std::size_t i) const {
    const std::int64_t clean = m_raw_.at(i);
    return fault_port_ == nullptr
               ? clean
               : fault_port_->read(fault::Surface::LutSlope, i, clean,
                                   config_.coeff_format.width());
  }
  [[nodiscard]] std::int64_t bias_raw(std::size_t i) const {
    const std::int64_t clean = q_raw_.at(i);
    return fault_port_ == nullptr
               ? clean
               : fault_port_->read(fault::Surface::LutBias, i, clean,
                                   config_.coeff_format.width());
  }

  /// Fault injection (fault/fault_port.hpp): route every coefficient read
  /// through @p port. nullptr (the default) disarms; reads then cost one
  /// pointer compare. The port is not owned. Not thread-safe — attach only
  /// while no reader is in flight.
  void attach_fault_port(fault::BitFaultPort* port) noexcept {
    fault_port_ = port;
  }
  [[nodiscard]] fault::BitFaultPort* fault_port() const noexcept {
    return fault_port_;
  }
  /// Model a controller scrub: every coefficient word is rewritten from the
  /// golden copy. Heals transient upsets; stuck-at defects persist (the
  /// attached port is told about each rewrite and keeps its own state).
  void scrub() noexcept;

 private:
  Config config_;
  std::vector<std::int64_t> m_raw_;
  std::vector<std::int64_t> q_raw_;
  std::int64_t x_max_raw_ = 0;
  fault::BitFaultPort* fault_port_ = nullptr;
};

}  // namespace nacu::core
