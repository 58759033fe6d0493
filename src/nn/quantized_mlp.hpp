// Post-training-quantised MLP inference where every non-linearity is NACU.
//
// Weights, biases and activations are quantised to the NACU datapath format;
// dot products accumulate through the NACU MAC (wide accumulator, truncating
// requantisation), hidden layers apply NACU σ or tanh, and the output layer
// is the NACU softmax (Eq. 13 normalisation, exp via Eq. 14, divider pass).
// This is the end-to-end deployment story the paper's CGRA hosts imply.
//
// Non-linearities go through core::BatchNacu at layer granularity: one batch
// σ/tanh call per dense layer and one batched softmax at the output —
// bit-identical to per-element scalar evaluation, but served from the dense
// activation table once layers are wide enough to build it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_nacu.hpp"
#include "nn/mlp.hpp"
#include "simd/qgemm.hpp"

namespace nacu::nn {

class QuantizedMlp {
 public:
  /// Quantise @p reference onto @p config's formats. Throws when a weight
  /// magnitude exceeds the representable range (pick a wider format).
  QuantizedMlp(const Mlp& reference, const core::NacuConfig& config);

  /// Throws std::invalid_argument unless @p input has the model's input
  /// width.
  [[nodiscard]] std::vector<double> predict_proba(
      const std::vector<double>& input) const;
  [[nodiscard]] int predict(const std::vector<double>& input) const;
  [[nodiscard]] double accuracy(const Dataset& data) const;

  /// Mean |p_fixed − p_float| over all samples/classes — the probability
  /// drift induced by quantisation + NACU approximation.
  [[nodiscard]] double mean_probability_drift(const Mlp& reference,
                                              const Dataset& data) const;

  [[nodiscard]] const core::Nacu& unit() const noexcept {
    return unit_.unit();
  }
  [[nodiscard]] const core::BatchNacu& batch_unit() const noexcept {
    return unit_;
  }
  /// Mutable access to the batch engine — needed to arm fault injection on
  /// the activation tables / σ-LUT beneath this network (fault/).
  [[nodiscard]] core::BatchNacu& batch_unit() noexcept { return unit_; }

 private:
  /// One dense layer: NACU-MAC accumulation, requantise, optional σ/tanh.
  [[nodiscard]] std::vector<fp::Fixed> dense_forward(
      std::size_t layer, const std::vector<fp::Fixed>& input,
      bool apply_activation) const;

  core::BatchNacu unit_;
  HiddenActivation activation_;
  std::size_t input_width_;
  fp::Format fmt_;
  fp::Format acc_fmt_;
  std::vector<std::vector<std::vector<std::int64_t>>> weights_raw_;
  std::vector<std::vector<std::int64_t>> biases_raw_;
  /// Tile-packed copies of weights_raw_ for the fused GEMV kernel; empty
  /// when the (data, accumulator) format pair is outside the kernel's
  /// int32-exactness envelope (fused_ok_ == false), in which case
  /// dense_forward keeps the Fixed-API MAC loop.
  std::vector<simd::PackedQGemm> packed_;
  bool fused_ok_ = false;
};

}  // namespace nacu::nn
