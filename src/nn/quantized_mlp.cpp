#include "nn/quantized_mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nacu::nn {

QuantizedMlp::QuantizedMlp(const Mlp& reference,
                           const core::NacuConfig& config)
    : unit_{config},
      activation_{reference.config().activation},
      input_width_{reference.weights(0).cols()},
      fmt_{config.format},
      // MAC accumulator: datapath fb with headroom integer bits for the
      // longest dot product.
      acc_fmt_{std::min(config.format.integer_bits() + 8,
                        fp::Format::kMaxWidth - 1 -
                            config.format.fractional_bits()),
               config.format.fractional_bits()} {
  if (reference.max_parameter_magnitude() >= fmt_.max_value()) {
    throw std::invalid_argument(
        "trained weights exceed the datapath format range");
  }
  for (std::size_t l = 0; l < reference.layers(); ++l) {
    const MatrixD& w = reference.weights(l);
    std::vector<std::vector<std::int64_t>> wq(w.rows());
    for (std::size_t o = 0; o < w.rows(); ++o) {
      wq[o].reserve(w.cols());
      for (std::size_t i = 0; i < w.cols(); ++i) {
        wq[o].push_back(fp::Fixed::from_double(w(o, i), fmt_).raw());
      }
    }
    weights_raw_.push_back(std::move(wq));
    std::vector<std::int64_t> bq;
    bq.reserve(reference.biases(l).size());
    for (const double v : reference.biases(l)) {
      bq.push_back(fp::Fixed::from_double(v, fmt_).raw());
    }
    biases_raw_.push_back(std::move(bq));
  }
  fused_ok_ = simd::PackedQGemm::formats_supported(fmt_, acc_fmt_);
  if (fused_ok_) {
    packed_.reserve(weights_raw_.size());
    for (const auto& wq : weights_raw_) {
      const std::size_t out_dim = wq.size();
      const std::size_t in_dim = out_dim > 0 ? wq[0].size() : 0;
      packed_.emplace_back(out_dim, in_dim,
                           [&wq](std::size_t o, std::size_t i) {
                             return wq[o][i];
                           });
    }
  }
}

std::vector<fp::Fixed> QuantizedMlp::dense_forward(
    std::size_t layer, const std::vector<fp::Fixed>& input,
    bool apply_activation) const {
  const obs::TraceSpan span{"QuantizedMlp::dense_forward"};
  static obs::Counter& layers_run = obs::counter("nn.mlp.layers_run");
  static obs::Counter& fused_layers = obs::counter("nn.mlp.fused_layers");
  static obs::Histogram& layer_ns = obs::histogram("nn.mlp.layer_ns");
  const obs::ScopedTimer timer{layer_ns};
  layers_run.add();
  const auto& w = weights_raw_[layer];
  const auto& b = biases_raw_[layer];
  std::vector<fp::Fixed> out;
  out.reserve(w.size());
  // Fused path: the whole layer's MAC chains run through the tile-packed
  // int32 kernel — per-step truncate+saturate in the same input order as
  // Fixed::mac, so the raws match the loop below bit-for-bit. Inputs off
  // the datapath grid (can't happen from predict_proba, but the API allows
  // it) fall back to the Fixed-API loop, whose format handling is general.
  bool fused = fused_ok_ && !w.empty() &&
               input.size() == packed_[layer].in_dim();
  if (fused) {
    for (const fp::Fixed& v : input) {
      if (v.format() != fmt_) {
        fused = false;
        break;
      }
    }
  }
  if (fused) {
    fused_layers.add();
    const simd::PackedQGemm& pg = packed_[layer];
    std::vector<std::int32_t> x(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
      x[i] = static_cast<std::int32_t>(input[i].raw());
    }
    std::vector<std::int32_t> acc(pg.padded_out(), 0);
    for (std::size_t o = 0; o < w.size(); ++o) {
      // Bias preload: requantize(acc_fmt_) keeps the raw (same fb, wider
      // range), so the int32 accumulator starts at the bias raw directly.
      acc[o] = static_cast<std::int32_t>(b[o]);
    }
    pg.accumulate(unit_.backend(), x.data(),
                  acc.data(), fmt_.fractional_bits(),
                  static_cast<std::int32_t>(acc_fmt_.min_raw()),
                  static_cast<std::int32_t>(acc_fmt_.max_raw()));
    const std::int64_t lo = fmt_.min_raw();
    const std::int64_t hi = fmt_.max_raw();
    for (std::size_t o = 0; o < w.size(); ++o) {
      std::int64_t raw = acc[o];
      if (raw < lo) {
        raw = lo;
      } else if (raw > hi) {
        raw = hi;
      }
      out.push_back(fp::Fixed::from_raw_unchecked(raw, fmt_));
    }
  } else {
    for (std::size_t o = 0; o < w.size(); ++o) {
      // Bias preloads the accumulator; each term goes through the NACU MAC.
      fp::Fixed acc = fp::Fixed::from_raw(b[o], fmt_).requantize(acc_fmt_);
      for (std::size_t i = 0; i < input.size(); ++i) {
        acc = unit_.unit().mac(acc, fp::Fixed::from_raw(w[o][i], fmt_),
                               input[i]);
      }
      out.push_back(acc.requantize(fmt_, fp::Rounding::Truncate,
                                   fp::Overflow::Saturate));
    }
  }
  if (apply_activation) {
    // One batch activation pass over the whole layer.
    unit_.evaluate(activation_ == HiddenActivation::Sigmoid
                       ? core::BatchNacu::Function::Sigmoid
                       : core::BatchNacu::Function::Tanh,
                   out, out);
  }
  return out;
}

std::vector<double> QuantizedMlp::predict_proba(
    const std::vector<double>& input) const {
  if (input.size() != input_width_) {
    // dense_forward's MAC loop reads one weight per input element.
    throw std::invalid_argument("input width does not match the model");
  }
  std::vector<fp::Fixed> acts;
  acts.reserve(input.size());
  for (const double v : input) {
    acts.push_back(fp::Fixed::from_double(v, fmt_));
  }
  for (std::size_t l = 0; l < weights_raw_.size(); ++l) {
    acts = dense_forward(l, acts, l + 1 < weights_raw_.size());
  }
  const std::vector<fp::Fixed> probs = unit_.softmax(acts);
  std::vector<double> out;
  out.reserve(probs.size());
  for (const fp::Fixed& p : probs) {
    out.push_back(p.to_double());
  }
  return out;
}

int QuantizedMlp::predict(const std::vector<double>& input) const {
  const std::vector<double> p = predict_proba(input);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

double QuantizedMlp::accuracy(const Dataset& data) const {
  std::size_t correct = 0;
  std::vector<double> input(data.inputs.cols());
  for (std::size_t s = 0; s < data.size(); ++s) {
    for (std::size_t c = 0; c < input.size(); ++c) {
      input[c] = data.inputs(s, c);
    }
    if (predict(input) == data.labels[s]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

double QuantizedMlp::mean_probability_drift(const Mlp& reference,
                                            const Dataset& data) const {
  double sum = 0.0;
  std::size_t count = 0;
  std::vector<double> input(data.inputs.cols());
  for (std::size_t s = 0; s < data.size(); ++s) {
    for (std::size_t c = 0; c < input.size(); ++c) {
      input[c] = data.inputs(s, c);
    }
    const std::vector<double> pf = predict_proba(input);
    const std::vector<double> pr = reference.predict_proba(input);
    for (std::size_t k = 0; k < pf.size(); ++k) {
      sum += std::abs(pf[k] - pr[k]);
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

}  // namespace nacu::nn
