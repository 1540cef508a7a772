#include "adaflow/hls/modules.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/common/math.hpp"

namespace adaflow::hls {

const char* variant_name(AcceleratorVariant variant) {
  return variant == AcceleratorVariant::kFixed ? "Fixed" : "Flexible";
}

WindowBuffer SlidingWindowUnit::run(const IntImage& input, ModuleStats* stats) const {
  const std::int64_t out_h = out_dim(input.height);
  const std::int64_t out_w = out_dim(input.width);
  require(out_h >= 1 && out_w >= 1, "SWU output collapsed");

  WindowBuffer buffer;
  buffer.rows = input.channels * kernel_ * kernel_;
  buffer.cols = out_h * out_w;
  buffer.data.assign(static_cast<std::size_t>(buffer.rows * buffer.cols), 0);

  // Each output pixel's [ch][kh][kw] window is one contiguous run.
  std::int32_t* out = buffer.data.data();
  for (std::int64_t oh = 0; oh < out_h; ++oh) {
    for (std::int64_t ow = 0; ow < out_w; ++ow) {
      for (std::int64_t c = 0; c < input.channels; ++c) {
        for (std::int64_t kh = 0; kh < kernel_; ++kh) {
          const std::int64_t ih = oh * stride_ + kh - pad_;
          for (std::int64_t kw = 0; kw < kernel_; ++kw, ++out) {
            const std::int64_t iw = ow * stride_ + kw - pad_;
            if (ih >= 0 && ih < input.height && iw >= 0 && iw < input.width) {
              *out = input.at(c, ih, iw);
            }
          }
        }
      }
    }
  }
  if (stats != nullptr) {
    // The SWU streams one input element per cycle.
    stats->pipeline_iterations += input.size();
  }
  return buffer;
}

MatrixVectorThresholdUnit::MatrixVectorThresholdUnit(AcceleratorVariant variant,
                                                     std::int64_t capacity_ch_in,
                                                     std::int64_t capacity_ch_out,
                                                     std::int64_t kernel, std::int64_t pe,
                                                     std::int64_t simd)
    : variant_(variant), capacity_ch_in_(capacity_ch_in), capacity_ch_out_(capacity_ch_out),
      kernel_(kernel), pe_(pe), simd_(simd) {
  require(capacity_ch_in_ > 0 && capacity_ch_out_ > 0, "MVTU capacity must be positive");
  if (!divisible(capacity_ch_out_, pe_)) {
    throw FoldingError("MVTU capacity ch_out not divisible by PE");
  }
  if (!divisible(capacity_ch_in_, simd_)) {
    throw FoldingError("MVTU capacity ch_in not divisible by SIMD");
  }
}

void MatrixVectorThresholdUnit::load(std::int64_t ch_in, std::int64_t ch_out,
                                     std::vector<std::int8_t> weights,
                                     ThresholdBank thresholds) {
  if (variant_ == AcceleratorVariant::kFixed) {
    if (ch_in != capacity_ch_in_ || ch_out != capacity_ch_out_) {
      throw FoldingError("Fixed MVTU cannot load a different geometry (" +
                         std::to_string(ch_in) + "x" + std::to_string(ch_out) + " into " +
                         std::to_string(capacity_ch_in_) + "x" +
                         std::to_string(capacity_ch_out_) + ")");
    }
  } else {
    if (ch_in > capacity_ch_in_ || ch_out > capacity_ch_out_) {
      throw FoldingError("Flexible MVTU geometry exceeds synthesized worst case");
    }
  }
  // The runtime channel parameter still has to keep all PE/SIMD lanes fed.
  if (!divisible(ch_out, pe_) || !divisible(kernel_ * kernel_ * ch_in, simd_)) {
    throw FoldingError("runtime channels violate PE/SIMD feeding constraints");
  }
  require(static_cast<std::int64_t>(weights.size()) == ch_out * kernel_ * kernel_ * ch_in,
          "MVTU weight size mismatch");
  if (!thresholds.empty()) {
    require(static_cast<std::int64_t>(thresholds.channels.size()) == ch_out,
            "MVTU threshold bank size mismatch");
  }
  const std::int64_t synapse_rows = kernel_ * kernel_ * ch_in;
  max_neuron_weight_sum_ = 0;
  for (const std::int8_t* w_row = weights.data(); w_row != weights.data() + weights.size();
       w_row += synapse_rows) {
    std::int64_t sum = 0;
    for (std::int64_t r = 0; r < synapse_rows; ++r) {
      sum += std::abs(static_cast<std::int64_t>(w_row[r]));
    }
    max_neuron_weight_sum_ = std::max(max_neuron_weight_sum_, sum);
  }
  ch_in_ = ch_in;
  ch_out_ = ch_out;
  weights_ = std::move(weights);
  thresholds_ = std::move(thresholds);
}

IntImage MatrixVectorThresholdUnit::run(const WindowBuffer& windows, std::int64_t out_h,
                                        std::int64_t out_w, ModuleStats* stats) const {
  require(ch_out_ > 0, "MVTU has no model loaded");
  const std::int64_t synapse_rows = kernel_ * kernel_ * ch_in_;
  require(windows.rows == synapse_rows, "window buffer row mismatch");
  require(windows.cols == out_h * out_w, "window buffer col mismatch");
  require(static_cast<std::int64_t>(windows.data.size()) == windows.rows * windows.cols,
          "window buffer size mismatch");

  // FINN's accumulator has a fixed width too: refuse, never wrap. Every
  // partial sum is bounded by sum|w| * max|x|, so passing this check makes
  // the 32-bit sums below exact.
  std::int64_t max_abs_x = 0;
  for (std::int32_t x : windows.data) {
    max_abs_x = std::max(max_abs_x, std::abs(static_cast<std::int64_t>(x)));
  }
  constexpr std::int64_t kAccMax = std::numeric_limits<std::int32_t>::max();
  if (max_abs_x > 0 && max_neuron_weight_sum_ > kAccMax / max_abs_x) {
    throw FoldingError("MVTU accumulator overflow: max neuron sum|w| " +
                       std::to_string(max_neuron_weight_sum_) + " * max|x| " +
                       std::to_string(max_abs_x) + " exceeds the 32-bit accumulator");
  }

  IntImage out(ch_out_, out_h, out_w);
  for (std::int64_t px = 0; px < windows.cols; ++px) {
    const std::int32_t* x = windows.data.data() + px * synapse_rows;
    for (std::int64_t neuron = 0; neuron < ch_out_; ++neuron) {
      const std::int8_t* w_row = weights_.data() + neuron * synapse_rows;
      std::int32_t acc = 0;
      for (std::int64_t r = 0; r < synapse_rows; ++r) {
        acc += static_cast<std::int32_t>(w_row[r]) * x[r];
      }
      out.data[static_cast<std::size_t>(neuron * windows.cols + px)] =
          thresholds_.empty() ? acc : thresholds_.apply(neuron, acc);
    }
  }
  if (stats != nullptr) {
    // In hardware each (neuron fold, synapse fold) pair is one pipeline
    // iteration; the PE x SIMD grid inside it is fully unrolled.
    stats->pipeline_iterations += windows.cols * (ch_out_ / pe_) * (synapse_rows / simd_);
  }
  return out;
}

MaxPoolUnit::MaxPoolUnit(AcceleratorVariant variant, std::int64_t capacity_channels,
                         std::int64_t kernel)
    : variant_(variant), capacity_channels_(capacity_channels), kernel_(kernel) {
  require(capacity_channels_ > 0 && kernel_ > 0, "bad MaxPool geometry");
}

void MaxPoolUnit::set_channels(std::int64_t channels) {
  if (variant_ == AcceleratorVariant::kFixed) {
    if (channels != capacity_channels_) {
      throw FoldingError("Fixed MaxPool cannot change channel count");
    }
  } else if (channels > capacity_channels_) {
    throw FoldingError("Flexible MaxPool channels exceed synthesized worst case");
  }
  channels_ = channels;
}

IntImage MaxPoolUnit::run(const IntImage& input, ModuleStats* stats) const {
  require(channels_ > 0, "MaxPool has no channel count set");
  require(input.channels == channels_, "MaxPool input channel mismatch");
  require(input.height % kernel_ == 0 && input.width % kernel_ == 0,
          "MaxPool input not divisible by kernel");
  const std::int64_t out_h = input.height / kernel_;
  const std::int64_t out_w = input.width / kernel_;
  IntImage out(channels_, out_h, out_w);

  // The channel loop is the *unrolled* one (Figure 3(b)): flexible hardware
  // instantiates capacity_channels_ comparators per window and leaves the
  // tail unfed when channels_ < capacity.
  const std::int64_t unrolled =
      variant_ == AcceleratorVariant::kFlexible ? capacity_channels_ : channels_;

  for (std::int64_t oh = 0; oh < out_h; ++oh) {
    for (std::int64_t ow = 0; ow < out_w; ++ow) {
      for (std::int64_t c = 0; c < channels_; ++c) {
        std::int32_t best = input.at(c, oh * kernel_, ow * kernel_);
        for (std::int64_t kh = 0; kh < kernel_; ++kh) {
          for (std::int64_t kw = 0; kw < kernel_; ++kw) {
            best = std::max(best, input.at(c, oh * kernel_ + kh, ow * kernel_ + kw));
          }
        }
        out.at(c, oh, ow) = best;
      }
    }
  }
  if (stats != nullptr) {
    stats->pipeline_iterations += out_h * out_w;  // one window per cycle across units
    stats->idle_unit_ops += out_h * out_w * (unrolled - channels_);  // unfed units
  }
  return out;
}

}  // namespace adaflow::hls
