#pragma once

/// \file modules.hpp
/// Functional models of the FINN streaming modules (paper Section II /
/// IV-A2): SlidingWindowUnit, MatrixVectorThresholdUnit and MaxPoolUnit, in
/// both the stock FINN form (Fixed) and AdaFlow's runtime-controllable form
/// (Flexible).
///
/// The Flexible variants mirror Figure 3 of the paper:
///  - the MVTU's unroll (PE x SIMD) is independent of the runtime channel
///    parameter, so only the pipeline-feeding loop shortens when a pruned
///    model is loaded;
///  - the MaxPool unroll depends on the channel count, so it is synthesized
///    to the worst case and some units go unfed for pruned models (tracked
///    in ModuleStats::idle_unit_ops).
///
/// Every run() also tallies pipeline iterations so tests can cross-check the
/// analytical performance model in src/perf against the executed dataflow.

#include <cstdint>
#include <vector>

#include "adaflow/hls/thresholds.hpp"
#include "adaflow/hls/types.hpp"

namespace adaflow::hls {

/// Fixed = stock FINN HLS template (channel counts baked at synthesis);
/// Flexible = AdaFlow template with the 16-bit runtime `channels` port.
enum class AcceleratorVariant { kFixed, kFlexible };

const char* variant_name(AcceleratorVariant variant);

/// Execution counters accumulated while a module processes one frame.
struct ModuleStats {
  std::int64_t pipeline_iterations = 0;  ///< initiation-interval-relevant loop trips
  std::int64_t idle_unit_ops = 0;        ///< unrolled units left unfed (flexible only)
};

/// im2col-style window buffer: rows = kernel^2 * ch_in, cols = out_h * out_w.
/// Stored pixel-major: the `rows` window elements of output pixel c are one
/// contiguous run data[c * rows .. (c + 1) * rows), so the MVTU dot product
/// streams a window at unit stride.
struct WindowBuffer {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int32_t> data;

  std::int32_t at(std::int64_t r, std::int64_t c) const {
    return data[static_cast<std::size_t>(c * rows + r)];
  }
};

/// Sliding Window Unit: prepares the input feature map for the MVTU.
/// The row order matches the conv weight layout [ch][kh][kw].
class SlidingWindowUnit {
 public:
  SlidingWindowUnit(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
      : kernel_(kernel), stride_(stride), pad_(pad) {}

  WindowBuffer run(const IntImage& input, ModuleStats* stats) const;

  std::int64_t out_dim(std::int64_t in_dim) const {
    return (in_dim + 2 * pad_ - kernel_) / stride_ + 1;
  }

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
};

/// Matrix-Vector-Threshold Unit with PE x SIMD folding. The folding sets the
/// pipeline-iteration count; the arithmetic is one contiguous 32-bit dot
/// product per (pixel, neuron), exact because integer sums do not depend on
/// order and run() refuses any input whose worst-case sum could overflow.
class MatrixVectorThresholdUnit {
 public:
  /// \p capacity_* give the synthesized (worst-case) geometry; for the Fixed
  /// variant the loaded model must match it exactly.
  MatrixVectorThresholdUnit(AcceleratorVariant variant, std::int64_t capacity_ch_in,
                            std::int64_t capacity_ch_out, std::int64_t kernel, std::int64_t pe,
                            std::int64_t simd);

  /// Loads weights (levels, [ch_out][kernel^2 * ch_in]) and thresholds for
  /// the current model version. An empty bank means raw accumulator output.
  void load(std::int64_t ch_in, std::int64_t ch_out, std::vector<std::int8_t> weights,
            ThresholdBank thresholds);

  /// Processes a window buffer into an output feature map of ch_out levels
  /// (or raw accumulators when no thresholds are loaded). Throws
  /// FoldingError when (largest per-neuron sum of |weight level|) *
  /// (largest |window element|) exceeds INT32_MAX, i.e. when the 32-bit
  /// accumulator could overflow.
  IntImage run(const WindowBuffer& windows, std::int64_t out_h, std::int64_t out_w,
               ModuleStats* stats) const;

  std::int64_t ch_in() const { return ch_in_; }
  std::int64_t ch_out() const { return ch_out_; }
  std::int64_t pe() const { return pe_; }
  std::int64_t simd() const { return simd_; }

 private:
  AcceleratorVariant variant_;
  std::int64_t capacity_ch_in_;
  std::int64_t capacity_ch_out_;
  std::int64_t kernel_;
  std::int64_t pe_;
  std::int64_t simd_;

  std::int64_t ch_in_ = 0;   // runtime-controllable parameter
  std::int64_t ch_out_ = 0;  // runtime-controllable parameter
  std::vector<std::int8_t> weights_;
  std::int64_t max_neuron_weight_sum_ = 0;  // max over neurons of sum |w|
  ThresholdBank thresholds_;
};

/// Channelwise max pooling. Unrolled across channels, so the Flexible
/// variant executes capacity_channels units per window and leaves the tail
/// unfed when a pruned model is loaded (Figure 3(b)).
class MaxPoolUnit {
 public:
  MaxPoolUnit(AcceleratorVariant variant, std::int64_t capacity_channels, std::int64_t kernel);

  void set_channels(std::int64_t channels);

  IntImage run(const IntImage& input, ModuleStats* stats) const;

 private:
  AcceleratorVariant variant_;
  std::int64_t capacity_channels_;
  std::int64_t kernel_;
  std::int64_t channels_ = 0;  // runtime-controllable parameter
};

}  // namespace adaflow::hls
