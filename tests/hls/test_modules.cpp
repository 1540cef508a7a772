#include "adaflow/hls/modules.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "adaflow/common/error.hpp"
#include "adaflow/common/rng.hpp"
#include "adaflow/hls/folding.hpp"

namespace adaflow::hls {
namespace {

/// Reference MVTU: the PE x SIMD fold loop with int64 accumulators, read
/// through WindowBuffer::at(). MatrixVectorThresholdUnit::run must match it
/// bit for bit, pipeline-iteration count included.
struct MvtuReference {
  IntImage out;
  std::int64_t pipeline_iterations = 0;
};

MvtuReference reference_mvtu(const std::vector<std::int8_t>& weights,
                             const ThresholdBank& thresholds, std::int64_t ch_out,
                             std::int64_t pe, std::int64_t simd, const WindowBuffer& windows,
                             std::int64_t out_h, std::int64_t out_w) {
  const std::int64_t synapse_rows = windows.rows;
  const std::int64_t neuron_folds = ch_out / pe;
  const std::int64_t synapse_folds = synapse_rows / simd;
  MvtuReference ref{IntImage(ch_out, out_h, out_w), 0};
  std::vector<std::int64_t> acc(static_cast<std::size_t>(pe), 0);
  for (std::int64_t px = 0; px < windows.cols; ++px) {
    for (std::int64_t nf = 0; nf < neuron_folds; ++nf) {
      std::fill(acc.begin(), acc.end(), 0);
      for (std::int64_t sf = 0; sf < synapse_folds; ++sf) {
        for (std::int64_t p = 0; p < pe; ++p) {
          const std::int8_t* w_row = weights.data() + (nf * pe + p) * synapse_rows;
          std::int64_t partial = 0;
          for (std::int64_t s = 0; s < simd; ++s) {
            const std::int64_t r = sf * simd + s;
            partial += static_cast<std::int64_t>(w_row[r]) * windows.at(r, px);
          }
          acc[static_cast<std::size_t>(p)] += partial;
        }
        ++ref.pipeline_iterations;
      }
      for (std::int64_t p = 0; p < pe; ++p) {
        const std::int64_t neuron = nf * pe + p;
        const std::int64_t a = acc[static_cast<std::size_t>(p)];
        ref.out.data[static_cast<std::size_t>(neuron * windows.cols + px)] =
            thresholds.empty() ? static_cast<std::int32_t>(a) : thresholds.apply(neuron, a);
      }
    }
  }
  return ref;
}

ThresholdBank random_bank(Rng& rng, std::int64_t ch_out) {
  ThresholdBank bank;
  bank.act_bits = 2;
  for (std::int64_t c = 0; c < ch_out; ++c) {
    ChannelThresholds ct;
    ct.direction = rng.bernoulli(0.5) ? 1 : -1;
    std::int64_t t = rng.uniform_int(-1500, 0);
    for (int k = 0; k < 3; ++k) {
      t += rng.uniform_int(0, 1000);
      ct.thresholds.push_back(t);
    }
    bank.channels.push_back(ct);
  }
  return bank;
}

TEST(Swu, MatchesManualWindow) {
  SlidingWindowUnit swu(2, 1, 0);
  IntImage in(1, 3, 3);
  for (std::int64_t i = 0; i < 9; ++i) {
    in.data[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
  }
  ModuleStats stats;
  WindowBuffer buf = swu.run(in, &stats);
  EXPECT_EQ(buf.rows, 4);   // 1 channel * 2 * 2
  EXPECT_EQ(buf.cols, 4);   // 2x2 output
  // Window at output (0,0): 0,1,3,4 in (kh,kw) order.
  EXPECT_EQ(buf.at(0, 0), 0);
  EXPECT_EQ(buf.at(1, 0), 1);
  EXPECT_EQ(buf.at(2, 0), 3);
  EXPECT_EQ(buf.at(3, 0), 4);
  EXPECT_EQ(stats.pipeline_iterations, 9);
}

TEST(Swu, PaddingZeroFills) {
  SlidingWindowUnit swu(3, 1, 1);
  IntImage in(1, 2, 2);
  in.data = {1, 2, 3, 4};
  WindowBuffer buf = swu.run(in, nullptr);
  EXPECT_EQ(buf.cols, 4);
  // Top-left window's first element is padding.
  EXPECT_EQ(buf.at(0, 0), 0);
}

TEST(Swu, Stride2Pad1TwoChannelsMatchesIm2col) {
  // 2 x 5 x 5 input, k=3, stride 2, pad 1 -> 3 x 3 output, 18 window rows.
  SlidingWindowUnit swu(3, 2, 1);
  IntImage in(2, 5, 5);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    in.data[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i + 1);
  }
  const WindowBuffer buf = swu.run(in, nullptr);
  ASSERT_EQ(buf.rows, 18);
  ASSERT_EQ(buf.cols, 9);
  for (std::int64_t r = 0; r < buf.rows; ++r) {
    const std::int64_t c = r / 9;
    const std::int64_t kh = (r / 3) % 3;
    const std::int64_t kw = r % 3;
    for (std::int64_t px = 0; px < buf.cols; ++px) {
      const std::int64_t ih = (px / 3) * 2 + kh - 1;
      const std::int64_t iw = (px % 3) * 2 + kw - 1;
      const bool inside = ih >= 0 && ih < 5 && iw >= 0 && iw < 5;
      EXPECT_EQ(buf.at(r, px), inside ? in.at(c, ih, iw) : 0) << "r=" << r << " px=" << px;
    }
  }
  // Hand-checked corners: output (0,0) covers input rows/cols -1..1, so its
  // ch0 window is {0,0,0, 0,1,2, 0,6,7}; output (2,2) covers 3..5, so its
  // ch1 window ends {.., 49,50,0, 0,0,0} (ch1 starts at value 26).
  const std::vector<std::int32_t> first_ch0 = {0, 0, 0, 0, 1, 2, 0, 6, 7};
  const std::vector<std::int32_t> last_ch1 = {44, 45, 0, 49, 50, 0, 0, 0, 0};
  for (std::int64_t r = 0; r < 9; ++r) {
    EXPECT_EQ(buf.at(r, 0), first_ch0[static_cast<std::size_t>(r)]) << "r=" << r;
    EXPECT_EQ(buf.at(9 + r, 8), last_ch1[static_cast<std::size_t>(r)]) << "r=" << r;
  }
}

TEST(Mvtu, SimpleDotProduct) {
  // 1 output channel, 1 input channel, k=1, PE=SIMD=1, no thresholds.
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 1, 1, 1, 1, 1);
  mvtu.load(1, 1, {2}, ThresholdBank{});
  WindowBuffer buf;
  buf.rows = 1;
  buf.cols = 3;
  buf.data = {5, -1, 0};
  ModuleStats stats;
  IntImage out = mvtu.run(buf, 1, 3, &stats);
  EXPECT_EQ(out.data[0], 10);
  EXPECT_EQ(out.data[1], -2);
  EXPECT_EQ(out.data[2], 0);
  EXPECT_EQ(stats.pipeline_iterations, 3);  // 3 pixels * 1 nf * 1 sf
}

TEST(Mvtu, FoldingDoesNotChangeResult) {
  // 4 outputs, 8 inputs: run with (PE, SIMD) in {(1,1),(2,4),(4,8)} and
  // expect identical accumulators.
  std::vector<std::int8_t> weights(4 * 8);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<std::int8_t>((i % 3) - 1);
  }
  WindowBuffer buf;
  buf.rows = 8;
  buf.cols = 2;
  buf.data = {1, 2, 3, 0, -1, 2, 1, 1, 0, 3, 1, -2, 2, 0, 1, 2};

  std::vector<IntImage> results;
  for (auto [pe, simd] : std::vector<std::pair<int, int>>{{1, 1}, {2, 4}, {4, 8}}) {
    MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 8, 4, 1, pe, simd);
    mvtu.load(8, 4, weights, ThresholdBank{});
    results.push_back(mvtu.run(buf, 1, 2, nullptr));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[r].data, results[0].data);
  }
}

TEST(Mvtu, PipelineIterationsFollowFolding) {
  std::vector<std::int8_t> weights(4 * 8, 1);
  WindowBuffer buf;
  buf.rows = 8;
  buf.cols = 5;
  buf.data.assign(40, 1);
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 8, 4, 1, 2, 4);
  mvtu.load(8, 4, weights, ThresholdBank{});
  ModuleStats stats;
  mvtu.run(buf, 1, 5, &stats);
  // 5 pixels * (4/2) neuron folds * (8/4) synapse folds = 20.
  EXPECT_EQ(stats.pipeline_iterations, 20);
}

TEST(Mvtu, FixedRefusesDifferentGeometry) {
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 8, 4, 1, 2, 4);
  EXPECT_THROW(mvtu.load(4, 4, std::vector<std::int8_t>(16, 0), ThresholdBank{}), FoldingError);
  EXPECT_THROW(mvtu.load(8, 2, std::vector<std::int8_t>(16, 0), ThresholdBank{}), FoldingError);
}

TEST(Mvtu, FlexibleAcceptsSmallerGeometry) {
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFlexible, 8, 4, 1, 2, 4);
  EXPECT_NO_THROW(mvtu.load(8, 2, std::vector<std::int8_t>(16, 0), ThresholdBank{}));
  EXPECT_THROW(mvtu.load(16, 4, std::vector<std::int8_t>(64, 0), ThresholdBank{}), FoldingError);
}

TEST(Mvtu, FlexibleRuntimeChannelsMustKeepLanesFed) {
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFlexible, 8, 4, 1, 2, 4);
  // ch_out = 3 not divisible by PE = 2.
  EXPECT_THROW(mvtu.load(8, 3, std::vector<std::int8_t>(24, 0), ThresholdBank{}), FoldingError);
  // ch_in = 6 not divisible by SIMD = 4.
  EXPECT_THROW(mvtu.load(6, 4, std::vector<std::int8_t>(24, 0), ThresholdBank{}), FoldingError);
}

TEST(Mvtu, WeightSizeValidated) {
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 8, 4, 1, 1, 1);
  EXPECT_THROW(mvtu.load(8, 4, std::vector<std::int8_t>(31, 0), ThresholdBank{}), ConfigError);
}

TEST(Mvtu, AppliesThresholds) {
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 1, 1, 1, 1, 1);
  ThresholdBank bank;
  bank.act_bits = 2;
  ChannelThresholds ct;
  ct.direction = 1;
  ct.thresholds = {2, 5, 9};
  bank.channels = {ct};
  mvtu.load(1, 1, {1}, bank);
  WindowBuffer buf;
  buf.rows = 1;
  buf.cols = 4;
  buf.data = {0, 3, 6, 20};
  IntImage out = mvtu.run(buf, 1, 4, nullptr);
  EXPECT_EQ(out.data[0], 0);
  EXPECT_EQ(out.data[1], 1);
  EXPECT_EQ(out.data[2], 2);
  EXPECT_EQ(out.data[3], 3);
}

TEST(Mvtu, MatchesFoldLoopReferenceOnRandomGeometries) {
  Rng rng(20221);
  auto pick = [&rng](const std::vector<std::int64_t>& options) {
    return options[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
  };
  for (int trial = 0; trial < 24; ++trial) {
    const std::int64_t kernel = trial % 2 == 0 ? 1 : 3;
    const AcceleratorVariant variant =
        trial % 4 < 2 ? AcceleratorVariant::kFixed : AcceleratorVariant::kFlexible;
    const std::int64_t cap_in = 4 * rng.uniform_int(1, 4);
    const std::int64_t cap_out = 2 * rng.uniform_int(1, 6);
    // Flexible loads a pruned geometry: half the channels when that keeps the
    // lanes fed (pe | ch_out, simd | cap_in and simd | k^2 ch_in).
    const bool pruned = variant == AcceleratorVariant::kFlexible;
    const std::int64_t ch_in = pruned ? cap_in / 2 : cap_in;
    const std::int64_t ch_out = pruned ? cap_out / 2 : cap_out;
    const std::int64_t pe = pick(divisors_of(ch_out));  // also divides cap_out
    const std::int64_t simd = pick(divisors_of(ch_in));  // also divides cap_in, k^2 ch_in

    const std::int64_t synapse_rows = kernel * kernel * ch_in;
    std::vector<std::int8_t> weights(static_cast<std::size_t>(ch_out * synapse_rows));
    for (auto& w : weights) {
      w = static_cast<std::int8_t>(rng.uniform_int(-2, 1));
    }
    // Every third trial has no thresholds (raw accumulator output).
    const ThresholdBank bank = trial % 3 == 2 ? ThresholdBank{} : random_bank(rng, ch_out);

    const std::int64_t dim = rng.uniform_int(3, 6);
    IntImage in(ch_in, dim, dim);
    for (auto& v : in.data) {
      v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    }
    const SlidingWindowUnit swu(kernel, 1, kernel / 2);
    const WindowBuffer windows = swu.run(in, nullptr);
    const std::int64_t out_dim = swu.out_dim(dim);

    MatrixVectorThresholdUnit mvtu(variant, cap_in, cap_out, kernel, pe, simd);
    mvtu.load(ch_in, ch_out, weights, bank);
    ModuleStats stats;
    const IntImage got = mvtu.run(windows, out_dim, out_dim, &stats);
    const MvtuReference want =
        reference_mvtu(weights, bank, ch_out, pe, simd, windows, out_dim, out_dim);
    EXPECT_EQ(got.data, want.out.data) << "trial " << trial;
    EXPECT_EQ(stats.pipeline_iterations, want.pipeline_iterations) << "trial " << trial;
  }
}

TEST(Mvtu, ThrowsWhenAccumulatorCouldOverflow) {
  // sum|w| = 510; 510 * 4210752 = 2147483520 <= INT32_MAX < 510 * 4210753.
  const std::vector<std::int8_t> weights = {127, -128, 127, -128};
  MatrixVectorThresholdUnit mvtu(AcceleratorVariant::kFixed, 4, 1, 1, 1, 4);
  mvtu.load(4, 1, weights, ThresholdBank{});
  const std::int32_t limit = 4210752;
  ASSERT_LE(510LL * limit, std::numeric_limits<std::int32_t>::max());
  ASSERT_GT(510LL * (limit + 1), std::numeric_limits<std::int32_t>::max());

  WindowBuffer buf;
  buf.rows = 4;
  buf.cols = 2;
  buf.data = {limit, -limit, limit, -limit, -limit, limit, -limit, limit};
  const IntImage out = mvtu.run(buf, 1, 2, nullptr);
  EXPECT_EQ(out.data[0], 510 * limit);   // exact, just below the limit
  EXPECT_EQ(out.data[1], -510 * limit);

  buf.data[5] = limit + 1;  // one element past the bound anywhere in the buffer
  EXPECT_THROW(mvtu.run(buf, 1, 2, nullptr), FoldingError);
  buf.data[5] = std::numeric_limits<std::int32_t>::min();
  EXPECT_THROW(mvtu.run(buf, 1, 2, nullptr), FoldingError);
}

TEST(MaxPool, FixedPoolsChannels) {
  MaxPoolUnit pool(AcceleratorVariant::kFixed, 2, 2);
  pool.set_channels(2);
  IntImage in(2, 2, 2);
  in.data = {1, 5, 2, 3, /*ch1*/ 9, 0, 0, 0};
  ModuleStats stats;
  IntImage out = pool.run(in, &stats);
  EXPECT_EQ(out.channels, 2);
  EXPECT_EQ(out.data[0], 5);
  EXPECT_EQ(out.data[1], 9);
  EXPECT_EQ(stats.idle_unit_ops, 0);
}

TEST(MaxPool, FlexibleCountsIdleUnits) {
  MaxPoolUnit pool(AcceleratorVariant::kFlexible, 8, 2);
  pool.set_channels(2);  // 6 of 8 unrolled units unfed
  IntImage in(2, 4, 4);
  ModuleStats stats;
  pool.run(in, &stats);
  // 2x2 output windows = 4; idle = 4 * (8 - 2).
  EXPECT_EQ(stats.idle_unit_ops, 4 * 6);
  EXPECT_EQ(stats.pipeline_iterations, 4);
}

TEST(MaxPool, FixedRefusesChannelChange) {
  MaxPoolUnit pool(AcceleratorVariant::kFixed, 4, 2);
  EXPECT_THROW(pool.set_channels(2), FoldingError);
  EXPECT_NO_THROW(pool.set_channels(4));
}

TEST(MaxPool, FlexibleRefusesOverCapacity) {
  MaxPoolUnit pool(AcceleratorVariant::kFlexible, 4, 2);
  EXPECT_THROW(pool.set_channels(8), FoldingError);
}

TEST(VariantName, Strings) {
  EXPECT_STREQ(variant_name(AcceleratorVariant::kFixed), "Fixed");
  EXPECT_STREQ(variant_name(AcceleratorVariant::kFlexible), "Flexible");
}

}  // namespace
}  // namespace adaflow::hls
