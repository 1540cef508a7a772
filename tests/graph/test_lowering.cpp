/// Lowering-equivalence pins: the graph IR must be a front-end, not a fork.
/// from_cnv / from_mlp + lower_model reproduce the seed builders bit for bit
/// (serialized model bytes), lower_geometry matches hls::compile_geometry
/// stage by stage, and the analytical models (perf, fpga resources) read
/// identical numbers off both routes. Branchy graphs are rejected by
/// lower_model with the offending node named.

#include "adaflow/graph/lower.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "adaflow/common/error.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/fpga/resources.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/mlp.hpp"
#include "adaflow/nn/serialize.hpp"
#include "adaflow/perf/perf.hpp"

namespace adaflow::graph {
namespace {

std::string model_bytes(const nn::Model& model) {
  std::ostringstream out;
  nn::save_model(model, out);
  return out.str();
}

void expect_same_geometry(const hls::CompiledModel& a, const hls::CompiledModel& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  EXPECT_EQ(a.classes, b.classes);
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const hls::StageDesc& x = a.stages[i].desc;
    const hls::StageDesc& y = b.stages[i].desc;
    EXPECT_EQ(x.kind, y.kind) << "stage " << i;
    EXPECT_EQ(x.name, y.name) << "stage " << i;
    EXPECT_EQ(x.kernel, y.kernel) << "stage " << i;
    EXPECT_EQ(x.stride, y.stride) << "stage " << i;
    EXPECT_EQ(x.pad, y.pad) << "stage " << i;
    EXPECT_EQ(x.in_dim, y.in_dim) << "stage " << i;
    EXPECT_EQ(x.out_dim, y.out_dim) << "stage " << i;
    EXPECT_EQ(x.ch_in, y.ch_in) << "stage " << i;
    EXPECT_EQ(x.ch_out, y.ch_out) << "stage " << i;
  }
}

TEST(Lowering, CnvModelIsBitIdenticalToTheSeedBuilder) {
  const nn::CnvTopology topology = nn::cnv_w2a2(10, 8);
  const nn::Model seed = nn::build_cnv(topology, 7);
  const nn::Model routed = lower_model(from_cnv(topology), 7);
  EXPECT_EQ(model_bytes(seed), model_bytes(routed));
}

TEST(Lowering, MlpModelIsBitIdenticalToTheSeedBuilder) {
  const nn::MlpTopology topology = nn::tfc_w1a2(10, 2);
  const nn::Model seed = nn::build_mlp(topology, 11);
  const nn::Model routed = lower_model(from_mlp(topology), 11);
  EXPECT_EQ(model_bytes(seed), model_bytes(routed));
}

TEST(Lowering, CnvGeometryMatchesCompileGeometry) {
  const nn::CnvTopology topology = nn::cnv_w2a2(10, 8);
  expect_same_geometry(lower_geometry(from_cnv(topology)),
                       hls::compile_geometry(nn::build_cnv(topology, 7)));
}

TEST(Lowering, MlpGeometryMatchesCompileGeometry) {
  const nn::MlpTopology topology = nn::tfc_w1a2(10, 2);
  expect_same_geometry(lower_geometry(from_mlp(topology)),
                       hls::compile_geometry(nn::build_mlp(topology, 11)));
}

TEST(Lowering, AnalyticalModelsReadTheSameNumbersOffBothRoutes) {
  const nn::CnvTopology topology = nn::cnv_w2a2(10, 8);
  const hls::CompiledModel seed = hls::compile_geometry(nn::build_cnv(topology, 7));
  const Graph g = from_cnv(topology);
  const hls::CompiledModel routed = lower_geometry(g);
  const fpga::FpgaDevice device = fpga::zcu104();
  const hls::FoldingConfig folding = hls::folding_for_target_fps(seed, 450.0, device.clock_hz);

  for (hls::AcceleratorVariant variant :
       {hls::AcceleratorVariant::kFixed, hls::AcceleratorVariant::kFlexible}) {
    const perf::PerfReport a = perf::analyze(seed, folding, variant, device.clock_hz);
    const perf::PerfReport b = perf::analyze(routed, folding, variant, device.clock_hz);
    EXPECT_DOUBLE_EQ(a.fps, b.fps);
    EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);

    const nn::QuantSpec quant = quant_spec(g);
    EXPECT_EQ(quant.weight_bits, topology.quant.weight_bits);
    EXPECT_EQ(quant.act_bits, topology.quant.act_bits);
    const fpga::ResourceUsage ra = fpga::accelerator_resources(
        seed, folding, variant, quant.weight_bits, quant.act_bits);
    const fpga::ResourceUsage rb = fpga::accelerator_resources(
        routed, folding, variant, quant.weight_bits, quant.act_bits);
    EXPECT_DOUBLE_EQ(ra.luts, rb.luts);
    EXPECT_DOUBLE_EQ(ra.flip_flops, rb.flip_flops);
    EXPECT_DOUBLE_EQ(ra.bram18, rb.bram18);
    EXPECT_DOUBLE_EQ(ra.dsp, rb.dsp);
  }
}

TEST(Lowering, BranchyGraphIsRejectedByLowerModelNamingTheNode) {
  Graph g("branchy", 3, 8);
  const std::int64_t c0 = g.add_conv("c0", g.input(), 8, 3, 1, 1);
  const std::int64_t up = g.add_upsample("up", c0, 2);
  g.add_concat("cat", {c0, up});
  try {
    lower_model(g, 7);
    FAIL() << "branchy graph accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("up") != std::string::npos ||
                what.find("cat") != std::string::npos)
        << what;
  }
}

TEST(Lowering, AcceleratorRejectsConcatStageNamingIt) {
  // lower_geometry keeps branchy topologies for the analytical models, but
  // the functional dataflow model has no concat module: the accelerator
  // must refuse the stage instead of building an MVTU for it.
  Graph g("fused", 3, 8);
  const std::int64_t c0 = g.add_conv("c0", g.input(), 8, 3, 1, 1);
  const std::int64_t c1 = g.add_conv("c1", c0, 8, 3, 1, 1);
  g.add_concat("cat", {c0, c1});
  const hls::CompiledModel geometry = lower_geometry(g);
  ASSERT_EQ(geometry.stages.back().desc.kind, hls::StageKind::kConcat);
  const hls::FoldingConfig folding =
      hls::folding_for_target_fps(geometry, 100.0, fpga::zcu104().clock_hz);
  for (hls::AcceleratorVariant variant :
       {hls::AcceleratorVariant::kFixed, hls::AcceleratorVariant::kFlexible}) {
    try {
      hls::DataflowAccelerator accel(variant, geometry, folding);
      FAIL() << "concat stage accepted";
    } catch (const FoldingError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("stage cat (concat)"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace adaflow::graph
