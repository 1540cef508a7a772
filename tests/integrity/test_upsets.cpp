#include <gtest/gtest.h>

#include <memory>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/integrity/runner.hpp"

namespace adaflow::integrity {
namespace {

edge::WorkloadTrace steady_trace(double rate, double duration_s, std::uint64_t seed) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.0, duration_s, duration_s}};
  return edge::WorkloadTrace(c, seed);
}

/// The unpruned version on the Flexible overlay, never acting — for
/// cross-section tests.
std::unique_ptr<edge::ServingPolicy> flexible_pinned(const core::AcceleratorLibrary& lib) {
  return std::make_unique<core::PinnedPolicy>(lib, 0, hls::AcceleratorVariant::kFlexible);
}

TEST(ConfigUpsetSchedule, RejectsBadSpecs) {
  EXPECT_THROW(faults::FaultInjector(faults::config_upset_storm(5.0, 1.0, 2.0), 7), ConfigError);
  EXPECT_THROW(faults::FaultInjector(faults::config_upset_storm(0.0, 10.0, -2.0), 7),
               ConfigError);
  EXPECT_NO_THROW(faults::FaultInjector(faults::config_upset_storm(0.0, 10.0, 2.0), 7));
}

TEST(ConfigUpsetSchedule, ResolvedAtConstructionAndSeedDeterministic) {
  const faults::FaultSchedule storm = faults::config_upset_storm(2.0, 12.0, 1.5, 0.1, 0.3);
  faults::FaultInjector a(storm, 42);
  faults::FaultInjector b(storm, 42);
  faults::FaultInjector c(storm, 43);

  ASSERT_EQ(a.config_upset_events().size(), b.config_upset_events().size());
  for (std::size_t i = 0; i < a.config_upset_events().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.config_upset_events()[i].time_s, b.config_upset_events()[i].time_s);
    EXPECT_DOUBLE_EQ(a.config_upset_events()[i].accuracy_penalty, 0.1);
    EXPECT_DOUBLE_EQ(a.config_upset_events()[i].flexible_cross_section, 0.3);
  }
  // A different seed draws a different Poisson stream (times, and almost
  // surely count, differ).
  bool differs = a.config_upset_events().size() != c.config_upset_events().size();
  for (std::size_t i = 0; !differs && i < a.config_upset_events().size(); ++i) {
    differs = a.config_upset_events()[i].time_s != c.config_upset_events()[i].time_s;
  }
  EXPECT_TRUE(differs);
}

TEST(ConfigUpsetSchedule, ArrivalsStayInsideTheWindowAndNearTheRate) {
  faults::FaultInjector inj(faults::config_upset_storm(3.0, 23.0, 2.0), 9);
  double prev = 0.0;
  for (const faults::ConfigUpsetEvent& u : inj.config_upset_events()) {
    EXPECT_GE(u.time_s, 3.0);
    EXPECT_LT(u.time_s, 23.0);
    EXPECT_GE(u.time_s, prev);  // time-ascending
    prev = u.time_s;
  }
  // 20 s at 2/s: expect ~40; accept a wide Poisson band.
  const std::size_t n = inj.config_upset_events().size();
  EXPECT_GE(n, 15u);
  EXPECT_LE(n, 75u);
}

TEST(ConfigUpsets, LandOnTheDeviceAndCorruptDeliveredFrames) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.0;  // no detection, no repair
  const edge::RunMetrics m = run_integrity(
      steady_trace(300.0, 20.0, 5), std::make_unique<core::StaticFinnPolicy>(lib), lib, config,
      faults::config_upset_storm(2.0, 20.0, 0.5), 5);

  EXPECT_GT(m.integrity.upsets_injected, 0);
  EXPECT_GT(m.integrity.wrong_frames, 0);
  EXPECT_GT(m.integrity.corrupt_time_s, 0.0);
  // Unprotected run: corruption persists to the end of the run.
  EXPECT_EQ(m.integrity.repairs, 0);
  EXPECT_EQ(m.integrity.canaries_sent, 0);
  // Wrong frames still count as delivered — QoE is charged, not throughput.
  EXPECT_LE(m.integrity.wrong_frames, m.processed);
}

TEST(ConfigUpsets, FlexibleCrossSectionScalesThePenalty) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.0;

  // Cross-section 0: with the Flexible overlay loaded no essential config
  // bit is exposed, so the scheduled upsets never land — no corruption, no
  // wrong frames, nothing in the ledger.
  const edge::RunMetrics immune = run_integrity(
      steady_trace(300.0, 20.0, 5), flexible_pinned(lib), lib, config,
      faults::config_upset_storm(2.0, 20.0, 0.5, 0.08, /*flexible_cross_section=*/0.0), 5);
  EXPECT_EQ(immune.integrity.upsets_injected, 0);
  EXPECT_EQ(immune.integrity.wrong_frames, 0);
  EXPECT_DOUBLE_EQ(immune.integrity.corrupt_time_s, 0.0);

  // Full cross-section: the same schedule corrupts the overlay like a Fixed
  // bitstream.
  const edge::RunMetrics exposed = run_integrity(
      steady_trace(300.0, 20.0, 5), flexible_pinned(lib), lib, config,
      faults::config_upset_storm(2.0, 20.0, 0.5, 0.08, /*flexible_cross_section=*/1.0), 5);
  EXPECT_GT(exposed.integrity.wrong_frames, 0);
}

TEST(ConfigUpsets, ReplayIsBitIdenticalForTheSameSeed) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.25;
  config.policy.scrub_period_s = 4.0;
  const faults::FaultSchedule storm = faults::config_upset_storm(1.0, 18.0, 0.8);

  const edge::RunMetrics a =
      run_integrity(steady_trace(400.0, 20.0, 11), std::make_unique<core::StaticFinnPolicy>(lib),
                    lib, config, storm, 11);
  const edge::RunMetrics b =
      run_integrity(steady_trace(400.0, 20.0, 11), std::make_unique<core::StaticFinnPolicy>(lib),
                    lib, config, storm, 11);

  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_DOUBLE_EQ(a.qoe_accuracy_sum, b.qoe_accuracy_sum);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.integrity, b.integrity);
}

}  // namespace
}  // namespace adaflow::integrity
