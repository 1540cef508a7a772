#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/edge/server_types.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow {
namespace {

sim::TimeSeries series(std::vector<double> values, double interval = 0.5) {
  sim::TimeSeries s;
  s.interval_s = interval;
  s.values = std::move(values);
  return s;
}

TEST(SeriesMerge, EmptyIsTheIdentity) {
  const sim::TimeSeries a = series({1.0, 2.0, 3.0});
  const sim::TimeSeries empty;
  EXPECT_EQ(sim::merge_sum_series(a, empty).values, a.values);
  EXPECT_EQ(sim::merge_sum_series(empty, a).values, a.values);
  EXPECT_EQ(sim::merge_max_series(empty, a).values, a.values);
  EXPECT_EQ(sim::merge_weighted_series(a, {1, 1, 1}, empty, {}).values, a.values);
  EXPECT_TRUE(sim::merge_sum_series(empty, empty).values.empty());
  // The identity preserves the surviving operand's interval.
  EXPECT_DOUBLE_EQ(sim::merge_sum_series(empty, a).interval_s, 0.5);
}

TEST(SeriesMerge, SumAndMaxAreElementWiseAndTruncateToShorter) {
  const sim::TimeSeries a = series({1.0, 2.0, 3.0});
  const sim::TimeSeries b = series({10.0, 1.0});
  const sim::TimeSeries sum = sim::merge_sum_series(a, b);
  ASSERT_EQ(sum.values.size(), 2u);
  EXPECT_DOUBLE_EQ(sum.values[0], 11.0);
  EXPECT_DOUBLE_EQ(sum.values[1], 3.0);
  const sim::TimeSeries mx = sim::merge_max_series(a, b);
  ASSERT_EQ(mx.values.size(), 2u);
  EXPECT_DOUBLE_EQ(mx.values[0], 10.0);
  EXPECT_DOUBLE_EQ(mx.values[1], 2.0);
}

TEST(SeriesMerge, SumIsAssociative) {
  const sim::TimeSeries a = series({1.0, 2.0});
  const sim::TimeSeries b = series({4.0, 8.0});
  const sim::TimeSeries c = series({16.0, 32.0});
  const auto left = sim::merge_sum_series(sim::merge_sum_series(a, b), c);
  const auto right = sim::merge_sum_series(a, sim::merge_sum_series(b, c));
  EXPECT_EQ(left.values, right.values);
}

TEST(SeriesMerge, WeightedMergeIsTheWeightProportionalMean) {
  // Window 0: loss 0.5 over 100 frames + loss 0.1 over 300 frames -> 0.2.
  // Window 1: both sides idle -> 0.
  const sim::TimeSeries a = series({0.5, 0.0});
  const sim::TimeSeries b = series({0.1, 0.0});
  const auto merged = sim::merge_weighted_series(a, {100.0, 0.0}, b, {300.0, 0.0});
  ASSERT_EQ(merged.values.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.values[0], 0.2);
  EXPECT_DOUBLE_EQ(merged.values[1], 0.0);
}

TEST(SeriesMerge, WeightedMergeIsAssociativeForIntegerWeights) {
  const sim::TimeSeries a = series({0.5});
  const sim::TimeSeries b = series({0.25});
  const sim::TimeSeries c = series({1.0});
  const std::vector<double> wa = {4.0}, wb = {8.0}, wc = {4.0};
  // Associativity needs each intermediate to carry the combined weight —
  // exactly what the sharded reduction does via the summed workload series.
  const auto ab = sim::merge_weighted_series(a, wa, b, wb);
  const auto left = sim::merge_weighted_series(ab, {12.0}, c, wc);
  const auto bc = sim::merge_weighted_series(b, wb, c, wc);
  const auto right = sim::merge_weighted_series(a, wa, bc, {12.0});
  ASSERT_EQ(left.values.size(), 1u);
  EXPECT_DOUBLE_EQ(left.values[0], right.values[0]);
  EXPECT_DOUBLE_EQ(left.values[0], 0.5);  // (4*0.5 + 8*0.25 + 4*1.0) / 16
}

TEST(LatencyHistogramMerge, EmptyIsTheIdentityAndMergeIsAssociative) {
  sim::LatencyHistogram a, b, c;
  for (double s : {0.001, 0.01, 0.02}) {
    a.record(s);
  }
  for (double s : {0.1, 0.25}) {
    b.record(s);
  }
  c.record(1.5);

  sim::LatencyHistogram identity_check = a;
  identity_check.merge(sim::LatencyHistogram{});
  EXPECT_TRUE(identity_check.identical(a));
  sim::LatencyHistogram from_empty;
  from_empty.merge(a);
  EXPECT_TRUE(from_empty.identical(a));

  sim::LatencyHistogram left = a;
  left.merge(b);
  left.merge(c);
  sim::LatencyHistogram bc = b;
  bc.merge(c);
  sim::LatencyHistogram right = a;
  right.merge(bc);
  EXPECT_TRUE(left.identical(right));
  EXPECT_EQ(left.count(), 6);
  EXPECT_DOUBLE_EQ(left.min_s(), 0.001);
  EXPECT_DOUBLE_EQ(left.max_s(), 1.5);
}

edge::RunMetrics sample_run_metrics(std::int64_t scale) {
  edge::RunMetrics m;
  m.arrived = 100 * scale;
  m.processed = 90 * scale;
  m.lost = 10 * scale;
  m.qoe_accuracy_sum = 81.0 * static_cast<double>(scale);
  m.energy_j = 5.0 * static_cast<double>(scale);
  m.duration_s = 10.0;
  m.model_switches = static_cast<int>(scale);
  m.workload_series = series({10.0 * static_cast<double>(scale)});
  m.loss_series = series({0.1});
  m.qoe_series = series({0.8});
  m.power_series = series({0.5 * static_cast<double>(scale)});
  m.integrity.upsets_injected = 2 * scale;
  m.integrity.wrong_frames = 15 * scale;
  m.integrity.canaries_sent = 8 * scale;
  m.integrity.corrupt_time_s = 0.5 * static_cast<double>(scale);
  // Exact binary fraction: sum_s stays bit-exact under any merge order.
  m.e2e_latency.record(0.015625 * static_cast<double>(scale));
  return m;
}

TEST(RunMetricsMerge, DefaultConstructedIsTheIdentity) {
  const edge::RunMetrics m = sample_run_metrics(2);
  edge::RunMetrics merged;
  merged.merge(m);
  EXPECT_EQ(merged.arrived, m.arrived);
  EXPECT_EQ(merged.processed, m.processed);
  EXPECT_EQ(merged.lost, m.lost);
  EXPECT_DOUBLE_EQ(merged.qoe_accuracy_sum, m.qoe_accuracy_sum);
  EXPECT_DOUBLE_EQ(merged.duration_s, m.duration_s);
  EXPECT_EQ(merged.workload_series.values, m.workload_series.values);
  EXPECT_EQ(merged.loss_series.values, m.loss_series.values);
  EXPECT_TRUE(merged.e2e_latency.identical(m.e2e_latency));
}

TEST(RunMetricsMerge, IsAssociativeAndWeightsLossByWorkload) {
  const edge::RunMetrics a = sample_run_metrics(1);
  const edge::RunMetrics b = sample_run_metrics(2);
  const edge::RunMetrics c = sample_run_metrics(4);

  edge::RunMetrics left = a;
  left.merge(b);
  left.merge(c);
  edge::RunMetrics bc = b;
  bc.merge(c);
  edge::RunMetrics right = a;
  right.merge(bc);

  EXPECT_EQ(left.arrived, right.arrived);
  EXPECT_EQ(left.arrived, 700);
  EXPECT_EQ(left.processed, right.processed);
  EXPECT_DOUBLE_EQ(left.qoe_accuracy_sum, right.qoe_accuracy_sum);
  EXPECT_EQ(left.workload_series.values, right.workload_series.values);
  EXPECT_EQ(left.loss_series.values, right.loss_series.values);
  EXPECT_TRUE(left.e2e_latency.identical(right.e2e_latency));
  // All three substreams report loss 0.1, so any weighting returns 0.1.
  EXPECT_DOUBLE_EQ(left.loss_series.values[0], 0.1);
  // Workload adds: 10 + 20 + 40.
  EXPECT_DOUBLE_EQ(left.workload_series.values[0], 70.0);
  // The per-device integrity ledger adds like the frame counters.
  EXPECT_EQ(left.integrity.upsets_injected, 14);
  EXPECT_EQ(left.integrity.wrong_frames, 105);
  EXPECT_EQ(left.integrity.canaries_sent, 56);
  EXPECT_DOUBLE_EQ(left.integrity.corrupt_time_s, 3.5);
}

fleet::FleetMetrics sample_fleet_metrics(std::int64_t scale) {
  fleet::FleetMetrics m;
  m.arrived = 1000 * scale;
  m.dispatched = 900 * scale;
  m.ingress_lost = 80 * scale;
  m.ingress_backlog = 20 * scale;
  m.processed = 850 * scale;
  m.device_lost = 50 * scale;
  m.qoe_accuracy_sum = 700.0 * static_cast<double>(scale);
  m.energy_j = 12.0 * static_cast<double>(scale);
  m.duration_s = 10.0;
  m.tail_latency_p95_s = 0.01 * static_cast<double>(scale);
  m.workload_series = series({100.0 * static_cast<double>(scale)});
  m.loss_series = series({0.1});
  m.qoe_series = series({0.7});
  m.backlog_series = series({0.02 * static_cast<double>(scale)});
  m.integrity.upsets_injected = 5 * scale;
  m.integrity.wrong_frames = 40 * scale;
  m.integrity.corrupt_time_s = 1.5 * static_cast<double>(scale);
  m.integrity.canaries_sent = 20 * scale;
  m.integrity.canaries_failed = 6 * scale;
  m.integrity.detections = 2 * scale;
  m.integrity.scrubs = 3 * scale;
  m.integrity.repairs = 2 * scale;
  fleet::FleetDeviceResult d;
  d.name = "dev" + std::to_string(scale);
  d.metrics = sample_run_metrics(scale);
  m.devices.push_back(d);
  return m;
}

TEST(FleetMetricsMerge, IdentityAssociativityAndWorstOfSemantics) {
  const fleet::FleetMetrics a = sample_fleet_metrics(1);
  const fleet::FleetMetrics b = sample_fleet_metrics(3);

  fleet::FleetMetrics identity;
  identity.merge(a);
  EXPECT_EQ(shard::metrics_fingerprint(identity), shard::metrics_fingerprint(a));

  const fleet::FleetMetrics c = sample_fleet_metrics(5);
  fleet::FleetMetrics left = a;
  left.merge(b);
  left.merge(c);
  fleet::FleetMetrics bc = b;
  bc.merge(c);
  fleet::FleetMetrics right = a;
  right.merge(bc);
  EXPECT_EQ(shard::metrics_fingerprint(left), shard::metrics_fingerprint(right));

  // Worst-of fields take the max; counters add; device rows concatenate.
  EXPECT_DOUBLE_EQ(left.tail_latency_p95_s, 0.05);
  EXPECT_DOUBLE_EQ(left.backlog_series.values[0], 0.10);
  EXPECT_EQ(left.arrived, 9000);
  // The silent-corruption ledger is additive like the other counters.
  EXPECT_EQ(left.integrity.upsets_injected, 45);
  EXPECT_EQ(left.integrity.wrong_frames, 360);
  EXPECT_DOUBLE_EQ(left.integrity.corrupt_time_s, 13.5);
  EXPECT_EQ(left.integrity.canaries_sent, 180);
  EXPECT_EQ(left.integrity.detections, 18);
  EXPECT_EQ(left.integrity.repairs, 18);
  ASSERT_EQ(left.devices.size(), 3u);
  EXPECT_EQ(left.devices[0].name, "dev1");
  EXPECT_EQ(left.devices[2].name, "dev5");
  // Flow conservation survives the merge.
  EXPECT_EQ(left.arrived + left.redispatched,
            left.dispatched + left.ingress_lost + left.ingress_backlog);
}

// --- field lists and the operations derived from them -----------------------

// A field missing from a stats struct's list fails the build: every field is
// 8 bytes wide, so the list must account for the whole struct.
static_assert(sim::field_count<sim::FaultStats>() * 8 == sizeof(sim::FaultStats));
static_assert(sim::field_count<sim::IntegrityStats>() * 8 == sizeof(sim::IntegrityStats));
static_assert(sim::field_count<sim::ForecastStats>() * 8 == sizeof(sim::ForecastStats));
static_assert(sim::field_count<sim::DetectionStats>() * 8 == sizeof(sim::DetectionStats));
static_assert(sim::field_count<sim::FaultStats>() + sim::field_count<sim::IntegrityStats>() +
                  sim::field_count<sim::ForecastStats>() +
                  sim::field_count<sim::DetectionStats>() ==
              46);

TEST(FieldLists, CountTheAdditiveScalars) {
  EXPECT_EQ(sim::field_count<edge::RunMetrics>(), 9u);
  EXPECT_EQ(sim::field_count<fleet::FleetMetrics>(), 15u);
  EXPECT_EQ(sim::field_count<fleet::TenantUsage>(), 8u);
}

TEST(FieldLists, DivideRoundsCountsHalfAwayFromZeroAndDividesDoublesExactly) {
  sim::ForecastStats s;
  s.forecasts = 5;           // 2.5 -> 3
  s.abs_pct_error_sum = 1.0;
  s.interval_hits = 7;       // 3.5 -> 4
  s.changepoints = -5;       // -2.5 -> -3
  s.burst_windows = 1;       // 0.5 -> 1
  sim::divide(s, 2);
  EXPECT_EQ(s.forecasts, 3);
  EXPECT_EQ(s.abs_pct_error_sum, 0.5);
  EXPECT_EQ(s.interval_hits, 4);
  EXPECT_EQ(s.changepoints, -3);
  EXPECT_EQ(s.burst_windows, 1);

  sim::FaultStats f;
  f.switch_retries = 4;  // 4/3 = 1.33 -> 1
  f.fallbacks = 5;       // 5/3 = 1.67 -> 2
  f.time_degraded_s = 1.0;
  sim::divide(f, 3);
  EXPECT_EQ(f.switch_retries, 1);
  EXPECT_EQ(f.fallbacks, 2);
  EXPECT_EQ(f.time_degraded_s, 1.0 / 3.0);  // bit-exact, not approx

  // int fields (RunMetrics' switch counters) round the same way.
  edge::RunMetrics m;
  m.model_switches = 5;
  m.reconfigurations = 3;
  m.energy_j = 7.0;
  sim::divide(m, 2);
  EXPECT_EQ(m.model_switches, 3);
  EXPECT_EQ(m.reconfigurations, 2);
  EXPECT_EQ(m.energy_j, 3.5);
  EXPECT_THROW(sim::divide(f, 0), ConfigError);
}

TEST(FieldLists, AccumulateAddsEveryFieldAndEqualityComparesEveryField) {
  sim::DetectionStats a;
  std::int64_t k = 0;
  sim::DetectionStats::for_each_field([&k](auto& v) { v += ++k; }, a);
  sim::DetectionStats sum;
  sim::accumulate(sum, a);
  sim::accumulate(sum, a);
  k = 0;
  sim::DetectionStats::for_each_field([&k](const auto& v) { EXPECT_EQ(v, 2 * ++k); }, sum);
  sim::divide(sum, 2);
  EXPECT_EQ(sum, a);
  sum.postprocess_s += 1.0;
  EXPECT_NE(sum, a);
  EXPECT_FALSE(sim::fields_equal(sum, a));
}

/// Adds 1 to field \p i of \p t's for_each_field list.
template <class T>
void bump_field(T& t, std::size_t i) {
  std::size_t k = 0;
  T::for_each_field([&](auto& v) { v += (k++ == i) ? 1 : 0; }, t);
}

/// A fleet run with every part of the fingerprinted state non-trivial: a
/// device row, a tenant row, switch records and all histograms.
fleet::FleetMetrics fingerprint_fixture() {
  fleet::FleetMetrics m = sample_fleet_metrics(2);
  m.e2e_latency.record(0.25);
  m.devices[0].metrics.switches.push_back(edge::SwitchRecord{1.5, "M@p50", "Fixed", true});
  m.devices[0].metrics.forecast_actual_series = series({100.0});
  m.devices[0].metrics.forecast_pred_series = series({90.0});
  fleet::TenantUsage t;
  t.name = "gold";
  t.latency.record(0.03125);
  m.tenants.push_back(t);
  return m;
}

/// Asserts that bumping any field of the record \p get selects moves the
/// fingerprint.
template <class T>
void expect_every_field_hashed(const std::string& what,
                               const std::function<T&(fleet::FleetMetrics&)>& get) {
  const fleet::FleetMetrics base = fingerprint_fixture();
  const std::string ref = shard::metrics_fingerprint(base);
  for (std::size_t i = 0; i < sim::field_count<T>(); ++i) {
    fleet::FleetMetrics m = base;
    bump_field(get(m), i);
    EXPECT_NE(shard::metrics_fingerprint(m), ref) << what << " field " << i;
  }
}

TEST(MetricsFingerprint, EveryListedFieldMovesIt) {
  using FM = fleet::FleetMetrics;
  expect_every_field_hashed<FM>("fleet", [](FM& m) -> FM& { return m; });
  expect_every_field_hashed<sim::FaultStats>("fleet faults",
                                             [](FM& m) -> auto& { return m.faults; });
  expect_every_field_hashed<sim::IntegrityStats>("fleet integrity",
                                                 [](FM& m) -> auto& { return m.integrity; });
  expect_every_field_hashed<sim::DetectionStats>("fleet detection",
                                                 [](FM& m) -> auto& { return m.detection; });
  expect_every_field_hashed<edge::RunMetrics>(
      "device", [](FM& m) -> auto& { return m.devices[0].metrics; });
  expect_every_field_hashed<sim::FaultStats>(
      "device faults", [](FM& m) -> auto& { return m.devices[0].metrics.faults; });
  expect_every_field_hashed<sim::ForecastStats>(
      "device forecast", [](FM& m) -> auto& { return m.devices[0].metrics.forecast; });
  expect_every_field_hashed<sim::IntegrityStats>(
      "device integrity", [](FM& m) -> auto& { return m.devices[0].metrics.integrity; });
  expect_every_field_hashed<sim::DetectionStats>(
      "device detection", [](FM& m) -> auto& { return m.devices[0].metrics.detection; });
  expect_every_field_hashed<fleet::TenantUsage>("tenant",
                                                [](FM& m) -> auto& { return m.tenants[0]; });
}

TEST(MetricsFingerprint, EveryRuleFieldMovesIt) {
  // The fields outside the lists: max-rule scalars, series, histograms,
  // switch records, names, and the per-row extras.
  const std::vector<std::pair<std::string, std::function<void(fleet::FleetMetrics&)>>> edits = {
      {"duration_s", [](auto& m) { m.duration_s += 1.0; }},
      {"tail_latency_p95_s", [](auto& m) { m.tail_latency_p95_s += 1.0; }},
      {"backlog_series", [](auto& m) { m.backlog_series.values[0] += 1.0; }},
      {"qoe_series interval", [](auto& m) { m.qoe_series.interval_s = 1.0; }},
      {"e2e max", [](auto& m) { m.e2e_latency.record(9.0); }},
      {"device name", [](auto& m) { m.devices[0].name = "other"; }},
      {"device duration_s", [](auto& m) { m.devices[0].metrics.duration_s += 1.0; }},
      {"device power_series", [](auto& m) { m.devices[0].metrics.power_series.values[0] += 1.0; }},
      {"device forecast_pred_series",
       [](auto& m) { m.devices[0].metrics.forecast_pred_series.values[0] += 1.0; }},
      {"device switch time",
       [](auto& m) { m.devices[0].metrics.switches[0].time_s += 1.0; }},
      {"device switch version",
       [](auto& m) { m.devices[0].metrics.switches[0].model_version = "M@p25"; }},
      {"device switch accelerator",
       [](auto& m) { m.devices[0].metrics.switches[0].accelerator = "Flexible"; }},
      {"device switch reconfiguration",
       [](auto& m) { m.devices[0].metrics.switches[0].reconfiguration = false; }},
      {"device e2e", [](auto& m) { m.devices[0].metrics.e2e_latency.record(0.5); }},
      {"device queued_at_end", [](auto& m) { m.devices[0].queued_at_end += 1; }},
      {"device quarantines", [](auto& m) { m.devices[0].quarantines += 1; }},
      {"device rejoins", [](auto& m) { m.devices[0].rejoins += 1; }},
      {"device final_health",
       [](auto& m) { m.devices[0].final_health = fleet::HealthState::kQuarantined; }},
      {"tenant name", [](auto& m) { m.tenants[0].name = "silver"; }},
      {"tenant latency", [](auto& m) { m.tenants[0].latency.record(0.5); }},
      {"extra device row", [](auto& m) { m.devices.emplace_back(); }},
      {"extra tenant row", [](auto& m) { m.tenants.emplace_back(); }},
  };
  const fleet::FleetMetrics base = fingerprint_fixture();
  const std::string ref = shard::metrics_fingerprint(base);
  for (const auto& [what, edit] : edits) {
    fleet::FleetMetrics m = base;
    edit(m);
    EXPECT_NE(shard::metrics_fingerprint(m), ref) << what;
  }
}

}  // namespace
}  // namespace adaflow
