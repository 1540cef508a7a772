#include "adaflow/edge/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::edge {
namespace {

std::vector<double> drain(ArrivalStream stream) {
  std::vector<double> out;
  while (const std::optional<double> t = stream.next()) {
    out.push_back(*t);
  }
  return out;
}

std::int64_t count_in(const std::vector<double>& times, double from, double to) {
  return std::count_if(times.begin(), times.end(),
                       [&](double t) { return t >= from && t < to; });
}

/// 500 FPS, silent over [2, 3), 500 FPS again until 5 s.
WorkloadTrace gap_trace() { return WorkloadTrace({0.0, 2.0, 3.0}, {500.0, 0.0, 500.0}, 5.0); }

TEST(ArrivalStream, DrawsNothingInsideAZeroRateGap) {
  const std::vector<double> times = drain(ArrivalStream(gap_trace(), 7));
  ASSERT_FALSE(times.empty());
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  // The gap is first seen at the arrival that crosses t = 2, which was drawn
  // at the pre-gap rate and may land inside it; from there the stream only
  // re-checks the rate every 0.05 s and draws nothing until the rate returns.
  EXPECT_LE(count_in(times, 2.0, 3.0), 1);
  const auto after = std::find_if(times.begin(), times.end(), [](double t) { return t >= 3.0; });
  ASSERT_NE(after, times.end());
  EXPECT_LT(*after, 3.1);  // resumes within one re-check step plus a 2 ms mean gap
  EXPECT_GT(count_in(times, 3.0, 5.0), 500);
}

TEST(ArrivalStream, LeadingZeroRateSegmentYieldsNothingBeforeTheRateRises) {
  const WorkloadTrace trace({0.0, 1.0}, {0.0, 400.0}, 2.0);
  const std::vector<double> times = drain(ArrivalStream(trace, 3));
  ASSERT_FALSE(times.empty());
  EXPECT_GE(times.front(), 1.0);
}

TEST(ArrivalStream, AllZeroTraceEndsWithoutArrivals) {
  const WorkloadTrace trace({0.0}, {0.0}, 3.0);
  ArrivalStream stream(trace, 1);
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ArrivalStream, YieldsNothingPastTheEndTime) {
  const WorkloadTrace trace = gap_trace();
  const std::vector<double> full = drain(ArrivalStream(trace, 11));
  ASSERT_FALSE(full.empty());
  EXPECT_LE(full.back(), trace.duration());

  ArrivalStream cut(trace, 11, /*end_s=*/1.5);
  std::vector<double> head;
  while (const std::optional<double> t = cut.next()) {
    head.push_back(*t);
  }
  ASSERT_FALSE(head.empty());
  EXPECT_LE(head.back(), 1.5);
  EXPECT_FALSE(cut.next().has_value());  // stays exhausted
  // An earlier end time truncates the same sequence; it does not reshape it.
  ASSERT_LT(head.size(), full.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), full.begin()));
  EXPECT_GT(full[head.size()], 1.5);
}

TEST(ArrivalStream, SameSeedReplaysIdenticallyOtherSeedsDiffer) {
  const WorkloadTrace trace = gap_trace();
  const std::vector<double> a = drain(ArrivalStream(trace, 42));
  const std::vector<double> b = drain(ArrivalStream(trace, 42));
  const std::vector<double> c = drain(ArrivalStream(trace, 43));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ArrivalStream, QueueBurstWindowRaisesTheRateInsideTheWindow) {
  const WorkloadTrace trace({0.0}, {500.0}, 3.0);
  faults::FaultSchedule schedule;
  faults::FaultSpec burst;
  burst.kind = faults::FaultKind::kQueueBurst;
  burst.start_s = 1.0;
  burst.end_s = 2.0;
  burst.magnitude = 3.0;
  schedule.faults.push_back(burst);
  faults::FaultInjector injector(schedule, 5);

  const std::vector<double> plain = drain(ArrivalStream(trace, 9));
  const std::vector<double> bursty = drain(ArrivalStream(trace, 9, &injector));
  // ~500 vs ~1500 arrivals in [1, 2); before the window the two streams are
  // the same draws at the same rate.
  EXPECT_GT(count_in(bursty, 1.0, 2.0), 2 * count_in(plain, 1.0, 2.0));
  const std::int64_t before = count_in(plain, 0.0, 1.0);
  ASSERT_GT(before, 0);
  EXPECT_TRUE(std::equal(plain.begin(), plain.begin() + before, bursty.begin()));
  EXPECT_EQ(injector.injected(faults::FaultKind::kQueueBurst), 1);
}

}  // namespace
}  // namespace adaflow::edge
