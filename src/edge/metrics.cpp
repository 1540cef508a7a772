#include <algorithm>

#include "adaflow/edge/server_types.hpp"

namespace adaflow::edge {

void RunMetrics::merge(const RunMetrics& other) {
  // Weighted series first: they need both sides' workload series untouched.
  loss_series = sim::merge_weighted_series(loss_series, workload_series.values,
                                           other.loss_series, other.workload_series.values);
  qoe_series = sim::merge_weighted_series(qoe_series, workload_series.values,
                                          other.qoe_series, other.workload_series.values);
  workload_series = sim::merge_sum_series(workload_series, other.workload_series);
  power_series = sim::merge_sum_series(power_series, other.power_series);
  forecast_actual_series =
      sim::merge_sum_series(forecast_actual_series, other.forecast_actual_series);
  forecast_pred_series = sim::merge_sum_series(forecast_pred_series, other.forecast_pred_series);

  sim::accumulate(*this, other);
  duration_s = std::max(duration_s, other.duration_s);
  switches.insert(switches.end(), other.switches.begin(), other.switches.end());
  sim::accumulate(faults, other.faults);
  sim::accumulate(forecast, other.forecast);
  sim::accumulate(integrity, other.integrity);
  sim::accumulate(detection, other.detection);
  e2e_latency.merge(other.e2e_latency);
}

}  // namespace adaflow::edge
