#pragma once

/// \file server.hpp
/// Discrete-event simulation of an FPGA-equipped Edge inference server
/// (paper Section V): IoT cameras push frames into a bounded queue; a single
/// dataflow accelerator drains it at the loaded mode's FPS; a monitor polls
/// the incoming rate and lets the serving policy switch modes — stalling the
/// server for the switch duration (fast for Flexible, a full reconfiguration
/// for Fixed). Frames that arrive into a full queue are lost.
///
/// The server optionally consults a faults::FaultInjector and defends itself
/// with a self-healing layer: switch timeout + bounded exponential-backoff
/// retry, policy-driven fallback (Fixed -> Flexible), a watchdog for stalled
/// in-flight frames, and load shedding when the queue saturates. Disabling
/// FaultToleranceConfig::enabled yields the unhardened baseline that
/// bench_faults compares against.
///
/// The per-device simulation core lives in device_sim.hpp (edge::DeviceSim);
/// run_simulation() drives exactly one device from a workload trace, while
/// the fleet layer (src/fleet) drives N of them behind a dispatcher.

#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/common/parallel.hpp"
#include "adaflow/edge/policy.hpp"
#include "adaflow/edge/server_types.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::faults {
class FaultInjector;
}

namespace adaflow::sim {
class EventQueue;
}

namespace adaflow::edge {

class DeviceSim;

/// Attaches extra behaviour to the one device of a run_simulation (a
/// per-frame service model, a canary prober, policy hooks) before the clock
/// starts.
using ConfigureHook = std::function<void(sim::EventQueue&, DeviceSim&)>;

/// Runs one full simulation of \p trace under \p policy. \p injector may be
/// null (fault-free run); when set, the same (schedule, seed) pair replays
/// bit-identically. \p configure, when set, runs after the device started and
/// the arrival, poll and sample events are scheduled, and before the clock
/// advances; whatever it creates must outlive the call. Throws ConfigError on
/// an invalid \p config, and adaflow::Error if the run ends with
/// arrived != processed + lost + frames still on the device.
RunMetrics run_simulation(const WorkloadTrace& trace, ServingPolicy& policy,
                          const ServerConfig& config, std::uint64_t seed,
                          faults::FaultInjector* injector = nullptr,
                          const ConfigureHook& configure = {});

/// Averages scalar metrics and series over repeated runs (seeds 0..runs-1
/// offset by seed_base), constructing a fresh policy per run via \p factory.
///
/// Caveat: `mean.switches` (the SwitchRecord trace) holds ONLY run 0's
/// switches, kept as a representative sequence for Figure-6-style annotation
/// tracks — switch traces of different runs have different lengths and times
/// and cannot be averaged. Benches that need switching activity across every
/// run must read `switches_per_run` / `reconfigurations_per_run` instead.
struct RepeatedRunResult {
  RunMetrics mean;                 ///< per-run means: scalars divided by runs
                                   ///< (counts rounded), series averaged;
                                   ///< `mean.switches` is run 0's trace only
  sim::RunningStat frame_loss;
  sim::RunningStat qoe;
  sim::RunningStat power;

  /// Per-run switching activity (index = run); unlike `mean.switches`, these
  /// cover every run.
  std::vector<int> switches_per_run;
  std::vector<int> reconfigurations_per_run;

  /// Ratio statistics computed from the pooled (pre-rounding) totals over
  /// all runs. `mean.frame_loss()` divides two independently rounded counts,
  /// which drifts for tiny runs; these do not.
  double pooled_frame_loss = 0.0;
  double pooled_qoe = 0.0;
  double pooled_average_power_w = 0.0;
};

/// Trace-factory core of run_repeated: \p trace_factory maps the per-run
/// seed to the WorkloadTrace of that run, which is what generated traces
/// (diurnal, flash-crowd) and CSV replays need — there is no WorkloadConfig
/// behind them.
template <typename TraceFactory, typename PolicyFactory>
  requires std::invocable<TraceFactory&, std::uint64_t>
RepeatedRunResult run_repeated(TraceFactory&& trace_factory, PolicyFactory&& factory,
                               const ServerConfig& config, int runs,
                               std::uint64_t seed_base = 1000) {
  require(runs > 0, "run_repeated needs runs > 0");
  RepeatedRunResult out;
  std::vector<sim::TimeSeries> workload_s, loss_s, qoe_s, power_s;
  std::vector<sim::TimeSeries> fc_actual_s, fc_pred_s;
  RunMetrics total;
  // Traces and policies are built serially (factories may share state — RNGs,
  // captured configs); the runs themselves are independent simulations with
  // fixed per-run seeds, so they fan out over the worker pool. Aggregation
  // below walks results in run order, so the outcome is bit-identical to the
  // serial loop regardless of worker count.
  std::vector<WorkloadTrace> traces;
  std::vector<decltype(factory())> policies;
  traces.reserve(static_cast<std::size_t>(runs));
  policies.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(r);
    traces.push_back(trace_factory(seed));
    policies.push_back(factory());
  }
  std::vector<RunMetrics> results(static_cast<std::size_t>(runs));
  parallel_for(runs, [&](std::int64_t r) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(r);
    const auto idx = static_cast<std::size_t>(r);
    results[idx] =
        run_simulation(traces[idx], *policies[idx], config, seed ^ 0x5bd1e995ULL);
  });
  for (int r = 0; r < runs; ++r) {
    RunMetrics& m = results[static_cast<std::size_t>(r)];
    sim::accumulate(total, m);
    total.duration_s += m.duration_s;
    sim::accumulate(total.faults, m.faults);
    sim::accumulate(total.forecast, m.forecast);
    sim::accumulate(total.integrity, m.integrity);
    sim::accumulate(total.detection, m.detection);
    if (r == 0) {
      total.switches = m.switches;  // representative first run (paper Fig. 6)
    }
    out.switches_per_run.push_back(m.model_switches);
    out.reconfigurations_per_run.push_back(m.reconfigurations);
    out.frame_loss.add(m.frame_loss());
    out.qoe.add(m.qoe());
    out.power.add(m.average_power_w());
    workload_s.push_back(std::move(m.workload_series));
    loss_s.push_back(std::move(m.loss_series));
    qoe_s.push_back(std::move(m.qoe_series));
    power_s.push_back(std::move(m.power_series));
    fc_actual_s.push_back(std::move(m.forecast_actual_series));
    fc_pred_s.push_back(std::move(m.forecast_pred_series));
  }
  // Pooled ratios first, from the exact totals: rounding the counts below
  // changes frame_loss()/qoe() by up to 1/arrived per run, which matters for
  // tiny traces.
  out.pooled_frame_loss =
      total.arrived > 0 ? static_cast<double>(total.lost) / static_cast<double>(total.arrived)
                        : 0.0;
  out.pooled_qoe =
      total.arrived > 0 ? total.qoe_accuracy_sum / static_cast<double>(total.arrived) : 0.0;
  out.pooled_average_power_w = total.duration_s > 0.0 ? total.energy_j / total.duration_s : 0.0;
  // Scalars become per-run means so they read on the same scale as one run;
  // dividing numerators and denominators alike keeps the ratio accessors
  // (frame_loss, qoe, average_power_w) consistent with the pooled ratios up
  // to count rounding.
  sim::divide(total, runs);
  total.duration_s /= runs;
  sim::divide(total.faults, runs);
  sim::divide(total.forecast, runs);
  sim::divide(total.integrity, runs);
  sim::divide(total.detection, runs);
  total.workload_series = sim::average_series(workload_s);
  total.loss_series = sim::average_series(loss_s);
  total.qoe_series = sim::average_series(qoe_s);
  total.power_series = sim::average_series(power_s);
  total.forecast_actual_series = sim::average_series(fc_actual_s);
  total.forecast_pred_series = sim::average_series(fc_pred_s);
  out.mean = std::move(total);
  return out;
}

/// Averages scalar metrics and series over repeated runs of \p workload
/// (seeds 0..runs-1 offset by seed_base), constructing a fresh policy per
/// run via \p factory.
template <typename PolicyFactory>
RepeatedRunResult run_repeated(const WorkloadConfig& workload, PolicyFactory&& factory,
                               const ServerConfig& config, int runs,
                               std::uint64_t seed_base = 1000) {
  return run_repeated(
      [&workload](std::uint64_t seed) { return WorkloadTrace(workload, seed); },
      std::forward<PolicyFactory>(factory), config, runs, seed_base);
}

}  // namespace adaflow::edge
