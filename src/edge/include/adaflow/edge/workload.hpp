#pragma once

/// \file workload.hpp
/// Edge workload model (paper Section V): N IoT cameras nominally streaming
/// at a fixed FPS, with the aggregate incoming rate deviating randomly at
/// scenario-defined intervals — Scenario 1: +-30% every 5 s (stable),
/// Scenario 2: +-70% every 500 ms (unpredictable), Scenario 1+2: S1 for the
/// first 15 s, then S2.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adaflow/common/rng.hpp"

namespace adaflow::faults {
class FaultInjector;
}

namespace adaflow::edge {

/// One phase of workload behaviour.
struct WorkloadPhase {
  double deviation = 0.3;   ///< max relative deviation of the rate
  double interval_s = 5.0;  ///< how often the rate is re-drawn
  double duration_s = 25.0; ///< phase length
};

struct WorkloadConfig {
  int devices = 20;
  double fps_per_device = 30.0;
  std::vector<WorkloadPhase> phases;

  double base_rate() const { return devices * fps_per_device; }
  double total_duration() const;

  /// Throws ConfigError naming the offending field (and phase index) on
  /// non-positive device counts, negative/NaN rates, deviations, intervals
  /// or durations. Called by WorkloadTrace before sampling.
  void validate() const;
};

/// Paper scenarios.
WorkloadConfig scenario1(double duration_s = 25.0);
WorkloadConfig scenario2(double duration_s = 25.0);
WorkloadConfig scenario1_plus_2(double stable_s = 15.0, double total_s = 25.0);

/// Piecewise-constant arrival-rate trace drawn from a config. The rate is
/// re-drawn at every phase interval boundary as base * (1 + U(-dev, +dev)).
class WorkloadTrace {
 public:
  WorkloadTrace(const WorkloadConfig& config, std::uint64_t seed);

  /// Builds a trace directly from explicit piecewise-constant segments:
  /// segment i spans [times[i], times[i+1]) at rates[i]; the last segment
  /// runs to \p duration_s. Throws ConfigError on unsorted times, a first
  /// boundary != 0, negative rates, or mismatched lengths.
  WorkloadTrace(std::vector<double> times, std::vector<double> rates, double duration_s);

  /// Loads a trace from a CSV of "t,rate" rows (seconds, aggregate FPS).
  /// Blank lines, '#' comments and a "t,rate"-style header are skipped.
  /// Rows must be time-ascending; a trace starting after t=0 is extended
  /// backwards at its first rate. With \p duration_s == 0 the trace ends one
  /// median segment-length past the last boundary. Throws ConfigError naming
  /// the offending line on malformed input.
  static WorkloadTrace from_csv(const std::string& path, double duration_s = 0.0);

  /// Aggregate incoming FPS at time \p t.
  double rate_at(double t) const;

  /// Boundaries where the rate changes (for event scheduling).
  const std::vector<double>& change_times() const { return times_; }
  const std::vector<double>& segment_rates() const { return rates_; }
  double duration() const { return duration_; }

 private:
  std::vector<double> times_;  ///< segment start times (ascending, begins 0)
  std::vector<double> rates_;  ///< rate of each segment
  double duration_ = 0.0;
};

/// The Poisson arrival process every simulation loop shares: exponential gaps at the
/// trace's rate (times the injector's kQueueBurst factor when an injector is
/// given), drawn from one Rng seeded with \p seed. Through a zero-rate stretch
/// it re-checks the rate every 0.05 s without drawing, so a given (trace,
/// seed, injector schedule) always yields the same times — whether a caller
/// chains them through an event queue or drains them into a vector up front.
class ArrivalStream {
 public:
  /// Stops at \p end_s (the trace's duration unless the run ends elsewhere).
  /// \p trace, and \p injector when non-null, must outlive the stream.
  ArrivalStream(const WorkloadTrace& trace, std::uint64_t seed, double end_s,
                faults::FaultInjector* injector = nullptr);
  ArrivalStream(const WorkloadTrace& trace, std::uint64_t seed,
                faults::FaultInjector* injector = nullptr)
      : ArrivalStream(trace, seed, trace.duration(), injector) {}

  /// The next arrival time, or nothing once the process passes the end time
  /// (and from then on).
  std::optional<double> next();

 private:
  const WorkloadTrace* trace_;
  faults::FaultInjector* injector_;
  Rng rng_;
  double end_s_;
  double t_ = 0.0;  ///< the previous arrival, or the last zero-rate re-check
  bool done_ = false;
};

/// Smooth pseudo-diurnal load: a sinusoid between \p low_fps and \p high_fps
/// with period \p period_s, sampled every \p step_s, with multiplicative
/// noise U(1-jitter, 1+jitter) drawn from \p seed. A forecaster with a trend
/// term should beat level-only smoothing here.
WorkloadTrace diurnal_trace(double low_fps, double high_fps, double period_s,
                            double duration_s, double step_s, double jitter,
                            std::uint64_t seed);

/// Flash crowd: \p base_fps until \p onset_s, a linear ramp to \p peak_fps
/// over \p ramp_s, a hold of \p hold_s, then a symmetric ramp back down —
/// with multiplicative noise U(1-jitter, 1+jitter) drawn from \p seed. The
/// canonical trace where reactive switching eats reconfiguration stalls on
/// the ramp that a proactive manager can pre-empt.
WorkloadTrace flash_crowd_trace(double base_fps, double peak_fps, double onset_s,
                                double ramp_s, double hold_s, double duration_s,
                                double step_s, double jitter, std::uint64_t seed);

}  // namespace adaflow::edge
