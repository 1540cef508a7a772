#pragma once

/// \file health.hpp
/// Per-device health inference for the fleet dispatcher: a three-state
/// circuit breaker (healthy -> suspect -> quarantined, with half-open
/// probing back to healthy) driven purely from observable signals —
/// cumulative completion counts versus wall-clock — never from the
/// simulator's ground-truth fault flags. A crashed or hung device looks like
/// "work waiting, no completions"; a degraded device looks like "completions
/// far below the advertised mode FPS". That is all a real dispatcher gets,
/// so it is all the monitor uses.
///
/// The HealthMonitor is deliberately a pure logic class: the fleet layer
/// feeds it one Observation per device per tick and acts on the returned
/// HealthAction (drain + re-route on quarantine, send a probe frame when
/// requested, re-include on rejoin). Keeping the event queue out makes the
/// state machine unit-testable with hand-written tick sequences.

#include <cstdint>
#include <deque>
#include <vector>

namespace adaflow::fleet {

/// Dispatcher-side resilience knobs. Disabled by default: the PR 2 fleet
/// behaves exactly as before unless health monitoring is switched on.
struct HealthConfig {
  bool enabled = false;
  /// Monitor cadence; every tick observes every device.
  double tick_interval_s = 0.25;
  /// Work waiting this long with zero completions marks the device suspect.
  double suspect_timeout_s = 1.0;
  /// Suspect for this long without recovering escalates to quarantined.
  double quarantine_timeout_s = 1.0;
  /// Spacing between half-open probes of a quarantined device.
  double probe_interval_s = 1.0;
  /// A probe frame must complete within this or the probe counts as failed.
  double probe_timeout_s = 1.0;
  /// Consecutive successful probes required before the device rejoins.
  int rejoin_probes = 2;
  /// Completion rate below (mode FPS / this factor) while continuously busy
  /// marks the device suspect — the degraded-service detector. A factor of 3
  /// tolerates scheduling noise but catches strong latency multipliers.
  double degrade_rate_factor = 3.0;
  /// Window over which the completion rate is measured.
  double rate_window_s = 2.0;
  /// When > 0: an ingress-dispatched frame still waiting in a device queue
  /// after this long is hedged — pulled back and re-routed to another
  /// eligible device. 0 disables hedging.
  double hedge_budget_s = 0.0;

  /// Throws ConfigError naming the offending field.
  void validate() const;
};

enum class HealthState {
  kHealthy,      ///< full member of the routing set
  kSuspect,      ///< progress stalled; watching before acting
  kQuarantined,  ///< out of rotation, queue drained; waiting to probe
  kProbing,      ///< half-open: at most one probe frame in flight
};

const char* health_state_name(HealthState state);

/// What the dispatcher should do after one observation of one device.
struct HealthAction {
  bool quarantine = false;    ///< transitioned into quarantine: drain the queue
  bool want_probe = false;    ///< route one (and only one) probe frame here
  bool probe_failed = false;  ///< probe timed out: reclaim the swallowed frame
  bool rejoin = false;        ///< recovered: re-include in the routing set
};

class HealthMonitor {
 public:
  /// One device's observable signals at a tick instant.
  struct Observation {
    std::int64_t processed = 0;  ///< cumulative frames completed
    bool has_work = false;       ///< frames queued or in service
    /// Coordinator drain/reconfigure or a switch ladder in flight: expected
    /// downtime, not sickness — progress timers freeze instead of accusing.
    bool in_maintenance = false;
    double nominal_fps = 0.0;  ///< advertised FPS of the current mode
  };

  HealthMonitor(const HealthConfig& config, std::size_t device_count);

  /// Feed one tick's observation of device \p i at time \p now. Ticks must
  /// be fed in nondecreasing time order per device.
  HealthAction observe(std::size_t i, double now, const Observation& obs);

  /// The dispatcher managed to route a probe frame to device \p i (after a
  /// want_probe). Arms the probe timeout; \p processed_at_dispatch is the
  /// device's cumulative completion count at the moment of dispatch.
  void on_probe_dispatched(std::size_t i, double now, std::int64_t processed_at_dispatch);

  /// External verdict (the integrity layer's drift detector confirming a
  /// silently-corrupt device): quarantine \p i immediately, bypassing the
  /// progress-based escalation — silent corruption completes frames at full
  /// rate, so the stall/rate checks can never catch it. Returns true when
  /// the device transitioned (the caller then drains its queue, exactly as
  /// on an observe() quarantine); false when it was already out of rotation.
  bool force_quarantine(std::size_t i, double now);

  HealthState state(std::size_t i) const { return devices_[i].state; }
  /// True while the device is out of the normal routing set (quarantined or
  /// probing). Probing devices take probe traffic only.
  bool out_of_rotation(std::size_t i) const {
    return devices_[i].state == HealthState::kQuarantined ||
           devices_[i].state == HealthState::kProbing;
  }
  std::int64_t quarantines(std::size_t i) const { return devices_[i].quarantines; }
  std::int64_t rejoins(std::size_t i) const { return devices_[i].rejoins; }

 private:
  struct DeviceHealth {
    HealthState state = HealthState::kHealthy;
    std::int64_t last_processed = 0;
    double last_progress_s = 0.0;  ///< last completion / last idle instant
    double suspect_since_s = 0.0;
    double last_probe_s = -1e18;
    bool probe_in_flight = false;
    double probe_sent_s = 0.0;
    std::int64_t probe_baseline = 0;
    int probe_successes = 0;
    std::int64_t quarantines = 0;
    std::int64_t rejoins = 0;
    /// (time, processed) samples over continuously-busy ticks, for the
    /// completion-rate (degrade) check. Cleared on idle or maintenance.
    std::deque<std::pair<double, std::int64_t>> rate_history;
  };

  bool rate_too_slow(DeviceHealth& d, double now, const Observation& obs);

  HealthConfig config_;
  std::vector<DeviceHealth> devices_;
};

}  // namespace adaflow::fleet
