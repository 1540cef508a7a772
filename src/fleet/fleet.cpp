#include "adaflow/fleet/fleet.hpp"

#include <algorithm>
#include <functional>

#include "adaflow/common/error.hpp"
#include "adaflow/fleet/engine.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::fleet {

void FleetConfig::validate() const {
  if (devices.empty()) {
    throw ConfigError("FleetConfig.devices must not be empty");
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const FleetDevice& d = devices[i];
    const std::string who = "fleet device " + std::to_string(i) + " ('" + d.name + "')";
    if (d.name.empty()) {
      throw ConfigError("fleet device " + std::to_string(i) + " has an empty name");
    }
    if (!d.make_policy) {
      throw ConfigError(who + " has no make_policy factory");
    }
    d.server.validate(who + ": server");
    if (d.library != nullptr && d.library->versions.empty()) {
      throw ConfigError(who + ": library has no versions");
    }
  }
  if (ingress_capacity < 0) {
    throw ConfigError("FleetConfig.ingress_capacity must be >= 0");
  }
  if (!(sample_interval_s > 0.0)) {
    throw ConfigError("FleetConfig.sample_interval_s must be positive");
  }
  if (coordinator.enabled) {
    if (!(coordinator.poll_interval_s > 0.0)) {
      throw ConfigError("FleetCoordinatorConfig.poll_interval_s must be positive");
    }
    if (!(coordinator.estimate_window_s > 0.0)) {
      throw ConfigError("FleetCoordinatorConfig.estimate_window_s must be positive");
    }
    if (coordinator.drain_timeout_s < 0.0) {
      throw ConfigError("FleetCoordinatorConfig.drain_timeout_s must be >= 0");
    }
    if (coordinator.switch_interval_factor < 0.0) {
      throw ConfigError("FleetCoordinatorConfig.switch_interval_factor must be >= 0");
    }
    if (coordinator.fps_hysteresis < 0.0) {
      throw ConfigError("FleetCoordinatorConfig.fps_hysteresis must be >= 0");
    }
  }
  if (health.enabled) {
    health.validate();
  }
  if (integrity.enabled) {
    integrity.validate();
    if (integrity.quarantine_on_detect && !health.enabled) {
      throw ConfigError(
          "FleetIntegrityConfig.quarantine_on_detect requires health.enabled (the "
          "quarantine/probe/rejoin machinery lives in the health monitor)");
    }
  }
}

void FleetMetrics::check_conservation() const {
  if (arrived + redispatched != dispatched + ingress_lost + ingress_backlog) {
    throw Error("fleet flow conservation violated: arrived=" + std::to_string(arrived) +
                " redispatched=" + std::to_string(redispatched) + " dispatched=" +
                std::to_string(dispatched) + " ingress_lost=" + std::to_string(ingress_lost) +
                " ingress_backlog=" + std::to_string(ingress_backlog));
  }
}

void FleetMetrics::merge(const FleetMetrics& other) {
  // Weighted series first: they read both sides' workload series pre-merge.
  loss_series = sim::merge_weighted_series(loss_series, workload_series.values,
                                           other.loss_series, other.workload_series.values);
  qoe_series = sim::merge_weighted_series(qoe_series, workload_series.values,
                                          other.qoe_series, other.workload_series.values);
  workload_series = sim::merge_sum_series(workload_series, other.workload_series);
  backlog_series = sim::merge_max_series(backlog_series, other.backlog_series);

  sim::accumulate(*this, other);
  duration_s = std::max(duration_s, other.duration_s);
  tail_latency_p95_s = std::max(tail_latency_p95_s, other.tail_latency_p95_s);
  sim::accumulate(faults, other.faults);
  sim::accumulate(integrity, other.integrity);
  sim::accumulate(detection, other.detection);
  e2e_latency.merge(other.e2e_latency);
  devices.insert(devices.end(), other.devices.begin(), other.devices.end());
  tenants.insert(tenants.end(), other.tenants.begin(), other.tenants.end());
}

/// The classic closed-world entry point, now a thin wrapper: one FleetEngine
/// driven by an edge::ArrivalStream over \p trace. The engine draws no
/// randomness of its own (injector seeds derive from device_seed), so the
/// stream's Rng is the seed's only consumer and seeded runs replay
/// bit-identically.
FleetMetrics run_fleet(const edge::WorkloadTrace& trace, const core::AcceleratorLibrary& library,
                       const FleetConfig& config, RoutingPolicy& router, std::uint64_t seed) {
  config.validate();
  require(!library.versions.empty(), "fleet library has no versions");
  sim::EventQueue queue;
  FleetEngine engine(queue, library, config, router, seed, trace.duration());
  edge::ArrivalStream arrivals(trace, seed);
  engine.start();

  std::function<void()> schedule_next_arrival = [&] {
    if (const std::optional<double> when = arrivals.next()) {
      queue.schedule_at(*when, [&] {
        engine.offer_frame();
        schedule_next_arrival();
      });
    }
  };
  schedule_next_arrival();

  queue.run_until(trace.duration());
  return engine.finalize(trace.duration());
}

FleetDevice managed_device(std::string name, const core::AcceleratorLibrary& library,
                           const core::RuntimeManagerConfig& manager, core::PolicyKind kind) {
  FleetDevice d;
  d.name = std::move(name);
  d.library = &library;
  d.make_policy = [&library, manager, kind] {
    return core::make_serving_policy(kind, library, manager);
  };
  return d;
}

FleetDevice pinned_device(std::string name, const core::AcceleratorLibrary& library,
                          std::size_t version) {
  FleetDevice d;
  d.name = std::move(name);
  d.library = &library;
  d.coordinated = true;
  d.make_policy = [&library, version]() -> std::unique_ptr<edge::ServingPolicy> {
    return std::make_unique<core::PinnedPolicy>(library, version,
                                                hls::AcceleratorVariant::kFixed);
  };
  return d;
}

std::vector<FleetDevice> homogeneous_devices(const core::AcceleratorLibrary& library,
                                             const core::RuntimeManagerConfig& manager, int count,
                                             core::PolicyKind kind) {
  require(count > 0, "homogeneous_devices needs a positive device count");
  std::vector<FleetDevice> devices;
  devices.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    devices.push_back(managed_device("dev" + std::to_string(i), library, manager, kind));
  }
  return devices;
}

}  // namespace adaflow::fleet
