#include "adaflow/edge/server.hpp"

#include "adaflow/edge/device_sim.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::edge {

void ServerConfig::validate(const std::string& who) const {
  require(queue_capacity > 0,
          who + ".queue_capacity must be positive, got " + std::to_string(queue_capacity));
  require(std::isfinite(poll_interval_s) && poll_interval_s > 0.0,
          who + ".poll_interval_s must be finite and positive, got " +
              std::to_string(poll_interval_s));
  require(std::isfinite(sample_interval_s) && sample_interval_s > 0.0,
          who + ".sample_interval_s must be finite and positive, got " +
              std::to_string(sample_interval_s));
}

namespace {

/// Drives one DeviceSim from a workload trace: Poisson arrivals at the
/// trace's (possibly fault-inflated) rate, plus the monitor-poll and
/// window-sample cadences. All per-device behaviour lives in DeviceSim.
struct SingleServerDriver {
  const WorkloadTrace& trace;
  const ServerConfig& config;
  ArrivalStream arrivals;
  sim::EventQueue queue;
  DeviceSim device;

  SingleServerDriver(const WorkloadTrace& t, ServingPolicy& policy, const ServerConfig& c,
                     faults::FaultInjector* inj, std::uint64_t seed)
      : trace(t), config(c), arrivals(t, seed, inj), device(queue, policy, c, inj, "server") {}

  void schedule_next_arrival() {
    if (const std::optional<double> when = arrivals.next()) {
      queue.schedule_at(*when, [this] {
        device.offer_frame(/*count_loss=*/true);
        schedule_next_arrival();
      });
    }
  }

  void on_poll() {
    device.poll();
    const double next = queue.now() + config.poll_interval_s;
    if (next <= trace.duration()) {
      queue.schedule_at(next, [this] { on_poll(); });
    }
  }

  void on_sample() {
    device.sample_window();
    const double next = queue.now() + config.sample_interval_s;
    if (next <= trace.duration() + 1e-9) {
      queue.schedule_at(next, [this] { on_sample(); });
    }
  }

  /// arrived == processed + lost + frames still on the device. Canaries are
  /// probes, not workload, so they count on neither side.
  void check_conservation() const {
    const RunMetrics& m = device.metrics();
    const std::int64_t on_device = device.queued() - device.queued_canaries() +
                                   (device.processing() && !device.canary_in_service() ? 1 : 0);
    if (m.arrived != m.processed + m.lost + on_device) {
      throw Error("flow conservation violated on '" + device.name() +
                  "': arrived=" + std::to_string(m.arrived) + " processed=" +
                  std::to_string(m.processed) + " lost=" + std::to_string(m.lost) +
                  " on_device=" + std::to_string(on_device));
    }
  }
};

}  // namespace

RunMetrics run_simulation(const WorkloadTrace& trace, ServingPolicy& policy,
                          const ServerConfig& config, std::uint64_t seed,
                          faults::FaultInjector* injector, const ConfigureHook& configure) {
  config.validate();
  SingleServerDriver driver(trace, policy, config, injector, seed);
  driver.device.start();

  driver.schedule_next_arrival();
  driver.queue.schedule_at(config.poll_interval_s, [&driver] { driver.on_poll(); });
  driver.queue.schedule_at(config.sample_interval_s, [&driver] { driver.on_sample(); });
  if (configure) {
    configure(driver.queue, driver.device);
  }

  driver.queue.run_until(trace.duration());
  driver.device.finalize(trace.duration());
  driver.check_conservation();
  return std::move(driver.device.metrics());
}

}  // namespace adaflow::edge
