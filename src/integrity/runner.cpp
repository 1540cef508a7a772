#include "adaflow/integrity/runner.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "adaflow/common/error.hpp"
#include "adaflow/edge/server.hpp"

namespace adaflow::integrity {

void IntegrityRunConfig::validate() const {
  canary.validate();
  policy.validate();
}

edge::RunMetrics run_integrity(const edge::WorkloadTrace& trace,
                               std::unique_ptr<edge::ServingPolicy> inner,
                               const core::AcceleratorLibrary& library,
                               const IntegrityRunConfig& config,
                               const faults::FaultSchedule& schedule, std::uint64_t seed) {
  require(inner != nullptr, "run_integrity needs a serving policy");
  config.validate();
  // Decorrelate the injector's thinning draws from the arrival stream the
  // same way the fleet layer decorrelates per-device seeds.
  faults::FaultInjector injector(schedule, seed ^ 0x9e3779b97f4a7c15ULL);
  IntegrityManager manager(std::move(inner), library, config.policy);
  std::optional<CanaryProber> prober;
  return edge::run_simulation(
      trace, manager, config.server, seed, &injector,
      [&](sim::EventQueue& queue, edge::DeviceSim& device) {
        manager.set_reload_hook([&device](double, bool scrub) {
          if (scrub) {
            device.note_scrub();
          }
        });
        // A trip scores the verdict against ground truth (detection vs false
        // alarm), then asks the policy layer for a repair reload at its next
        // poll.
        prober.emplace(queue, device, config.canary, [&device, &manager](double now_s) {
          device.note_integrity_detection();
          manager.request_repair(now_s);
        });
        prober->start(trace.duration());
      });
}

}  // namespace adaflow::integrity
