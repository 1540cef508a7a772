/// The serving workloads.
///
/// `edge_paper` is the paper's Section V Edge server: one device, Scenario
/// 1+2 (20 cameras x 30 FPS, S1 for 15 s then S2), the Runtime Manager at a
/// 10% accuracy threshold on core::synthetic_library(), repeated over many
/// seeded edge::run_repeated repetitions. Arrivals are open loop in
/// simulated time.
///
/// `fleet_1000` is 1000 devices under shard::run_sharded_fleet: a bursty
/// trace above fleet capacity, health monitoring on, and every 37th device
/// on a flaky fault schedule. The shard count is part of the workload (it
/// changes results); only the thread count follows the host.
///
/// Traced runs install a timing ServingPolicy decorator through the policy
/// factories and time each simulation call; the traced results must be
/// bit-identical to the untraced ones.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "adaflow/common/parallel.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace adaflow;

/// Host time of every decision a serving policy makes.
struct DecisionLog {
  std::vector<double> ns;
};

/// Forwards every call to the wrapped policy and times the decision calls.
class TimedPolicy final : public edge::ServingPolicy {
 public:
  TimedPolicy(std::unique_ptr<edge::ServingPolicy> inner, DecisionLog& log)
      : inner_(std::move(inner)), log_(log) {}

  edge::ServingMode initial_mode() override { return inner_->initial_mode(); }
  std::optional<edge::SwitchAction> on_poll(double now_s, double incoming_fps) override {
    return timed([&] { return inner_->on_poll(now_s, incoming_fps); });
  }
  void on_switch_applied(double now_s, const edge::ServingMode& mode) override {
    inner_->on_switch_applied(now_s, mode);
  }
  std::optional<edge::SwitchAction> on_switch_failed(double now_s,
                                                     const edge::SwitchAction& action) override {
    return timed([&] { return inner_->on_switch_failed(now_s, action); });
  }
  std::optional<edge::SwitchAction> on_overload(double now_s, double incoming_fps) override {
    return timed([&] { return inner_->on_overload(now_s, incoming_fps); });
  }
  edge::ForecastView forecast_view() const override { return inner_->forecast_view(); }

 private:
  // Wall time: a decision takes tens of nanoseconds, less than a CPU-time
  // clock read costs.
  template <typename F>
  std::optional<edge::SwitchAction> timed(F&& decide) {
    const Stopwatch sw;
    std::optional<edge::SwitchAction> out = decide();
    log_.ns.push_back(sw.seconds() * 1e9);
    return out;
  }

  std::unique_ptr<edge::ServingPolicy> inner_;
  DecisionLog& log_;
};

void decision_metrics(const std::vector<DecisionLog>& logs, Result& r) {
  std::vector<double> all;
  for (const DecisionLog& l : logs) {
    all.insert(all.end(), l.ns.begin(), l.ns.end());
  }
  r.metric("core.decide_ns_p50", percentile(all, 0.50), "ns");
  r.metric("core.decide_ns_p99", percentile(all, 0.99), "ns");
  r.metric("core.decisions", static_cast<double>(all.size()), "count");
  r.note("decision samples: " + std::to_string(all.size()));
}

// --- edge_paper ------------------------------------------------------------

/// What run_repeated reports, in a form that can also be rebuilt from the
/// per-run metrics of a traced run (same aggregation order, same bits).
struct EdgeSummary {
  std::int64_t runs = 0;
  std::int64_t mean_arrived = 0;
  std::int64_t mean_processed = 0;
  std::int64_t mean_lost = 0;
  double mean_energy_j = 0.0;
  double mean_stall_s = 0.0;
  double pooled_frame_loss = 0.0;
  double pooled_qoe = 0.0;
  double pooled_power_w = 0.0;
  double run_qoe_mean = 0.0;
  double run_loss_mean = 0.0;
  std::vector<int> switches;
  std::vector<int> reconfigs;

  std::string digest() const {
    Digest d;
    d.i64(runs).i64(mean_arrived).i64(mean_processed).i64(mean_lost);
    d.f64(mean_energy_j).f64(mean_stall_s).f64(pooled_frame_loss).f64(pooled_qoe);
    d.f64(pooled_power_w).f64(run_qoe_mean).f64(run_loss_mean);
    for (std::size_t i = 0; i < switches.size(); ++i) {
      d.i64(switches[i]).i64(reconfigs[i]);
    }
    return d.hex();
  }
  double inf_per_j() const {
    return mean_energy_j > 0 ? static_cast<double>(mean_processed) / mean_energy_j : 0.0;
  }
};

EdgeSummary summarize(const edge::RepeatedRunResult& rr, int runs) {
  EdgeSummary s;
  s.runs = runs;
  s.mean_arrived = rr.mean.arrived;
  s.mean_processed = rr.mean.processed;
  s.mean_lost = rr.mean.lost;
  s.mean_energy_j = rr.mean.energy_j;
  s.mean_stall_s = rr.mean.switch_stall_s;
  s.pooled_frame_loss = rr.pooled_frame_loss;
  s.pooled_qoe = rr.pooled_qoe;
  s.pooled_power_w = rr.pooled_average_power_w;
  s.run_qoe_mean = rr.qoe.mean();
  s.run_loss_mean = rr.frame_loss.mean();
  s.switches = rr.switches_per_run;
  s.reconfigs = rr.reconfigurations_per_run;
  return s;
}

/// run_repeated's aggregation of per-run metrics (edge/server.hpp), redone
/// for the runs a traced pass made one call at a time.
EdgeSummary summarize(const std::vector<edge::RunMetrics>& runs) {
  std::int64_t arrived = 0;
  std::int64_t processed = 0;
  std::int64_t lost = 0;
  double qoe_sum = 0.0;
  double energy = 0.0;
  double duration = 0.0;
  double stall = 0.0;
  sim::RunningStat loss_stat;
  sim::RunningStat qoe_stat;
  EdgeSummary s;
  for (const edge::RunMetrics& m : runs) {
    arrived += m.arrived;
    processed += m.processed;
    lost += m.lost;
    qoe_sum += m.qoe_accuracy_sum;
    energy += m.energy_j;
    duration += m.duration_s;
    stall += m.switch_stall_s;
    loss_stat.add(m.frame_loss());
    qoe_stat.add(m.qoe());
    s.switches.push_back(m.model_switches);
    s.reconfigs.push_back(m.reconfigurations);
  }
  const auto n = static_cast<double>(runs.size());
  auto mean_count = [n](std::int64_t v) {
    return static_cast<std::int64_t>(std::llround(static_cast<double>(v) / n));
  };
  s.runs = static_cast<std::int64_t>(runs.size());
  s.mean_arrived = mean_count(arrived);
  s.mean_processed = mean_count(processed);
  s.mean_lost = mean_count(lost);
  s.mean_energy_j = energy / static_cast<double>(runs.size());
  s.mean_stall_s = stall / static_cast<double>(runs.size());
  s.pooled_frame_loss = static_cast<double>(lost) / static_cast<double>(arrived);
  s.pooled_qoe = qoe_sum / static_cast<double>(arrived);
  s.pooled_power_w = energy / duration;
  s.run_qoe_mean = qoe_stat.mean();
  s.run_loss_mean = loss_stat.mean();
  return s;
}

/// processed + lost <= arrived: every frame is served, lost, or still queued
/// (RunMetrics does not expose the final queue depth, hence <=).
bool conserves(std::int64_t arrived, std::int64_t processed, std::int64_t lost,
               std::int64_t slack) {
  return arrived > 0 && processed + lost <= arrived + slack;
}

}  // namespace

void run_edge_paper(const Options& o, Result& r) {
  set_worker_count(std::min(4, host_threads()));
  const int runs = o.smoke ? 8 : 800;
  const std::uint64_t seed_base = o.seed * 1000003ULL;
  const edge::WorkloadConfig workload = edge::scenario1_plus_2();
  const edge::ServerConfig server;
  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.10;  // the paper's threshold

  // Set-up: the library and every repetition's arrival trace. One set-up
  // takes milliseconds, so it is repeated for a second and a half: host
  // speed shifts for fractions of a second at a time.
  core::AcceleratorLibrary library;
  std::vector<edge::WorkloadTrace> traces;
  const std::vector<double> setup = time_repeated(1.5, 5, 1000, [&] {
    library = core::synthetic_library();
    traces.clear();
    for (int i = 0; i < runs; ++i) {
      traces.emplace_back(workload, seed_base + static_cast<std::uint64_t>(i));
    }
  });
  auto trace_of = [&](std::uint64_t seed) { return traces[seed - seed_base]; };
  auto plain_policy = [&] {
    return core::make_serving_policy(core::PolicyKind::kAdaFlow, library, manager);
  };
  auto repeated = [&] {
    return summarize(edge::run_repeated(trace_of, plain_policy, server, runs, seed_base), runs);
  };
  auto check_books = [&](const EdgeSummary& s, const std::string& label) {
    // Means are rounded per counter, so the identity holds to +1.
    const std::int64_t lost = s.mean_lost + (o.break_conservation ? s.mean_arrived : 0);
    r.check(conserves(s.mean_arrived, s.mean_processed, lost, 1),
            label + ": processed + lost <= arrived (per-run means)");
  };

  if (!o.trace) {
    EdgeSummary first;
    bool repeatable = true;
    double rss_mb = 0.0;
    const std::vector<double> cpu = time_repeated(o.seconds, 1, 200, [&] {
      const EdgeSummary s = repeated();
      r.operations(runs);
      if (first.runs == 0) {
        first = s;
        rss_mb = peak_rss_mb();  // allocator arenas keep growing over later passes
        check_books(s, "edge_paper");
      }
      repeatable = repeatable && s.digest() == first.digest();
    });
    r.check(repeatable, "every pass of " + std::to_string(runs) +
                            " repetitions yields bit-identical metrics");
    r.digest("edge_paper.runs", first.digest());
    r.note("passes " + std::to_string(cpu.size()) + " of " + std::to_string(runs) +
           " repetitions; frame_loss " + std::to_string(first.pooled_frame_loss) +
           "; inf_per_j " + std::to_string(first.inf_per_j()) + "; qoe " +
           std::to_string(first.pooled_qoe));
    r.metric("setup_s", median(setup), "s");
    r.metric("job_cpu_s", median(cpu), "s");
    r.metric("items_per_cpu_s", static_cast<double>(first.mean_arrived * runs) / median(cpu),
             "1/s");
    r.metric("quality", first.pooled_qoe, "fraction");
    r.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  const Stopwatch untraced_sw(CLOCK_PROCESS_CPUTIME_ID);
  const EdgeSummary reference = repeated();
  const double untraced_cpu = untraced_sw.seconds();
  r.operations(runs);
  check_books(reference, "untraced");

  // Traced: the repetitions as run_repeated makes them (policies built
  // serially, runs fanned out, seed ^ 0x5bd1e995 per run), each simulation
  // call timed and each policy wrapped in the decorator.
  std::vector<DecisionLog> logs(static_cast<std::size_t>(runs));
  std::vector<double> run_ms(static_cast<std::size_t>(runs));
  std::vector<edge::RunMetrics> results(static_cast<std::size_t>(runs));
  const Stopwatch traced_sw(CLOCK_PROCESS_CPUTIME_ID);
  std::vector<std::unique_ptr<edge::ServingPolicy>> policies;
  for (DecisionLog& log : logs) {
    policies.push_back(std::make_unique<TimedPolicy>(plain_policy(), log));
  }
  parallel_for(runs, [&](std::int64_t i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    const Stopwatch sw(CLOCK_THREAD_CPUTIME_ID);
    results[idx] =
        edge::run_simulation(traces[idx], *policies[idx], server, seed ^ 0x5bd1e995ULL);
    run_ms[idx] = sw.seconds() * 1e3;
  });
  const EdgeSummary traced = summarize(results);
  const double traced_cpu = traced_sw.seconds();
  r.operations(runs);

  std::int64_t leaky = 0;
  std::int64_t switches = 0;
  std::int64_t reconfigs = 0;
  double stall = 0.0;
  for (const edge::RunMetrics& m : results) {
    const std::int64_t lost = m.lost + (o.break_conservation ? m.arrived : 0);
    leaky += conserves(m.arrived, m.processed, lost, 0) ? 0 : 1;
    switches += m.model_switches;
    reconfigs += m.reconfigurations;
    stall += m.switch_stall_s;
  }
  r.check(leaky == 0, "traced: processed + lost <= arrived in every run (" +
                          std::to_string(leaky) + " violations)");
  r.check(traced.digest() == reference.digest(),
          "traced runs reproduce run_repeated's metrics bit for bit");
  r.digest("edge_paper.runs", reference.digest());
  r.digest("edge_paper.runs.traced", traced.digest());

  // The set-up is the trace generation (the synthetic library is a few rows).
  r.metric("edge.trace_gen_ms", median(setup) * 1e3, "ms");
  r.metric("edge.run_ms_p50", percentile(run_ms, 0.50), "ms");
  r.metric("edge.run_ms_p99", percentile(run_ms, 0.99), "ms");
  decision_metrics(logs, r);
  r.metric("core.switches", static_cast<double>(switches), "count");
  r.metric("core.reconfigs", static_cast<double>(reconfigs), "count");
  r.metric("edge.switch_stall_s", stall, "s");
  r.metric("trace.overhead_s", traced_cpu - untraced_cpu, "s");
  r.note("simulation calls timed: " + std::to_string(runs));
}

// --- fleet_1000 ------------------------------------------------------------

namespace {

constexpr int kFleetDevices = 1000;
constexpr int kFleetShards = 4;
/// The bursty trace's shape is part of the workload definition (a 3 s trace
/// has only six rate segments, so a seeded shape would change the offered
/// load by tens of percent from seed to seed). The benchmark seed drives the
/// arrival process and the fault injectors.
constexpr std::uint64_t kFleetTraceSeed = 23;

struct FleetSetup {
  core::AcceleratorLibrary library;
  fleet::FleetConfig config;
  std::optional<edge::WorkloadTrace> trace;
};

void build_fleet(FleetSetup& s, double duration_s, double fps_per_device) {
  s.library = core::synthetic_library();
  s.config = fleet::FleetConfig{};
  s.config.devices =
      fleet::homogeneous_devices(s.library, core::RuntimeManagerConfig{}, kFleetDevices);
  s.config.ingress_capacity = 16 * static_cast<std::int64_t>(kFleetDevices);
  s.config.health.enabled = true;
  for (std::size_t i = 0; i < s.config.devices.size(); i += 37) {
    s.config.devices[i].fault_schedule = faults::flaky_edge_schedule(duration_s);
  }
  edge::WorkloadConfig bursty;
  bursty.devices = 1;
  bursty.fps_per_device = fps_per_device * kFleetDevices;
  bursty.phases = {edge::WorkloadPhase{0.7, 0.5, duration_s}};  // scenario-2 style
  s.trace.emplace(bursty, kFleetTraceSeed);
}

bool fleet_conserves(const fleet::FleetMetrics& m, bool broken) {
  const std::int64_t arrived = m.arrived + (broken ? 1 : 0);
  return arrived + m.redispatched == m.dispatched + m.ingress_lost + m.ingress_backlog;
}

}  // namespace

void run_fleet_1000(const Options& o, Result& r) {
  const double duration_s = o.smoke ? 0.5 : 3.0;
  const double fps_per_device = o.smoke ? 100.0 : 700.0;
  const int threads = std::min(kFleetShards, host_threads());
  set_worker_count(threads);

  // The library outlives every run: the devices' policy factories borrow it.
  // One set-up takes a fraction of a millisecond; repeated as on edge_paper.
  FleetSetup fs;
  const std::vector<double> setup = time_repeated(
      1.5, 5, 10000, [&] { build_fleet(fs, duration_s, fps_per_device); });
  auto run = [&](const fleet::FleetConfig& config, int pool) {
    shard::ShardConfig sc;
    sc.shards = kFleetShards;
    sc.threads = pool;
    return shard::run_sharded_fleet(*fs.trace, fs.library, config, sc, "least-loaded", o.seed);
  };
  auto account = [&](const shard::ShardedMetrics& m, const std::string& label) {
    r.operations(1);
    r.check(fleet_conserves(m.fleet, o.break_conservation),
            label + ": arrived + redispatched == dispatched + ingress_lost + ingress_backlog");
  };

  if (!o.trace) {
    std::string first;
    bool repeatable = true;
    std::string summary;
    std::int64_t arrived = 0;
    double qoe = 0.0;
    double rss_mb = 0.0;
    const std::vector<double> cpu = time_repeated(o.seconds, 1, 100, [&] {
      const shard::ShardedMetrics m = run(fs.config, threads);
      const std::string fp = shard::metrics_fingerprint(m.fleet);
      if (first.empty()) {
        first = fp;
        rss_mb = peak_rss_mb();  // allocator arenas keep growing over later passes
        account(m, "fleet_1000");
        arrived = m.fleet.arrived;
        qoe = m.fleet.qoe();
        summary = "frame_loss " + std::to_string(m.fleet.frame_loss()) + "; handoffs " +
                  std::to_string(m.stats.handoffs) + "; qoe " + std::to_string(qoe);
      } else {
        r.operations(1);
      }
      repeatable = repeatable && fp == first;
    });
    r.check(repeatable, "every pass yields the same fleet fingerprint");
    r.digest("fleet_1000.fingerprint", first);
    r.note("passes " + std::to_string(cpu.size()) + "; " + summary);
    r.metric("setup_s", median(setup), "s");
    r.metric("job_cpu_s", median(cpu), "s");
    r.metric("items_per_cpu_s", static_cast<double>(arrived) / median(cpu), "1/s");
    r.metric("quality", qoe, "fraction");
    r.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // The first run also warms the allocator, so the untraced CPU time that
  // the traced run is compared with is taken from a second, warm run.
  const shard::ShardedMetrics serial = run(fs.config, 1);
  account(serial, "1 thread");
  const Stopwatch untraced_sw(CLOCK_PROCESS_CPUTIME_ID);
  const shard::ShardedMetrics reference = run(fs.config, threads);
  const double untraced_cpu = untraced_sw.seconds();
  account(reference, "untraced");
  const std::string fp = shard::metrics_fingerprint(reference.fleet);

  std::vector<DecisionLog> logs(fs.config.devices.size());
  fleet::FleetConfig timed_config = fs.config;
  for (std::size_t i = 0; i < timed_config.devices.size(); ++i) {
    fleet::FleetDevice& d = timed_config.devices[i];
    d.make_policy = [inner = d.make_policy, &log = logs[i]] {
      return std::make_unique<TimedPolicy>(inner(), log);
    };
  }
  const Stopwatch traced_sw(CLOCK_PROCESS_CPUTIME_ID);
  const shard::ShardedMetrics traced = run(timed_config, threads);
  const double traced_cpu = traced_sw.seconds();
  account(traced, "traced");

  const std::string fp_traced = shard::metrics_fingerprint(traced.fleet);
  const std::string fp_serial = shard::metrics_fingerprint(serial.fleet);
  r.check(fp_traced == fp, "traced fleet fingerprint equals the untraced one");
  r.check(fp_serial == fp, "fleet fingerprint identical at 1 and " + std::to_string(threads) +
                               " threads");
  r.digest("fleet_1000.fingerprint", fp);
  r.digest("fleet_1000.fingerprint.traced", fp_traced);
  r.digest("fleet_1000.fingerprint.1thread", fp_serial);

  const fleet::FleetMetrics& m = reference.fleet;
  r.metric("shard.loop_s", reference.stats.wall_seconds, "s");
  r.metric("shard.windows", static_cast<double>(reference.stats.windows), "count");
  r.metric("shard.handoffs", static_cast<double>(reference.stats.handoffs), "count");
  r.metric("shard.handoff_lost", static_cast<double>(reference.stats.handoff_lost), "count");
  r.metric("shard.parallel_eff",
           serial.stats.wall_seconds / (reference.stats.wall_seconds * threads), "fraction");
  r.metric("fleet.dispatched", static_cast<double>(m.dispatched), "count");
  r.metric("fleet.redispatched", static_cast<double>(m.redispatched), "count");
  r.metric("fleet.ingress_lost", static_cast<double>(m.ingress_lost), "count");
  r.metric("faults.injected", static_cast<double>(m.faults.total_injected()), "count");
  decision_metrics(logs, r);
  r.metric("core.switches", static_cast<double>(m.model_switches), "count");
  r.metric("core.reconfigs", static_cast<double>(m.reconfigurations), "count");
  r.metric("trace.overhead_s", traced_cpu - untraced_cpu, "s");
}

}  // namespace perfbench
