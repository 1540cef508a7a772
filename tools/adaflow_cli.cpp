/// adaflow — command-line front end to the library.
///
/// Subcommands:
///   devices                              list supported FPGA device budgets
///   train      --model M --dataset D --out FILE      train an initial model
///   prune      --in FILE --rate R --out FILE         dataflow-aware pruning
///   eval       --in FILE --dataset D                 top-1 test accuracy
///   library    --model M --dataset D --out FILE      generate a library
///   show       --library FILE                        print a library table
///   simulate   --library FILE --scenario S           run the Edge simulation
///   fleet      --devices N --router R [--coordinated]  multi-FPGA cluster sim
///   ingest     --cameras N --brownout M             end-to-end ingest pipeline
///   tune       --model M --objective O [--budget F]  folding auto-tuner (DSE)
///   forecast   --trace T --forecaster F [--horizon N]  forecaster evaluation
///   tenant     --tenants N --scheduler S --partition P  multi-tenant serving
///   shard      --devices N --shards S --threads T   sharded parallel fleet sim
///   integrity  --upset-rate R --canary-interval C --scrub-period P  SEU integrity sim
///   graph      --model M [--rate R]                 print a graph-IR topology
///   detect     --policy P --duration D --peak-density N  detection serving sim
///
/// Models: cnv-w2a2, cnv-w1a2, tfc-w1a2 (plus yolo-tiny for graph/detect).
/// Datasets: cifar, gtsrb, mnist.

#include <cstdio>
#include <memory>
#include <utility>

#include "adaflow/common/argparse.hpp"
#include "adaflow/common/logging.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library_generator.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/detect/runner.hpp"
#include "adaflow/detect/yolo.hpp"
#include "adaflow/dse/explorer.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/forecast/tracker.hpp"
#include "adaflow/ingest/pipeline.hpp"
#include "adaflow/integrity/runner.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/nn/mlp.hpp"
#include "adaflow/nn/serialize.hpp"
#include "adaflow/nn/trainer.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "adaflow/tenant/serving.hpp"

namespace {

using namespace adaflow;

datasets::DatasetSpec dataset_by_name(const std::string& name) {
  if (name == "cifar") {
    return datasets::synth_cifar10_spec();
  }
  if (name == "gtsrb") {
    return datasets::synth_gtsrb_spec();
  }
  if (name == "mnist") {
    return datasets::synth_mnist_spec();
  }
  throw NotFoundError("unknown dataset '" + name + "' (cifar, gtsrb, mnist)");
}

nn::Model model_by_name(const std::string& name, std::int64_t classes, std::uint64_t seed) {
  if (name == "cnv-w2a2") {
    return nn::build_cnv(nn::cnv_w2a2(classes), seed);
  }
  if (name == "cnv-w1a2") {
    return nn::build_cnv(nn::cnv_w1a2(classes), seed);
  }
  if (name == "tfc-w1a2") {
    return nn::build_mlp(nn::tfc_w1a2(classes), seed);
  }
  throw NotFoundError("unknown model '" + name + "' (cnv-w2a2, cnv-w1a2, tfc-w1a2)");
}

/// The --library file, or the built-in synthetic library when it is empty.
core::AcceleratorLibrary library_or_synthetic(const ArgParser& parser) {
  return parser.option("library").empty() ? core::synthetic_library()
                                          : core::load_library(parser.option("library"));
}

/// The arrival rate and bursty trace (+-50% every 2 s) of the fleet, shard
/// and integrity runs. The rate is --fps, or 70% of \p devices times the most
/// accurate version's FPS when --fps is empty.
std::pair<double, edge::WorkloadTrace> bursty_trace(const ArgParser& parser,
                                                    const core::AcceleratorLibrary& lib,
                                                    std::int64_t devices, double duration,
                                                    std::uint64_t seed) {
  edge::WorkloadConfig workload;
  workload.devices = 1;
  workload.fps_per_device =
      parser.option("fps").empty()
          ? static_cast<double>(devices) * lib.versions.front().fps_fixed * 0.7
          : parser.option_positive_double("fps");
  workload.phases = {edge::WorkloadPhase{0.5, 2.0, duration}};
  return {workload.fps_per_device, edge::WorkloadTrace(workload, seed)};
}

int cmd_devices(const std::vector<std::string>&) {
  TextTable table({"device", "LUT", "FF", "BRAM18", "DSP", "reconfig[ms]", "static[W]"});
  for (const char* name : {"zcu104", "zcu102", "pynq-z1"}) {
    const fpga::FpgaDevice d = fpga::device_by_name(name);
    table.add_row({d.name, std::to_string(d.luts), std::to_string(d.flip_flops),
                   std::to_string(d.bram18), std::to_string(d.dsp),
                   format_double(d.bitstream_bytes / d.config_bandwidth_bps * 1e3, 0),
                   format_double(d.static_power_w, 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_train(const std::vector<std::string>& args) {
  ArgParser parser("adaflow train", "train an initial quantized model");
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2", "cnv-w2a2");
  parser.add_option("dataset", "cifar | gtsrb | mnist", "cifar");
  parser.add_option("epochs", "training epochs", "8");
  parser.add_option("seed", "rng seed", "7");
  parser.add_option("out", "output model file", "model.bin");
  parser.parse(args);

  const datasets::DatasetSpec spec = dataset_by_name(parser.option("dataset"));
  const datasets::SyntheticDataset data = datasets::generate(spec);
  nn::Model model = model_by_name(parser.option("model"), spec.classes,
                                  static_cast<std::uint64_t>(parser.option_int("seed")));
  require(model.input_shape()[0] == spec.channels && model.input_shape()[1] == spec.image_size,
          "model '" + parser.option("model") + "' does not fit dataset '" +
              parser.option("dataset") + "'");

  nn::TrainConfig tc;
  tc.epochs = static_cast<int>(parser.option_int("epochs"));
  tc.lr = 0.02f;
  tc.lr_decay_epochs = {tc.epochs * 3 / 4};
  std::printf("training %s on %s (%d epochs)...\n", model.name().c_str(), spec.name.c_str(),
              tc.epochs);
  const auto stats = nn::Trainer(tc).fit(model, data.train);
  const double acc = nn::Trainer::evaluate(model, data.test);
  std::printf("final train loss %.3f, test accuracy %s\n", stats.back().train_loss,
              format_percent(acc, 2).c_str());
  nn::save_model_file(model, parser.option("out"));
  std::printf("saved %s\n", parser.option("out").c_str());
  return 0;
}

int cmd_prune(const std::vector<std::string>& args) {
  ArgParser parser("adaflow prune", "dataflow-aware pruning of a trained model");
  parser.add_option("in", "input model file", "model.bin");
  parser.add_option("rate", "pruning rate (0..1)", "0.5");
  parser.add_option("target-fps", "folding target for the base dataflow", "450");
  parser.add_option("out", "output model file", "pruned.bin");
  parser.add_flag("fc-neurons", "also prune hidden fully-connected neurons");
  parser.parse(args);

  nn::Model base = nn::load_model_file(parser.option("in"));
  const hls::FoldingConfig folding =
      hls::folding_for_target_fps(base, parser.option_double("target-fps"), 100e6);
  pruning::PruneOptions options;
  options.prune_fc_neurons = parser.flag("fc-neurons");
  pruning::PruneResult pr =
      pruning::dataflow_aware_prune(base, folding, parser.option_double("rate"), options);

  std::printf("requested rate %s, achieved %s (after PE/SIMD adjustment)\n",
              format_percent(pr.requested_rate, 0).c_str(),
              format_percent(pr.achieved_rate, 1).c_str());
  for (const pruning::LayerPruneInfo& info : pr.layers) {
    std::printf("  layer %zu: %lld -> %lld channels\n", info.conv_index,
                static_cast<long long>(info.original_channels),
                static_cast<long long>(info.kept_channels));
  }
  nn::save_model_file(pr.model, parser.option("out"));
  std::printf("saved %s (retrain it with `adaflow train`-like settings before deploying)\n",
              parser.option("out").c_str());
  return 0;
}

int cmd_eval(const std::vector<std::string>& args) {
  ArgParser parser("adaflow eval", "top-1 test accuracy of a saved model");
  parser.add_option("in", "model file", "model.bin");
  parser.add_option("dataset", "cifar | gtsrb | mnist", "cifar");
  parser.parse(args);

  nn::Model model = nn::load_model_file(parser.option("in"));
  const datasets::SyntheticDataset data = datasets::generate(dataset_by_name(parser.option("dataset")));
  const double acc = nn::Trainer::evaluate(model, data.test);
  std::printf("%s on %s: top-1 accuracy %s\n", model.name().c_str(),
              data.spec.name.c_str(), format_percent(acc, 2).c_str());
  return 0;
}

int cmd_library(const std::vector<std::string>& args) {
  ArgParser parser("adaflow library", "generate an AdaFlow library (design-time step)");
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2", "cnv-w2a2");
  parser.add_option("dataset", "cifar | gtsrb | mnist", "cifar");
  parser.add_option("rates", "comma list of pruning rates", "0,0.25,0.5,0.75");
  parser.add_option("device", "zcu104 | zcu102 | pynq-z1", "zcu104");
  parser.add_option("epochs", "base training epochs", "8");
  parser.add_option("retrain-epochs", "per-version retraining epochs", "3");
  parser.add_option("out", "output library file", "library.tsv");
  parser.add_flag("fc-neurons", "also prune hidden fully-connected neurons");
  parser.parse(args);

  core::LibraryConfig config;
  config.rates.clear();
  for (const std::string& r : split(parser.option("rates"), ',')) {
    config.rates.push_back(std::stod(r));
  }
  config.base_epochs = static_cast<int>(parser.option_int("epochs"));
  config.retrain_epochs = static_cast<int>(parser.option_int("retrain-epochs"));
  config.prune_options.prune_fc_neurons = parser.flag("fc-neurons");

  const datasets::DatasetSpec spec = dataset_by_name(parser.option("dataset"));
  const datasets::SyntheticDataset data = datasets::generate(spec);
  nn::Model initial = model_by_name(parser.option("model"), spec.classes, config.seed);

  core::LibraryGenerator generator(fpga::device_by_name(parser.option("device")), config);
  const core::GeneratedLibrary generated = generator.generate_from(std::move(initial), data);
  core::save_library(generated.table, parser.option("out"));
  std::printf("%s\nsaved %s\n", core::render_library_table(generated.table).c_str(),
              parser.option("out").c_str());
  return 0;
}

int cmd_show(const std::vector<std::string>& args) {
  ArgParser parser("adaflow show", "print a saved library table");
  parser.add_option("library", "library file", "library.tsv");
  parser.parse(args);
  const core::AcceleratorLibrary lib = core::load_library(parser.option("library"));
  std::printf("%s", core::render_library_table(lib).c_str());
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
  ArgParser parser("adaflow simulate", "Edge-server simulation against a library");
  parser.add_option("library", "library file", "library.tsv");
  parser.add_option("scenario", "1 | 2 | 1+2", "1+2");
  parser.add_option("runs", "repetitions", "20");
  parser.add_option("policy", "adaflow | finn | reconf | proactive", "adaflow");
  parser.add_option("threshold", "accuracy threshold (fraction)", "0.10");
  parser.parse(args);

  const core::PolicyKind kind = core::policy_kind_from_name(parser.option("policy"));
  const core::AcceleratorLibrary lib = core::load_library(parser.option("library"));
  edge::WorkloadConfig workload;
  const std::string scenario = parser.option("scenario");
  if (scenario == "1") {
    workload = edge::scenario1();
  } else if (scenario == "2") {
    workload = edge::scenario2();
  } else if (scenario == "1+2") {
    workload = edge::scenario1_plus_2();
  } else {
    throw ConfigError("unknown scenario '" + scenario + "'");
  }

  core::RuntimeManagerConfig rmc;
  rmc.accuracy_threshold = parser.option_double("threshold");
  const int runs = static_cast<int>(parser.option_int("runs"));
  const edge::RepeatedRunResult r = edge::run_repeated(
      workload, [&] { return core::make_serving_policy(kind, lib, rmc); }, edge::ServerConfig{},
      runs);

  std::printf("policy=%s scenario=%s runs=%d\n", core::policy_kind_name(kind), scenario.c_str(),
              runs);
  std::printf("frame loss   %s (stddev %s)\n", format_percent(r.mean.frame_loss(), 2).c_str(),
              format_percent(r.frame_loss.stddev(), 2).c_str());
  std::printf("QoE          %s\n", format_percent(r.mean.qoe(), 2).c_str());
  std::printf("avg power    %s W\n", format_double(r.mean.average_power_w(), 3).c_str());
  std::printf("efficiency   %s inferences/J\n",
              format_double(r.mean.power_efficiency(), 1).c_str());
  std::printf("switches     %.1f per run (%.1f reconfigurations)\n",
              static_cast<double>(r.mean.model_switches),
              static_cast<double>(r.mean.reconfigurations));
  return 0;
}

int cmd_fleet(const std::vector<std::string>& args) {
  ArgParser parser("adaflow fleet", "multi-FPGA cluster simulation");
  parser.add_option("library", "library file (empty = built-in synthetic library)", "");
  parser.add_option("devices", "number of devices (1..64)", "3");
  parser.add_option("router", "round-robin | least-loaded | accuracy-aware", "least-loaded");
  parser.add_option("fps", "aggregate arrival rate (empty = 70% of fleet capacity)", "");
  parser.add_option("duration", "trace duration [s]", "20");
  parser.add_option("seed", "rng seed", "42");
  parser.add_flag("coordinated",
                  "pin devices and let the fleet coordinator re-partition the library");
  parser.add_flag("health", "enable the dispatcher's circuit-breaker health monitor");
  parser.add_option("chaos", "whole-device fault injected on dev0: none | crash | hang | degrade",
                    "none");
  parser.add_option("chaos-start", "chaos window start [s]", "5");
  parser.add_option("chaos-duration", "chaos window length [s]", "5");
  parser.add_option("suspect-timeout", "no-progress time before a device is suspect [s]", "1");
  parser.add_option("quarantine-timeout", "suspect time before quarantine [s]", "1");
  parser.add_option("probe-interval", "spacing of half-open recovery probes [s]", "1");
  parser.add_option("probe-timeout", "probe completion deadline [s]", "1");
  parser.add_option("hedge-budget", "re-dispatch frames queued longer than this [s]; 0 = off",
                    "0");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_or_synthetic(parser);

  const std::int64_t devices = parser.option_int("devices");
  require(devices >= 1 && devices <= 64, "--devices must be in [1, 64], got '" +
                                             parser.option("devices") + "'");
  const std::string router_name = parser.option_choice("router", fleet::router_names());
  const double duration = parser.option_double("duration");
  require(duration > 0.0, "--duration must be positive, got '" + parser.option("duration") + "'");
  const std::uint64_t seed = static_cast<std::uint64_t>(parser.option_int("seed"));

  // Resilience knobs: each one is validated up front so a bad value names
  // the flag instead of surfacing as a deep HealthConfig error mid-run.
  const std::string chaos = parser.option_choice("chaos", {"none", "crash", "hang", "degrade"});
  const double chaos_start = parser.option_nonnegative_double("chaos-start");
  const double chaos_duration = parser.option_positive_double("chaos-duration");
  const double hedge_budget = parser.option_nonnegative_double("hedge-budget");

  core::RuntimeManagerConfig rmc;
  fleet::FleetConfig config;
  if (parser.flag("coordinated")) {
    for (std::int64_t i = 0; i < devices; ++i) {
      config.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
    }
    config.coordinator.enabled = true;
  } else {
    config.devices = fleet::homogeneous_devices(lib, rmc, static_cast<int>(devices));
  }
  if (parser.flag("health")) {
    config.health.enabled = true;
    config.health.suspect_timeout_s = parser.option_positive_double("suspect-timeout");
    config.health.quarantine_timeout_s = parser.option_positive_double("quarantine-timeout");
    config.health.probe_interval_s = parser.option_positive_double("probe-interval");
    config.health.probe_timeout_s = parser.option_positive_double("probe-timeout");
    config.health.hedge_budget_s = hedge_budget;
  }
  if (chaos != "none") {
    const double chaos_end = chaos_start + chaos_duration;
    if (chaos == "crash") {
      config.devices[0].fault_schedule = faults::device_crash_window(chaos_start, chaos_end);
    } else if (chaos == "hang") {
      config.devices[0].fault_schedule = faults::device_hang_window(chaos_start, chaos_end);
    } else {
      config.devices[0].fault_schedule =
          faults::device_degrade_window(chaos_start, chaos_end, /*latency_factor=*/4.0,
                                        /*accuracy_penalty=*/0.1);
    }
  }

  const auto [rate, trace] = bursty_trace(parser, lib, devices, duration, seed);
  auto router = fleet::make_router(router_name);
  const fleet::FleetMetrics m = fleet::run_fleet(trace, lib, config, *router, seed);

  std::printf("fleet=%lld devices router=%s rate=%.0f FPS duration=%.0fs %s\n",
              static_cast<long long>(devices), router_name.c_str(), rate, duration,
              parser.flag("coordinated") ? "coordinated" : "self-managed");
  std::printf("frame loss   %s (ingress %lld, device %lld)\n",
              format_percent(m.frame_loss(), 2).c_str(),
              static_cast<long long>(m.ingress_lost), static_cast<long long>(m.device_lost));
  std::printf("QoE          %s\n", format_percent(m.qoe(), 2).c_str());
  std::printf("p95 backlog  %.0f ms\n", m.tail_latency_p95_s * 1e3);
  std::printf("avg power    %s W\n", format_double(m.average_power_w(), 3).c_str());
  std::printf("switches     %d (%d reconfigurations, %d repartitions)\n", m.model_switches,
              m.reconfigurations, m.repartitions);
  if (parser.flag("health") || chaos != "none") {
    std::printf("resilience   %lld quarantines, %lld rejoins, %lld re-dispatched (%lld hedged)\n",
                static_cast<long long>(m.quarantines), static_cast<long long>(m.rejoins),
                static_cast<long long>(m.redispatched), static_cast<long long>(m.hedged));
  }
  TextTable table({"device", "processed", "lost", "loss", "switches", "power[W]", "health"});
  for (const fleet::FleetDeviceResult& d : m.devices) {
    table.add_row({d.name, std::to_string(d.metrics.processed), std::to_string(d.metrics.lost),
                   format_percent(d.metrics.frame_loss(), 2),
                   std::to_string(d.metrics.model_switches),
                   format_double(d.metrics.average_power_w(), 1),
                   fleet::health_state_name(d.final_health)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_shard(const std::vector<std::string>& args) {
  ArgParser parser("adaflow shard", "sharded parallel fleet simulation");
  parser.add_option("library", "library file (empty = built-in synthetic library)", "");
  parser.add_option("devices", "number of devices (1..4096)", "16");
  parser.add_option("shards", "number of shards (1..devices)", "4");
  parser.add_option("threads", "worker threads; 0 = keep the process default", "0");
  parser.add_option("window", "conservative sync window [s]", "0.25");
  parser.add_option("max-hops", "overflow handoff hop budget; 0 disables forwarding", "2");
  parser.add_option("router", "round-robin | least-loaded | accuracy-aware", "least-loaded");
  parser.add_option("fps", "aggregate arrival rate (empty = 70% of fleet capacity)", "");
  parser.add_option("duration", "trace duration [s]", "10");
  parser.add_option("seed", "rng seed", "42");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_or_synthetic(parser);

  const std::int64_t devices = parser.option_int("devices");
  require(devices >= 1 && devices <= 4096, "--devices must be in [1, 4096], got '" +
                                               parser.option("devices") + "'");
  const std::string router_name = parser.option_choice("router", fleet::router_names());
  const double duration = parser.option_double("duration");
  require(duration > 0.0, "--duration must be positive, got '" + parser.option("duration") + "'");
  const std::uint64_t seed = static_cast<std::uint64_t>(parser.option_int("seed"));

  // ShardConfig::validate re-checks these, but the CLI validates first so a
  // bad value names the flag instead of a ShardConfig field.
  const std::int64_t shards = parser.option_int("shards");
  require(shards >= 1 && shards <= devices, "--shards must be in [1, --devices], got '" +
                                                parser.option("shards") + "'");
  const std::int64_t threads = parser.option_int("threads");
  require(threads >= 0, "--threads must be >= 0, got '" + parser.option("threads") + "'");
  const double window = parser.option_positive_double("window");
  const std::int64_t max_hops = parser.option_int("max-hops");
  require(max_hops >= 0, "--max-hops must be >= 0, got '" + parser.option("max-hops") + "'");

  core::RuntimeManagerConfig rmc;
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, rmc, static_cast<int>(devices));
  config.ingress_capacity = 16 * devices;

  const auto [rate, trace] = bursty_trace(parser, lib, devices, duration, seed);
  shard::ShardConfig shard_config;
  shard_config.shards = static_cast<int>(shards);
  shard_config.threads = static_cast<int>(threads);
  shard_config.window_s = window;
  shard_config.max_hops = static_cast<int>(max_hops);
  const shard::ShardedMetrics m =
      shard::run_sharded_fleet(trace, lib, config, shard_config, router_name, seed);

  std::printf("shard=%lld shards x %lld threads, %lld devices router=%s rate=%.0f FPS "
              "duration=%.0fs window=%.3fs\n",
              static_cast<long long>(shards), static_cast<long long>(threads),
              static_cast<long long>(devices), router_name.c_str(), rate, duration, window);
  std::printf("frame loss   %s (ingress %lld, device %lld)\n",
              format_percent(m.fleet.frame_loss(), 2).c_str(),
              static_cast<long long>(m.fleet.ingress_lost),
              static_cast<long long>(m.fleet.device_lost));
  std::printf("QoE          %s\n", format_percent(m.fleet.qoe(), 2).c_str());
  std::printf("p95 backlog  %.0f ms\n", m.fleet.tail_latency_p95_s * 1e3);
  std::printf("wall clock   %s s over %lld windows (%lld handoffs, %lld dropped at hop cap)\n",
              format_double(m.stats.wall_seconds, 3).c_str(),
              static_cast<long long>(m.stats.windows),
              static_cast<long long>(m.stats.handoffs),
              static_cast<long long>(m.stats.handoff_lost));
  std::printf("fingerprint  %s\n", shard::metrics_fingerprint(m.fleet).c_str());
  return 0;
}

int cmd_ingest(const std::vector<std::string>& args) {
  ArgParser parser("adaflow ingest", "end-to-end ingest pipeline over a fleet");
  parser.add_option("library", "library file (empty = built-in synthetic library)", "");
  parser.add_option("cameras", "number of camera sessions (1..64)", "4");
  parser.add_option("devices", "number of fleet devices (1..64)", "2");
  parser.add_option("fps", "capture rate per camera [frames/s]", "30");
  parser.add_option("duration", "simulated time [s]", "30");
  parser.add_option("seed", "rng seed", "42");
  parser.add_option("churn", "session drop rate [1/s]; 0 = sessions never drop", "0.05");
  parser.add_option("loss", "i.i.d. network loss probability [0, 1)", "0.01");
  parser.add_option("jitter-ms", "one-way network jitter sigma [ms]", "10");
  parser.add_option("brownout", "off | ladder | drop-all", "ladder");
  parser.add_option("decode-ms", "decode cost per frame [ms]", "2");
  parser.add_option("decode-workers", "parallel decode slots", "2");
  parser.add_option("router", "round-robin | least-loaded | accuracy-aware", "least-loaded");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_or_synthetic(parser);

  // Every new knob is validated here so a bad value names the flag instead
  // of surfacing as a deep IngestConfig error mid-run.
  const std::int64_t cameras = parser.option_int("cameras");
  require(cameras >= 1 && cameras <= 64,
          "--cameras must be in [1, 64], got '" + parser.option("cameras") + "'");
  const std::int64_t devices = parser.option_int("devices");
  require(devices >= 1 && devices <= 64,
          "--devices must be in [1, 64], got '" + parser.option("devices") + "'");
  const double churn = parser.option_nonnegative_double("churn");
  const double loss = parser.option_double("loss");
  require(loss >= 0.0 && loss < 1.0, "--loss must be in [0, 1), got '" + parser.option("loss") + "'");
  const double jitter_ms = parser.option_nonnegative_double("jitter-ms");
  const std::string brownout = parser.option_choice("brownout", {"off", "ladder", "drop-all"});
  const std::string router_name = parser.option_choice("router", fleet::router_names());

  ingest::IngestConfig config;
  config.cameras = static_cast<int>(cameras);
  config.duration_s = parser.option_positive_double("duration");
  config.camera.fps = parser.option_positive_double("fps");
  config.camera.mean_uptime_s = churn > 0.0 ? 1.0 / churn : 0.0;
  config.network.loss_p = loss;
  config.network.jitter_s = jitter_ms * 1e-3;
  config.decode.cost_s = parser.option_nonnegative_double("decode-ms") * 1e-3;
  config.decode.workers = static_cast<int>(parser.option_int("decode-workers"));
  if (brownout == "off") {
    config.brownout.mode = ingest::BrownoutMode::kOff;
  } else if (brownout == "drop-all") {
    config.brownout.mode = ingest::BrownoutMode::kDropAll;
  }
  // Pinned devices start at the most-accurate version; the brownout tier-2
  // downgrade drives them through the existing switch path.
  for (std::int64_t i = 0; i < devices; ++i) {
    config.fleet.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(parser.option_int("seed"));

  auto router = fleet::make_router(router_name);
  const ingest::IngestMetrics m = ingest::run_ingest(config, lib, *router, seed);

  std::printf("ingest=%lld cameras x %.0f FPS -> %lld devices, brownout=%s, %.0fs\n",
              static_cast<long long>(cameras), config.camera.fps,
              static_cast<long long>(devices), brownout.c_str(), config.duration_s);
  std::printf("captured     %lld frames (+%lld network duplicates)\n",
              static_cast<long long>(m.captured), static_cast<long long>(m.duplicates));
  std::printf("delivered    %lld (%s of captured), %s degraded\n",
              static_cast<long long>(m.delivered),
              format_percent(m.delivered_fraction(), 2).c_str(),
              format_percent(m.degraded_fraction(), 2).c_str());
  std::printf("dropped      net %lld, stale %lld, thinned %lld, shed %lld, queue %lld, "
              "decode %lld, fleet %lld\n",
              static_cast<long long>(m.network_lost), static_cast<long long>(m.stale_dropped),
              static_cast<long long>(m.thinned), static_cast<long long>(m.dropall_shed),
              static_cast<long long>(m.queue_drops), static_cast<long long>(m.decode_failed),
              static_cast<long long>(m.fleet_shed + m.lost_in_fleet));
  if (m.e2e_latency.count() > 0) {
    std::printf("e2e latency  p50 %.1f ms, p99 %.1f ms, p999 %.1f ms\n",
                m.e2e_latency.percentile(0.5) * 1e3, m.e2e_latency.percentile(0.99) * 1e3,
                m.e2e_latency.percentile(0.999) * 1e3);
  }
  std::printf("QoE          %s\n", format_percent(m.qoe(), 2).c_str());
  std::printf("brownout     %lld tier-1 / %lld tier-2 engagements, "
              "%.1fs thinning, %.1fs downgraded, %.1fs shedding, final tier %d\n",
              static_cast<long long>(m.brownout.tier1_engagements),
              static_cast<long long>(m.brownout.tier2_engagements), m.brownout.time_tier1_s,
              m.brownout.time_tier2_s, m.brownout.time_shedding_s, m.final_tier);
  TextTable table({"session", "state", "connects", "captured", "net lost", "stale", "reordered"});
  for (const ingest::IngestSessionResult& s : m.sessions) {
    table.add_row({s.name, ingest::session_state_name(s.final_state),
                   std::to_string(s.session.connects), std::to_string(s.session.frames_captured),
                   std::to_string(s.network.lost()), std::to_string(s.filter.dropped_stale),
                   std::to_string(s.filter.reordered)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_forecast(const std::vector<std::string>& args) {
  ArgParser parser("adaflow forecast", "evaluate an online workload forecaster on a trace");
  parser.add_option("trace",
                    "scenario1 | scenario2 | 1+2 | diurnal | flash-crowd | path to a t,rate CSV",
                    "diurnal");
  parser.add_option("forecaster", "naive | ewma | holt-winters", "holt-winters");
  parser.add_option("horizon", "forecast horizon in windows (>= 1)", "3");
  parser.add_option("window", "observation window [s]", "0.5");
  parser.add_option("duration", "trace duration [s] (generated traces)", "120");
  parser.add_option("seed", "rng seed for the trace's jitter", "7");
  parser.add_option("tail", "forecast-vs-actual rows to print (0 = none)", "8");
  parser.parse(args);

  const std::int64_t horizon = parser.option_int("horizon");
  require(horizon >= 1, "--horizon must be >= 1, got '" + parser.option("horizon") + "'");
  const double window = parser.option_positive_double("window");
  const double duration = parser.option_positive_double("duration");
  const std::int64_t tail = parser.option_int("tail");
  require(tail >= 0, "--tail must be >= 0, got '" + parser.option("tail") + "'");
  const std::uint64_t seed = static_cast<std::uint64_t>(parser.option_int("seed"));
  // Resolves the flag up front so a typo names --forecaster, not a deep error.
  const forecast::ForecasterKind kind = forecast::forecaster_kind_from_name(
      parser.option("forecaster"));

  const std::string name = parser.option("trace");
  auto trace = [&]() -> edge::WorkloadTrace {
    if (name == "scenario1") {
      return edge::WorkloadTrace(edge::scenario1(duration), seed);
    }
    if (name == "scenario2") {
      return edge::WorkloadTrace(edge::scenario2(duration), seed);
    }
    if (name == "1+2") {
      return edge::WorkloadTrace(edge::scenario1_plus_2(duration * 0.6, duration), seed);
    }
    if (name == "diurnal") {
      return edge::diurnal_trace(300.0, 900.0, duration / 3.0, duration, window, 0.05, seed);
    }
    if (name == "flash-crowd") {
      return edge::flash_crowd_trace(250.0, 1250.0, duration * 0.25, duration * 0.1,
                                     duration * 0.25, duration, window, 0.05, seed);
    }
    // Anything else is a CSV path; from_csv names the offending line itself.
    return edge::WorkloadTrace::from_csv(name);
  }();

  forecast::ForecastTrackerConfig config;
  config.forecaster.kind = kind;
  config.horizon_windows = static_cast<int>(horizon);
  config.window_s = window;
  forecast::ForecastTracker tracker(config);
  for (double t = window; t <= trace.duration() + 1e-9; t += window) {
    tracker.observe(trace.rate_at(t - window / 2.0));
  }

  const sim::ForecastStats& s = tracker.stats();
  std::printf("trace=%s forecaster=%s horizon=%lld windows window=%.3gs duration=%.3gs\n",
              name.c_str(), forecast::forecaster_kind_name(kind),
              static_cast<long long>(horizon), window, trace.duration());
  std::printf("scored forecasts   %lld\n", static_cast<long long>(s.forecasts));
  std::printf("MAPE               %s\n", format_percent(s.mape(), 2).c_str());
  std::printf("interval coverage  %s\n", format_percent(s.coverage(), 2).c_str());
  std::printf("changepoints       %lld (%lld burst windows)\n",
              static_cast<long long>(s.changepoints), static_cast<long long>(s.burst_windows));
  const sim::TimeSeries& actual = tracker.actual_series();
  const sim::TimeSeries& predicted = tracker.forecast_series();
  if (tail > 0 && !actual.values.empty()) {
    TextTable table({"t[s]", "actual FPS", "predicted FPS"});
    const std::size_t n = actual.values.size();
    const std::size_t first = n > static_cast<std::size_t>(tail)
                                  ? n - static_cast<std::size_t>(tail)
                                  : 0;
    for (std::size_t i = first; i < n; ++i) {
      table.add_row({format_double(actual.time_of(i), 2), format_double(actual.values[i], 1),
                     format_double(predicted.values[i], 1)});
    }
    std::printf("last %zu windows:\n%s", n - first, table.render().c_str());
  }
  return 0;
}

int cmd_tune(const std::vector<std::string>& args) {
  ArgParser parser("adaflow tune", "design-space exploration of the PE/SIMD folding");
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2", "cnv-w2a2");
  parser.add_option("dataset", "cifar | gtsrb | mnist (sets the class count)", "cifar");
  parser.add_option("device", "zcu104 | zcu102 | pynq-z1", "zcu104");
  parser.add_option("objective", "max-fps | min-resources | balanced", "max-fps");
  parser.add_option("budget", "device resource fraction in (0, 1]", "0.7");
  parser.add_option("target-fps", "required throughput (min-resources objective)", "0");
  parser.add_option("beam", "beam width for large folding lattices (>= 1)", "8");
  parser.add_option("anneal", "simulated-annealing refinement iterations", "2000");
  parser.add_option("seed", "search seed (same seed => bit-identical frontier)", "7");
  parser.add_flag("flexible", "tune the Flexible (runtime-pruned) accelerator variant");
  parser.parse(args);

  dse::ExplorerConfig ec;
  ec.objective = dse::objective_by_name(parser.option("objective"));
  ec.budget_fraction = parser.option_double("budget");
  require(ec.budget_fraction > 0.0 && ec.budget_fraction <= 1.0,
          "--budget must be in (0, 1], got '" + parser.option("budget") + "'");
  ec.target_fps = parser.option_double("target-fps");
  require(ec.target_fps >= 0.0, "--target-fps must be >= 0, got '" +
                                    parser.option("target-fps") + "'");
  require(ec.objective != dse::Objective::kMinResources || ec.target_fps > 0.0,
          "the min-resources objective needs --target-fps > 0");
  ec.beam_width = static_cast<int>(parser.option_int("beam"));
  require(ec.beam_width >= 1, "--beam must be >= 1, got '" + parser.option("beam") + "'");
  ec.anneal_iters = static_cast<int>(parser.option_int("anneal"));
  require(ec.anneal_iters >= 0, "--anneal must be >= 0, got '" + parser.option("anneal") + "'");
  ec.seed = static_cast<std::uint64_t>(parser.option_int("seed"));
  if (parser.flag("flexible")) {
    ec.variant = hls::AcceleratorVariant::kFlexible;
  }

  const fpga::FpgaDevice device = fpga::device_by_name(parser.option("device"));
  const datasets::DatasetSpec spec = dataset_by_name(parser.option("dataset"));
  const nn::Model model = model_by_name(parser.option("model"), spec.classes, ec.seed);

  const std::vector<hls::MvtuLayerDesc> layers = hls::enumerate_mvtu_layers(model);
  require(!layers.empty(), "model has no MVTU layers to tune");
  const hls::CompiledModel geometry = hls::compile_geometry(model);
  const int wb = layers.front().weight_bits;
  const int ab = layers.front().act_bits;
  const dse::ExplorationResult result = dse::explore_geometry(geometry, wb, ab, device, ec);

  std::printf("tune %s on %s: objective=%s lattice=%.3g foldings, %lld evaluated (%s)\n",
              model.name().c_str(), device.name.c_str(), dse::objective_name(ec.objective),
              result.space_size, static_cast<long long>(result.evaluated),
              result.exhaustive ? "exhaustive" : "beam+anneal");
  if (result.frontier.empty()) {
    std::printf("no folding fits the budget; raise --budget\n");
    return 1;
  }
  if (!result.objective_met) {
    std::printf("warning: --target-fps %.1f is unreachable; showing the fastest design\n",
                ec.target_fps);
  }

  TextTable frontier({"", "FPS", "latency[ms]", "II[cyc]", "LUT", "FF", "BRAM18"});
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const dse::DesignPoint& p = result.frontier[i];
    frontier.add_row({i == result.best_index ? "best ->" : "",
                      format_double(p.fps, 1), format_double(p.latency_s * 1e3, 3),
                      std::to_string(p.ii_cycles), format_double(p.resources.luts, 0),
                      format_double(p.resources.flip_flops, 0),
                      format_double(p.resources.bram18, 0)});
  }
  std::printf("Pareto frontier (budget %.0f LUTs):\n%s\n", result.budget.luts,
              frontier.render().c_str());

  const dse::SearchSpace space =
      dse::build_search_space(geometry, wb, ab, ec.variant, result.budget, ec.constraints,
                              ec.resource_constants, ec.perf_constants);
  TextTable breakdown({"layer", "PE", "SIMD", "cycles", "LUT", "BRAM18", "bottleneck"});
  for (const dse::LayerReport& r : dse::layer_breakdown(space, result.best())) {
    breakdown.add_row({r.name, std::to_string(r.pe), std::to_string(r.simd),
                       std::to_string(r.cycles), format_double(r.luts, 0),
                       format_double(r.bram18, 0), r.is_bottleneck ? "<--" : ""});
  }
  std::printf("best design, per layer:\n%s", breakdown.render().c_str());
  return 0;
}

int cmd_tenant(const std::vector<std::string>& args) {
  ArgParser parser("adaflow tenant", "multi-tenant serving over a shared fleet");
  parser.add_option("library", "library file (empty = built-in synthetic library)", "");
  parser.add_option("tenants", "number of tenants (2..8); traffic shapes cycle "
                    "steady / diurnal / flash-crowd", "3");
  parser.add_option("devices", "number of fleet devices (>= tenants, <= 64)", "8");
  parser.add_option("duration", "simulated time [s]", "30");
  parser.add_option("rate", "steady-tenant offered rate [frames/s]; the diurnal "
                    "and flash shapes scale from it", "800");
  parser.add_option("scheduler", "wfq | fifo", "wfq");
  parser.add_option("partition", "rate-aware | peak-fps", "rate-aware");
  parser.add_option("seed", "rng seed (same seed => bit-identical metrics)", "42");
  parser.add_flag("no-borrow", "hard partition: tenants never borrow idle foreign devices");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_or_synthetic(parser);

  // Validate every knob here so a bad value names the flag instead of
  // surfacing as a deep MultiTenantConfig error mid-run.
  const std::int64_t tenants = parser.option_int("tenants");
  require(tenants >= 2 && tenants <= 8,
          "--tenants must be in [2, 8], got '" + parser.option("tenants") + "'");
  const std::int64_t devices = parser.option_int("devices");
  require(devices >= tenants && devices <= 64,
          "--devices must be in [tenants, 64], got '" + parser.option("devices") + "'");
  const double duration = parser.option_positive_double("duration");
  const double rate = parser.option_positive_double("rate");
  const std::string scheduler = parser.option_choice("scheduler", {"wfq", "fifo"});
  const std::string partition = parser.option_choice("partition", {"rate-aware", "peak-fps"});
  const std::uint64_t seed = static_cast<std::uint64_t>(parser.option_int("seed"));

  tenant::MultiTenantConfig config;
  config.devices = static_cast<int>(devices);
  config.duration_s = duration;
  config.scheduler = scheduler == "wfq" ? tenant::SchedulerPolicy::kWfq
                                        : tenant::SchedulerPolicy::kFifo;
  config.partition = partition == "rate-aware" ? tenant::PartitionPolicy::kRateAware
                                               : tenant::PartitionPolicy::kPeakFps;
  config.allow_borrow = !parser.flag("no-borrow");
  for (std::int64_t i = 0; i < tenants; ++i) {
    tenant::TenantSpec spec;
    spec.admission.rate_fps = rate * 2.0;
    spec.admission.burst_frames = 64;
    switch (i % 3) {
      case 0:
        spec.name = "steady-" + std::to_string(i);
        spec.accuracy_threshold = 0.03;
        spec.slo.max_latency_s = 0.04;
        spec.trace = edge::WorkloadTrace{{0.0}, {rate}, duration};
        break;
      case 1:
        spec.name = "diurnal-" + std::to_string(i);
        spec.weight = 1.5;
        spec.accuracy_threshold = 0.07;
        spec.slo.max_latency_s = 0.05;
        spec.trace = edge::diurnal_trace(rate * 0.4, rate * 1.5, duration * 0.5, duration,
                                         1.0, 0.05, seed + static_cast<std::uint64_t>(i));
        break;
      default:
        spec.name = "flash-" + std::to_string(i);
        spec.weight = 2.0;
        spec.accuracy_threshold = 0.12;
        spec.slo.max_latency_s = 0.08;
        spec.slo.min_deliver_fraction = 0.75;
        spec.admission.rate_fps = rate * 5.0;
        spec.admission.burst_frames = 128;
        spec.ingress_capacity = 96;
        spec.trace = edge::flash_crowd_trace(rate * 0.4, rate * 5.0, duration * 0.35,
                                             duration * 0.1, duration * 0.2, duration, 0.5,
                                             0.05, seed + static_cast<std::uint64_t>(i));
        break;
    }
    config.tenants.push_back(std::move(spec));
  }

  const tenant::MultiTenantMetrics m = tenant::run_tenants(config, lib, seed);

  std::printf("tenant=%lld tenants -> %lld devices, scheduler=%s, partition=%s%s, %.0fs\n",
              static_cast<long long>(tenants), static_cast<long long>(devices),
              scheduler.c_str(), partition.c_str(),
              config.allow_borrow ? "" : ", no-borrow", duration);
  TextTable table({"tenant", "offered", "throttled", "delivered", "shed", "QoE", "accuracy",
                   "p95[ms]", "violation[s]", "version"});
  for (const tenant::TenantResult& t : m.tenants) {
    table.add_row({t.usage.name, std::to_string(t.usage.offered),
                   std::to_string(t.usage.throttled), std::to_string(t.usage.delivered),
                   std::to_string(t.usage.shed), format_percent(t.usage.qoe(), 1),
                   format_percent(t.mean_accuracy, 1), format_double(t.latency_p95_s * 1e3, 1),
                   format_double(t.usage.slo_violation_s, 1),
                   "v" + std::to_string(t.final_version)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("worst-tenant SLO violation %.1fs, total %.1fs\n", m.worst_violation_s,
              m.total_violation_s);
  std::printf("coordinator: %lld device moves, %lld version switches, fleet QoE %s\n",
              static_cast<long long>(m.device_moves),
              static_cast<long long>(m.version_switches),
              format_percent(m.fleet.qoe(), 2).c_str());
  return 0;
}

int cmd_graph(const std::vector<std::string>& args) {
  ArgParser parser("adaflow graph", "print a model's graph-IR topology and hash");
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2 | yolo-tiny", "cnv-w2a2");
  parser.add_option("rate", "channel-pruning rate (yolo-tiny only)", "0");
  parser.add_option("classes", "classifier width of the cnv/tfc builders", "10");
  parser.parse(args);

  const std::string model = parser.option("model");
  const double rate = parser.option_double("rate");
  require(rate >= 0.0 && rate < 1.0,
          "--rate must be in [0, 1), got '" + parser.option("rate") + "'");
  const std::int64_t classes = parser.option_int("classes");
  require(classes >= 2 && classes <= 1024,
          "--classes must be in [2, 1024], got '" + parser.option("classes") + "'");
  require(rate == 0.0 || model == "yolo-tiny",
          "--rate only applies to yolo-tiny (the classification builders are "
          "pruned by the library sweep, not the graph)");

  graph::Graph g = [&]() -> graph::Graph {
    if (model == "cnv-w2a2") {
      return graph::from_cnv(nn::cnv_w2a2(classes));
    }
    if (model == "cnv-w1a2") {
      return graph::from_cnv(nn::cnv_w1a2(classes));
    }
    if (model == "tfc-w1a2") {
      return graph::from_mlp(nn::tfc_w1a2(classes));
    }
    if (model == "yolo-tiny") {
      return detect::yolo_graph(detect::yolo_tiny(), rate);
    }
    throw NotFoundError("unknown model '" + model +
                        "' (cnv-w2a2, cnv-w1a2, tfc-w1a2, yolo-tiny)");
  }();
  std::printf("%s", g.describe().c_str());
  return 0;
}

int cmd_detect(const std::vector<std::string>& args) {
  ArgParser parser("adaflow detect",
                   "YOLO-style detection serving over a rush-hour scene (one device)");
  parser.add_option("policy", "adaflow | finn | flexible", "adaflow");
  parser.add_option("duration", "trace duration [s]", "30");
  parser.add_option("base-density", "quiet-scene objects per frame", "2");
  parser.add_option("peak-density", "rush-hour objects per frame", "10");
  parser.add_option("threshold", "runtime-manager accuracy threshold (fraction)", "0.15");
  parser.add_option("device", "zcu104 | zcu102 | pynq-z1", "zcu104");
  parser.add_option("seed", "rng seed (same seed => bit-identical metrics)", "42");
  parser.parse(args);

  const double duration = parser.option_double("duration");
  require(duration >= 4.0 && duration <= 3600.0,
          "--duration must be in [4, 3600], got '" + parser.option("duration") + "'");
  const double base_density = parser.option_nonnegative_double("base-density");
  const double peak_density = parser.option_double("peak-density");
  require(peak_density >= base_density,
          "--peak-density must be >= --base-density, got '" +
              parser.option("peak-density") + "'");
  const double threshold = parser.option_double("threshold");
  require(threshold >= 0.0 && threshold <= 1.0,
          "--threshold must be in [0, 1], got '" + parser.option("threshold") + "'");
  const auto seed = static_cast<std::uint64_t>(parser.option_int("seed"));

  const core::AcceleratorLibrary lib =
      detect::detection_library(fpga::device_by_name(parser.option("device")));
  const detect::SceneTrace scene =
      detect::rush_hour_scene(base_density, peak_density, 0.25 * duration, 0.2 * duration,
                              0.3 * duration, duration, 0.5, 0.05, seed);

  core::RuntimeManagerConfig rmc;
  rmc.accuracy_threshold = threshold;
  const std::string policy_name = parser.option("policy");
  std::unique_ptr<edge::ServingPolicy> policy;
  if (policy_name == "adaflow") {
    policy = std::make_unique<core::RuntimeManager>(lib, rmc);
  } else if (policy_name == "finn") {
    policy = std::make_unique<core::StaticFinnPolicy>(lib);
  } else if (policy_name == "flexible") {
    policy = std::make_unique<core::PinnedPolicy>(lib, 0, hls::AcceleratorVariant::kFlexible);
  } else {
    throw ConfigError("unknown policy '" + policy_name + "' (adaflow, finn, flexible)");
  }

  const edge::RunMetrics m = detect::run_detection(scene, *policy, edge::ServerConfig{},
                                                   detect::DetectionRunConfig{}, seed);
  std::printf("policy=%s duration=%.0fs density=%.1f..%.1f\n", policy_name.c_str(), duration,
              base_density, peak_density);
  std::printf("detection QoE  %s\n", format_percent(m.qoe(), 2).c_str());
  std::printf("frame loss     %s\n", format_percent(m.frame_loss(), 2).c_str());
  std::printf("mAP proxy      %s over %lld scored frames\n",
              format_percent(m.detection.mean_map_proxy(), 2).c_str(),
              static_cast<long long>(m.detection.frames_scored));
  std::printf("precision      %s  recall %s\n",
              format_percent(m.detection.precision(), 2).c_str(),
              format_percent(m.detection.recall(), 2).c_str());
  std::printf("NMS pairs      %lld (%.1f per frame)\n",
              static_cast<long long>(m.detection.nms_pairs_total),
              m.detection.frames_scored > 0
                  ? static_cast<double>(m.detection.nms_pairs_total) /
                        static_cast<double>(m.detection.frames_scored)
                  : 0.0);
  std::printf("switches       %d (%d reconfigurations)\n", m.model_switches,
              m.reconfigurations);
  return 0;
}

int cmd_integrity(const std::vector<std::string>& args) {
  ArgParser parser("adaflow integrity", "silent-corruption integrity simulation (one device)");
  parser.add_option("library", "library file (empty = built-in synthetic library)", "");
  parser.add_option("policy", "adaflow | finn | reconf | proactive", "adaflow");
  parser.add_option("fps", "arrival rate (empty = 70% of the top version's FPS)", "");
  parser.add_option("duration", "trace duration [s]", "30");
  parser.add_option("upset-rate", "config-upset arrival rate [1/s]; 0 = clean fabric", "0.2");
  parser.add_option("upset-penalty", "accuracy penalty per landed upset (0, 1]", "0.08");
  parser.add_option("cross-section",
                    "Flexible-overlay exposure relative to a Fixed bitstream [0, 1]", "0.25");
  parser.add_option("canary-interval", "seconds between canary probes; 0 = no detection", "0.5");
  parser.add_option("scrub-period", "blind scrub reload period [s]; 0 = no scrubbing", "0");
  parser.add_option("detect-threshold", "drift-detector trip threshold (> 0)", "0.10");
  parser.add_option("epsilon", "drift-detector per-sample error allowance (>= 0)", "0.02");
  parser.add_option("repair-cooldown", "minimum gap between integrity reloads [s]", "1");
  parser.add_option("seed", "rng seed (same seed => bit-identical metrics)", "42");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_or_synthetic(parser);

  // Every knob is validated here so a bad value names the flag instead of
  // surfacing as a deep IntegrityRunConfig error mid-run.
  const double duration = parser.option_positive_double("duration");
  const double upset_rate = parser.option_nonnegative_double("upset-rate");
  const double upset_penalty = parser.option_double("upset-penalty");
  require(upset_penalty > 0.0 && upset_penalty <= 1.0,
          "--upset-penalty must be in (0, 1], got '" + parser.option("upset-penalty") + "'");
  const double cross_section = parser.option_double("cross-section");
  require(cross_section >= 0.0 && cross_section <= 1.0,
          "--cross-section must be in [0, 1], got '" + parser.option("cross-section") + "'");
  const double canary_interval = parser.option_nonnegative_double("canary-interval");
  const double scrub_period = parser.option_nonnegative_double("scrub-period");
  const double detect_threshold = parser.option_positive_double("detect-threshold");
  const double epsilon = parser.option_nonnegative_double("epsilon");
  const double repair_cooldown = parser.option_nonnegative_double("repair-cooldown");
  const std::uint64_t seed = static_cast<std::uint64_t>(parser.option_int("seed"));
  // Resolves the policy up front so a typo names --policy, not a deep error.
  const core::PolicyKind kind = core::policy_kind_from_name(parser.option("policy"));

  const auto [rate, trace] = bursty_trace(parser, lib, /*devices=*/1, duration, seed);

  integrity::IntegrityRunConfig config;
  config.canary.canary_interval_s = canary_interval;
  config.canary.detector.threshold = detect_threshold;
  config.canary.detector.epsilon = epsilon;
  config.policy.scrub_period_s = scrub_period;
  config.policy.repair_cooldown_s = repair_cooldown;

  const faults::FaultSchedule schedule =
      upset_rate > 0.0
          ? faults::config_upset_storm(0.0, duration, upset_rate, upset_penalty, cross_section)
          : faults::FaultSchedule{};
  core::RuntimeManagerConfig rmc;
  const edge::RunMetrics m = integrity::run_integrity(
      trace, core::make_serving_policy(kind, lib, rmc), lib, config, schedule, seed);

  const sim::IntegrityStats& s = m.integrity;
  std::printf("integrity policy=%s rate=%.0f FPS duration=%.0fs upsets=%.2f/s "
              "canary=%.2gs scrub=%.2gs\n",
              parser.option("policy").c_str(), rate, duration, upset_rate, canary_interval,
              scrub_period);
  std::printf("QoE            %s (frame loss %s)\n", format_percent(m.qoe(), 2).c_str(),
              format_percent(m.frame_loss(), 2).c_str());
  std::printf("upsets landed  %lld, corrupt for %.1fs (%s of the run)\n",
              static_cast<long long>(s.upsets_injected), s.corrupt_time_s,
              format_percent(s.corrupt_time_s / duration, 1).c_str());
  std::printf("wrong frames   %lld (%s of delivered)\n", static_cast<long long>(s.wrong_frames),
              format_percent(s.wrong_fraction(m.processed), 2).c_str());
  std::printf("canaries       %lld sent, %lld failed (%s throughput tax)\n",
              static_cast<long long>(s.canaries_sent), static_cast<long long>(s.canaries_failed),
              format_percent(s.canary_overhead(m.processed), 2).c_str());
  std::printf("detections     %lld (+%lld false alarms), mean latency %.2fs\n",
              static_cast<long long>(s.detections), static_cast<long long>(s.false_alarms),
              s.mean_detection_latency_s());
  std::printf("repairs        %lld (of which %lld blind scrubs issued), "
              "%d reconfigurations total\n",
              static_cast<long long>(s.repairs), static_cast<long long>(s.scrubs),
              m.reconfigurations);
  return 0;
}

int dispatch(int argc, char** argv) {
  const std::string usage =
      "usage: adaflow "
      "<devices|train|prune|eval|library|show|simulate|fleet|ingest|tune|forecast|tenant|shard|"
      "integrity|graph|detect> [options]\n";
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage.c_str());
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    rest.emplace_back(argv[i]);
  }
  if (command == "devices") {
    return cmd_devices(rest);
  }
  if (command == "train") {
    return cmd_train(rest);
  }
  if (command == "prune") {
    return cmd_prune(rest);
  }
  if (command == "eval") {
    return cmd_eval(rest);
  }
  if (command == "library") {
    return cmd_library(rest);
  }
  if (command == "show") {
    return cmd_show(rest);
  }
  if (command == "simulate") {
    return cmd_simulate(rest);
  }
  if (command == "fleet") {
    return cmd_fleet(rest);
  }
  if (command == "ingest") {
    return cmd_ingest(rest);
  }
  if (command == "tune") {
    return cmd_tune(rest);
  }
  if (command == "forecast") {
    return cmd_forecast(rest);
  }
  if (command == "tenant") {
    return cmd_tenant(rest);
  }
  if (command == "shard") {
    return cmd_shard(rest);
  }
  if (command == "integrity") {
    return cmd_integrity(rest);
  }
  if (command == "graph") {
    return cmd_graph(rest);
  }
  if (command == "detect") {
    return cmd_detect(rest);
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), usage.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  adaflow::set_log_level(adaflow::LogLevel::kWarn);
  try {
    return dispatch(argc, argv);
  } catch (const adaflow::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
