/// The `design` workload: AdaFlow's design-time Library Generator (train ->
/// dataflow-aware prune -> retrain -> compile -> perf/resource model, with
/// the dse folding tuner on) on synthetic CIFAR-10, followed by a check of
/// the functional dataflow model: every version runs through its Fixed
/// accelerator and through the shared Flexible accelerator.
///
/// Untraced, the workload calls core::LibraryGenerator::generate as a user
/// would. Traced, it chains the public stage calls in generate_from's order
/// with a timer around each one; the resulting table must be byte-identical
/// to the untraced one. The per-stage hls rows chain the public
/// SWU/MVTU/pool units, which must reproduce infer_logits bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <type_traits>

#include "adaflow/common/parallel.hpp"
#include "adaflow/core/library_generator.hpp"
#include "adaflow/dse/explorer.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/loss.hpp"
#include "adaflow/nn/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace adaflow;

struct DesignSize {
  std::vector<double> rates;
  std::int64_t train = 0;
  std::int64_t test = 0;
  std::int64_t verify_images = 0;
  int base_epochs = 0;
  int retrain_epochs = 0;
};

DesignSize design_size(bool smoke) {
  if (smoke) {
    return {{0.0, 0.5}, 64, 32, 4, 1, 1};
  }
  return {{0.0, 0.25, 0.5, 0.7, 0.85}, 1000, 500, 100, 5, 2};
}

/// The generator's own seed (weight init, dse, retraining) stays at its
/// default: the benchmark seed varies the input data only, so every seed
/// prunes to the same channel counts and does the same amount of work.
core::LibraryConfig library_config(const DesignSize& size) {
  core::LibraryConfig c;
  c.rates = size.rates;
  c.base_epochs = size.base_epochs;
  c.retrain_epochs = size.retrain_epochs;
  c.tune_folding = true;
  return c;
}

/// Exact bytes of the library TSV (the cache format save_library writes),
/// through a scratch file in \p workdir that is removed again.
std::string table_bytes(const core::AcceleratorLibrary& table, const std::string& workdir) {
  const std::string path = workdir + "/design_table.tsv";
  core::save_library(table, path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  return bytes;
}

/// CPU time of each layer while the Library Generator runs.
struct StageTimes {
  double train_s = 0.0;
  double train_samples = 0.0;
  double eval_s = 0.0;
  double prune_s = 0.0;
  double dse_s = 0.0;
  std::int64_t dse_evaluated = 0;
  double compile_s = 0.0;
  double perf_s = 0.0;
  double fpga_s = 0.0;
};

/// Runs \p fn and adds the process CPU time it took to \p acc.
template <typename F>
auto timed(double& acc, F&& fn) {
  const Stopwatch sw(CLOCK_PROCESS_CPUTIME_ID);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += sw.seconds();
  } else {
    auto out = fn();
    acc += sw.seconds();
    return out;
  }
}

void fit(nn::Model& model, const nn::TrainConfig& tc, const nn::LabeledData& train,
         StageTimes& t) {
  timed(t.train_s, [&] { nn::Trainer(tc).fit(model, train); });
  t.train_samples += static_cast<double>(tc.epochs) * static_cast<double>(train.count());
}

dse::ExplorerConfig base_tune_config(const core::LibraryConfig& config) {
  dse::ExplorerConfig ec;
  ec.objective = dse::Objective::kMinResources;
  ec.target_fps = config.target_base_fps;
  ec.budget_fraction = config.tune_budget_fraction;
  ec.variant = hls::AcceleratorVariant::kFixed;
  ec.constraints.max_prune_granularity = config.tune_prune_granularity;
  ec.beam_width = config.tune_beam;
  ec.anneal_iters = config.tune_anneal_iters;
  ec.seed = config.seed;
  ec.resource_constants = config.resource_constants;
  return ec;
}

struct TracedLibrary {
  core::GeneratedLibrary lib;
  std::vector<nn::Model> version_models;  ///< software model of every version
};

/// LibraryGenerator::generate, re-chained from its public stage calls in
/// generate_from's order with a timer around each layer. Only the chain is
/// duplicated here; the result must match generate() byte for byte.
TracedLibrary traced_generate(const fpga::FpgaDevice& device, const core::LibraryConfig& config,
                              const nn::CnvTopology& topology,
                              const datasets::SyntheticDataset& dataset, StageTimes& t) {
  const graph::Graph g = graph::from_cnv(topology);
  nn::Model base = graph::lower_model(g, config.seed);
  {
    nn::TrainConfig tc;
    tc.epochs = config.base_epochs;
    tc.lr = config.base_lr;
    tc.batch_size = config.batch_size;
    tc.lr_decay_epochs = {config.base_epochs * 3 / 4};
    tc.seed = config.seed;
    fit(base, tc, dataset.train, t);
  }
  const nn::LabeledData snapped_test{
      hls::snap_to_input_grid(dataset.test.images, config.input_quant), dataset.test.labels};

  hls::FoldingConfig folding;
  {
    const dse::ExplorationResult r =
        timed(t.dse_s, [&] { return dse::explore(base, device, base_tune_config(config)); });
    t.dse_evaluated += r.evaluated;
    folding = (r.frontier.empty() || !r.objective_met)
                  ? hls::folding_for_target_fps(base, config.target_base_fps, device.clock_hz)
                  : r.best().folding;
  }
  hls::validate_folding(base, folding);
  const std::vector<hls::MvtuLayerDesc> mvtu_layers = hls::enumerate_mvtu_layers(base);
  const int weight_bits = mvtu_layers.front().weight_bits;
  const int act_bits = mvtu_layers.front().act_bits;
  const hls::CompiledModel base_geometry =
      timed(t.compile_s, [&] { return hls::compile_geometry(base); });
  const fpga::ResourceUsage base_fixed_area = timed(t.fpga_s, [&] {
    return fpga::accelerator_resources(base_geometry, folding, hls::AcceleratorVariant::kFixed,
                                       weight_bits, act_bits, config.resource_constants);
  });

  TracedLibrary out;
  core::GeneratedLibrary& lib = out.lib;
  lib.folding = folding;
  lib.table.model_name = base.name();
  lib.table.dataset_name = dataset.spec.name;
  lib.table.clock_hz = device.clock_hz;
  const fpga::PowerModel power(device, config.power_constants);
  const fpga::ReconfigModel reconfig(device);
  lib.table.reconfig_time_s = reconfig.full_reconfig_seconds();

  hls::CompiledModel worstcase;
  for (const double rate : config.rates) {
    const auto rate_salt = static_cast<std::uint64_t>(std::llround(rate * 100));
    pruning::PruneResult pr = timed(t.prune_s, [&] {
      return pruning::dataflow_aware_prune(base, folding, rate, config.prune_options);
    });
    nn::Model model = std::move(pr.model);
    if (rate > 0.0) {
      nn::TrainConfig tc;
      tc.epochs = config.retrain_epochs;
      tc.lr = config.retrain_lr;
      tc.batch_size = config.batch_size;
      if (config.retrain_epochs > 1) {
        tc.lr_decay_epochs = {config.retrain_epochs - 1};
      }
      tc.seed = config.seed + rate_salt;
      fit(model, tc, dataset.train, t);
    }
    model.set_name(lib.table.model_name + "@p" + std::to_string(rate_salt));

    core::ModelVersion v;
    v.version = model.name();
    v.requested_rate = rate;
    v.achieved_rate = pr.achieved_rate;
    v.accuracy = timed(t.eval_s, [&] { return nn::Trainer::evaluate(model, snapped_test); });
    hls::CompiledModel compiled =
        timed(t.compile_s, [&] { return hls::compile_model(model, rate, config.input_quant); });
    compiled.accuracy = v.accuracy;
    if (rate == 0.0) {
      worstcase = compiled;
    }

    v.folding_fixed = folding;
    dse::ExplorerConfig ec = base_tune_config(config);
    ec.objective = dse::Objective::kMaxFps;
    ec.target_fps = 0.0;
    ec.budget = base_fixed_area;
    ec.constraints.max_prune_granularity = 0.0;
    ec.seed = config.seed + rate_salt;
    const dse::ExplorationResult tuned = timed(t.dse_s, [&] {
      return dse::explore_geometry(compiled, weight_bits, act_bits, device, ec);
    });
    t.dse_evaluated += tuned.evaluated;
    if (!tuned.frontier.empty()) {
      v.folding_fixed = tuned.best().folding;
    }

    const perf::PerfReport fixed_perf = timed(t.perf_s, [&] {
      return perf::analyze(compiled, v.folding_fixed, hls::AcceleratorVariant::kFixed,
                           device.clock_hz);
    });
    const perf::PerfReport flex_perf = timed(t.perf_s, [&] {
      return perf::analyze(compiled, folding, hls::AcceleratorVariant::kFlexible,
                           device.clock_hz);
    });
    v.fps_fixed = fixed_perf.fps;
    v.fps_flexible = flex_perf.fps;
    v.latency_fixed_s = fixed_perf.latency_s;
    v.latency_flexible_s = flex_perf.latency_s;
    timed(t.fpga_s, [&] {
      v.resources_fixed =
          fpga::accelerator_resources(compiled, v.folding_fixed, hls::AcceleratorVariant::kFixed,
                                      weight_bits, act_bits, config.resource_constants);
      v.power_busy_fixed_w = power.watts(v.resources_fixed, 1.0);
      v.power_idle_fixed_w = power.watts(v.resources_fixed, 0.0);
    });
    lib.compiled.push_back(std::move(compiled));
    lib.table.versions.push_back(std::move(v));
    out.version_models.push_back(std::move(model));
  }

  timed(t.fpga_s, [&] {
    core::AcceleratorLibrary& table = lib.table;
    table.resources_finn =
        fpga::accelerator_resources(worstcase, folding, hls::AcceleratorVariant::kFixed,
                                    weight_bits, act_bits, config.resource_constants);
    table.resources_flexible =
        fpga::accelerator_resources(worstcase, folding, hls::AcceleratorVariant::kFlexible,
                                    weight_bits, act_bits, config.resource_constants);
    table.folding_flexible = folding;
    table.finn_power_busy_w = power.watts(table.resources_finn, 1.0);
    table.finn_power_idle_w = power.watts(table.resources_finn, 0.0);
    table.base_accuracy = table.versions.front().accuracy;
    for (std::size_t i = 0; i < table.versions.size(); ++i) {
      core::ModelVersion& v = table.versions[i];
      const double active = 1.0 - v.achieved_rate;
      const double frac = config.rates[i] == 0.0
                              ? 1.0
                              : config.flexible_toggle_floor +
                                    (1.0 - config.flexible_toggle_floor) * active * active;
      const double dyn = power.dynamic_watts(table.resources_flexible) * frac;
      v.power_busy_flexible_w = device.static_power_w + dyn;
      v.power_idle_flexible_w = device.static_power_w + dyn * config.power_constants.idle_activity;
      v.flexible_switch_time_s = reconfig.flexible_switch_seconds(lib.compiled[i]);
    }
  });
  lib.table.topology_hash = g.topology_hash();
  lib.base_model = std::move(base);
  return out;
}

/// Functional-model outcome of one pass over every version.
struct VerifyOutcome {
  std::int64_t images = 0;      ///< (version, image) pairs run on Fixed and Flexible
  std::int64_t mismatched = 0;  ///< Fixed logits != Flexible logits
  std::int64_t sw_compared = 0;
  std::int64_t sw_agreed = 0;
  std::string sw_by_version;     ///< "version agreed/compared" per compared version
  std::vector<double> fixed_ms;  ///< CPU time of each inference
  std::vector<double> flex_ms;
  double flex_idle_ops = 0.0;    ///< summed unfed lanes on Flexible
};

/// Runs \p images through every version's Fixed accelerator and the shared
/// Flexible one. sw_models[i], when set, is version i's software model: its
/// classes are compared with the accelerator's.
VerifyOutcome verify(const core::GeneratedLibrary& lib, const nn::Tensor& images,
                     const std::vector<nn::Model*>& sw_models) {
  VerifyOutcome out;
  const std::int64_t n = images.dim(0);
  hls::DataflowAccelerator flex(hls::AcceleratorVariant::kFlexible, lib.compiled.front(),
                                lib.folding);
  for (std::size_t v = 0; v < lib.compiled.size(); ++v) {
    hls::DataflowAccelerator fixed(hls::AcceleratorVariant::kFixed, lib.compiled[v],
                                   lib.table.versions[v].folding_fixed);
    flex.load_model(lib.compiled[v]);
    std::vector<int> sw_pred;
    if (sw_models[v] != nullptr) {
      sw_pred = nn::argmax_rows(sw_models[v]->forward(images, false));
    }
    const nn::LabeledData batch{images, std::vector<int>(static_cast<std::size_t>(n), 0)};
    const std::int64_t agreed_before = out.sw_agreed;
    for (std::int64_t i = 0; i < n; ++i) {
      const nn::Tensor img = batch.sample(i);
      const Stopwatch a(CLOCK_THREAD_CPUTIME_ID);
      const std::vector<float> lf = fixed.infer_logits(img);
      const double fixed_s = a.seconds();
      const Stopwatch b(CLOCK_THREAD_CPUTIME_ID);
      const std::vector<float> lx = flex.infer_logits(img);
      const double flex_s = b.seconds();
      out.fixed_ms.push_back(fixed_s * 1e3);
      out.flex_ms.push_back(flex_s * 1e3);
      out.flex_idle_ops += static_cast<double>(flex.last_stats().total_idle_unit_ops());
      ++out.images;
      out.mismatched += lf != lx ? 1 : 0;
      if (!sw_pred.empty()) {
        const auto cls = static_cast<int>(std::max_element(lf.begin(), lf.end()) - lf.begin());
        ++out.sw_compared;
        out.sw_agreed += cls == sw_pred[static_cast<std::size_t>(i)] ? 1 : 0;
      }
    }
    if (!sw_pred.empty()) {
      out.sw_by_version += " " + lib.table.versions[v].version + " " +
                           std::to_string(out.sw_agreed - agreed_before) + "/" + std::to_string(n);
    }
  }
  return out;
}

/// Per-stage view of the unpruned version on its Fixed accelerator: the
/// public SWU/MVTU/pool units chained by hand, timed per module, beside the
/// accelerator's own iteration counters and the perf model's cycles.
void stage_rows(const core::GeneratedLibrary& lib, const nn::Tensor& images,
                const fpga::FpgaDevice& device, Result& r) {
  const hls::CompiledModel& model = lib.compiled.front();
  const hls::FoldingConfig& folding = lib.table.versions.front().folding_fixed;
  hls::DataflowAccelerator accel(hls::AcceleratorVariant::kFixed, model, folding);

  std::vector<hls::MatrixVectorThresholdUnit> mvtus;
  std::vector<hls::MaxPoolUnit> pools;
  std::size_t ordinal = 0;
  for (const hls::CompiledStage& s : model.stages) {
    if (s.desc.kind == hls::StageKind::kPool) {
      pools.emplace_back(hls::AcceleratorVariant::kFixed, s.desc.ch_in, s.desc.kernel);
      pools.back().set_channels(s.desc.ch_in);
    } else {
      const hls::LayerFolding& f = folding.layers[ordinal++];
      mvtus.emplace_back(hls::AcceleratorVariant::kFixed, s.desc.ch_in, s.desc.ch_out,
                         s.desc.kernel, f.pe, f.simd);
      mvtus.back().load(s.desc.ch_in, s.desc.ch_out, s.weight_levels, s.thresholds);
    }
  }

  const std::size_t stages = model.stages.size();
  std::vector<double> stage_s(stages, 0.0);
  std::vector<std::int64_t> iters(stages, 0);
  const std::int64_t n = images.dim(0);
  const nn::LabeledData batch{images, std::vector<int>(static_cast<std::size_t>(n), 0)};
  std::int64_t identical = 0;
  bool iters_match = true;
  for (std::int64_t i = 0; i < n; ++i) {
    const nn::Tensor img = batch.sample(i);
    const std::vector<float> reference = accel.infer_logits(img);
    const hls::InferenceStats& stats = accel.last_stats();

    hls::IntImage fmap = hls::quantize_input(img, model.input_quant);
    std::size_t m = 0;
    std::size_t p = 0;
    for (std::size_t k = 0; k < stages; ++k) {
      const hls::StageDesc& d = model.stages[k].desc;
      hls::ModuleStats ms;
      const Stopwatch sw(CLOCK_THREAD_CPUTIME_ID);
      if (d.kind == hls::StageKind::kPool) {
        fmap = pools[p].run(fmap, &ms);
        iters_match &= ms.pipeline_iterations == stats.pool_stages[p].pipeline_iterations;
        ++p;
      } else {
        hls::WindowBuffer windows;
        std::int64_t out_dim = 1;
        if (d.kind == hls::StageKind::kConv) {
          windows = hls::SlidingWindowUnit(d.kernel, d.stride, d.pad).run(fmap, nullptr);
          out_dim = d.out_dim;
        } else {
          windows.rows = fmap.size();
          windows.cols = 1;
          windows.data.assign(fmap.data.begin(), fmap.data.end());
        }
        fmap = mvtus[m].run(windows, out_dim, out_dim, &ms);
        iters_match &= ms.pipeline_iterations == stats.mvtu_stages[m].pipeline_iterations;
        ++m;
      }
      stage_s[k] += sw.seconds();
      iters[k] = ms.pipeline_iterations;
    }
    std::vector<float> logits(static_cast<std::size_t>(fmap.size()));
    for (std::size_t j = 0; j < logits.size(); ++j) {
      logits[j] = static_cast<float>(fmap.data[j]) * model.stages.back().acc_scale;
    }
    identical += logits == reference ? 1 : 0;
  }
  r.operations(n);
  r.check(identical == n, "chained SWU/MVTU/pool units reproduce infer_logits bit for bit (" +
                              std::to_string(identical) + "/" + std::to_string(n) + ")");
  r.check(iters_match, "chained module iteration counts equal the accelerator's last_stats()");

  const perf::PerfReport report =
      perf::analyze(model, folding, hls::AcceleratorVariant::kFixed, device.clock_hz);
  for (std::size_t k = 0; k < stages; ++k) {
    const std::string& name = model.stages[k].desc.name;
    r.metric("hls." + name + ".us", stage_s[k] / static_cast<double>(n) * 1e6, "us");
    r.metric("hls." + name + ".iters", static_cast<double>(iters[k]), "count");
    r.metric("perf." + name + ".cycles", static_cast<double>(report.stages[k].cycles), "count");
  }
}

}  // namespace

std::vector<std::string> cnv_stage_names() {
  const nn::Model model = graph::lower_model(graph::from_cnv(nn::cnv_w2a2(10)), 1);
  std::vector<std::string> names;
  for (const hls::CompiledStage& s : hls::compile_geometry(model).stages) {
    names.push_back(s.desc.name);
  }
  return names;
}

void run_design(const Options& o, Result& r) {
  set_worker_count(std::min(4, host_threads()));
  const DesignSize size = design_size(o.smoke);
  const fpga::FpgaDevice device = fpga::zcu104();
  const nn::CnvTopology topology = nn::cnv_w2a2(10);
  const core::LibraryConfig config = library_config(size);
  datasets::DatasetSpec spec = datasets::synth_cifar10_spec(size.train, size.test);
  spec.seed = o.seed;

  // Set-up: the synthetic dataset, built several times for a stable median.
  datasets::SyntheticDataset dataset;
  const std::vector<double> setup =
      time_repeated(0.0, 3, 3, [&] { dataset = datasets::generate(spec); });
  std::vector<std::int64_t> subset;
  for (std::int64_t i = 0; i < size.verify_images; ++i) {
    subset.push_back(i);
  }
  const nn::Tensor images =
      hls::snap_to_input_grid(dataset.test.subset(subset).images, config.input_quant);

  const core::LibraryGenerator generator(device, config);
  core::GeneratedLibrary lib;
  VerifyOutcome checked;
  // One pass = what a user of the design flow runs: generate the library,
  // then check the functional model of every version. Returns the CPU time
  // of generate.
  auto untraced_pass = [&] {
    lib = core::GeneratedLibrary{};  // peak memory must not depend on the pass count
    const Stopwatch sw(CLOCK_PROCESS_CPUTIME_ID);
    lib = generator.generate(topology, dataset);
    const double gen_s = sw.seconds();
    std::vector<nn::Model*> sw_models(lib.compiled.size(), nullptr);
    sw_models.front() = &lib.base_model;  // generate() keeps only the unpruned model
    checked = verify(lib, images, sw_models);
    return gen_s;
  };
  auto account = [&](const VerifyOutcome& v, const std::string& label) {
    r.operations(1 + v.images);
    r.check(v.mismatched == 0, label + ": Fixed and Flexible logits identical on " +
                                   std::to_string(v.images) + " (version, image) pairs");
    const double agree = static_cast<double>(v.sw_agreed) / static_cast<double>(v.sw_compared);
    r.check(agree >= 0.97, label + ": accelerator class agrees with the software model on " +
                               std::to_string(v.sw_agreed) + "/" +
                               std::to_string(v.sw_compared) + " images (floor 97%):" +
                               v.sw_by_version);
    return agree;
  };

  std::string table;
  if (!o.trace) {
    std::vector<double> gen_s;
    std::vector<double> fixed_ms;
    std::vector<double> flex_ms;
    bool repeatable = true;
    double rss_mb = 0.0;
    time_repeated(o.seconds, 1, 50, [&] {
      gen_s.push_back(untraced_pass());
      if (gen_s.size() == 1) {
        rss_mb = peak_rss_mb();  // what one run of the design flow needs
      }
      account(checked, "pass " + std::to_string(gen_s.size()));
      fixed_ms.insert(fixed_ms.end(), checked.fixed_ms.begin(), checked.fixed_ms.end());
      flex_ms.insert(flex_ms.end(), checked.flex_ms.begin(), checked.flex_ms.end());
      const std::string bytes = table_bytes(lib.table, o.workdir);
      repeatable = repeatable && (table.empty() || bytes == table);
      table = bytes;
    });
    r.check(repeatable, "every generate pass yields a byte-identical library table");
    // Images per CPU second of a Fixed + Flexible pair, each at its median
    // time: medians over every inference of the run are steadier than the
    // total of a few passes.
    const double img_per_s = 2e3 / (median(fixed_ms) + median(flex_ms));
    double acc_sum = 0.0;
    std::string accs;
    for (const core::ModelVersion& v : lib.table.versions) {
      acc_sum += v.accuracy;
      accs += " " + v.version + "=" + std::to_string(v.accuracy);
    }
    std::string passes;
    for (const double g : gen_s) {
      passes += " " + std::to_string(g);
    }
    r.note("libgen_s (LibraryGenerator::generate) median " + std::to_string(median(gen_s)) +
           " CPU s over " + std::to_string(gen_s.size()) + " passes:" + passes);
    r.note("verify_img_per_s " + std::to_string(img_per_s) + " over " +
           std::to_string(fixed_ms.size()) + " inferences per accelerator type");
    r.note("lib_acc_mean " +
           std::to_string(acc_sum / static_cast<double>(lib.table.versions.size())) + ";" + accs);
    r.digest("design.table", Digest().str(table).hex());
    r.metric("setup_s", median(setup), "s");
    r.metric("job_cpu_s", median(gen_s), "s");
    r.metric("items_per_cpu_s", img_per_s, "1/s");
    r.metric("quality", lib.table.versions.front().accuracy, "fraction");
    r.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Traced: one untraced pass as the reference, then the traced chain.
  const Stopwatch untraced_sw(CLOCK_PROCESS_CPUTIME_ID);
  untraced_pass();
  const double untraced_cpu = untraced_sw.seconds();
  account(checked, "untraced");
  table = table_bytes(lib.table, o.workdir);

  StageTimes t;
  const Stopwatch traced_sw(CLOCK_PROCESS_CPUTIME_ID);
  TracedLibrary traced = traced_generate(device, config, topology, dataset, t);
  std::vector<nn::Model*> sw_models;
  for (nn::Model& m : traced.version_models) {
    sw_models.push_back(&m);
  }
  const VerifyOutcome v = verify(traced.lib, images, sw_models);
  const double traced_cpu = traced_sw.seconds();
  const double agree = account(v, "traced");
  const std::string traced_table = table_bytes(traced.lib.table, o.workdir);
  r.check(traced_table == table, "traced stage chain reproduces generate()'s table byte for byte");
  r.digest("design.table", Digest().str(table).hex());
  r.digest("design.table.traced", Digest().str(traced_table).hex());

  stage_rows(traced.lib, images, device, r);
  r.metric("datasets.generate_s", median(setup), "s");
  r.metric("nn.train_s", t.train_s, "s");
  r.metric("nn.train_samples_per_s", t.train_samples / t.train_s, "1/s");
  r.metric("nn.eval_s", t.eval_s, "s");
  r.metric("pruning.prune_ms", t.prune_s * 1e3, "ms");
  r.metric("dse.explore_s", t.dse_s, "s");
  r.metric("dse.evaluated", static_cast<double>(t.dse_evaluated), "count");
  r.metric("hls.compile_ms", t.compile_s * 1e3, "ms");
  r.metric("perf.analyze_us", t.perf_s * 1e6, "us");
  r.metric("fpga.model_us", t.fpga_s * 1e6, "us");
  r.metric("hls.infer_ms_fixed_p50", percentile(v.fixed_ms, 0.50), "ms");
  r.metric("hls.infer_ms_fixed_p99", percentile(v.fixed_ms, 0.99), "ms");
  r.metric("hls.infer_ms_flex_p50", percentile(v.flex_ms, 0.50), "ms");
  r.metric("hls.infer_ms_flex_p99", percentile(v.flex_ms, 0.99), "ms");
  r.metric("hls.flex_idle_ops", v.flex_idle_ops / static_cast<double>(v.images), "count");
  r.metric("hls.sw_agree", agree, "fraction");
  r.metric("trace.overhead_s", traced_cpu - untraced_cpu, "s");
  r.note("inference samples: " + std::to_string(v.fixed_ms.size()) + " per accelerator type");
}

}  // namespace perfbench
