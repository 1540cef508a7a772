/// perfbench: the repository benchmark.
///
///   perfbench --workload design|edge_paper|fleet_1000 --seed N --seconds S
///             --trace 0|1 [--workdir DIR] [--smoke] [--break-conservation]
///
/// Untraced (--trace 0) runs print the end-to-end metrics; traced runs print
/// the per-layer metrics. The last line of stdout is one JSON object with
/// the keys correct, attempted, failed and metrics. The process exits 0 only
/// when every output check passed. --smoke shrinks every workload for the
/// self-test; --break-conservation corrupts the flow-conservation input so
/// the self-test can see the check trip.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "adaflow/common/logging.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<std::pair<std::string, std::string>> per_layer_catalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"datasets.generate_s", "s"},   {"nn.train_s", "s"},
      {"nn.train_samples_per_s", "1/s"}, {"nn.eval_s", "s"},
      {"pruning.prune_ms", "ms"},     {"dse.explore_s", "s"},
      {"dse.evaluated", "count"},     {"hls.compile_ms", "ms"},
      {"perf.analyze_us", "us"},      {"fpga.model_us", "us"},
      {"hls.infer_ms_fixed_p50", "ms"}, {"hls.infer_ms_fixed_p99", "ms"},
      {"hls.infer_ms_flex_p50", "ms"}, {"hls.infer_ms_flex_p99", "ms"},
      {"hls.flex_idle_ops", "count"}, {"hls.sw_agree", "fraction"},
  };
  for (const std::string& s : cnv_stage_names()) {
    c.emplace_back("hls." + s + ".us", "us");
    c.emplace_back("hls." + s + ".iters", "count");
    c.emplace_back("perf." + s + ".cycles", "count");
  }
  const std::vector<std::pair<std::string, std::string>> serving = {
      {"edge.trace_gen_ms", "ms"},    {"edge.run_ms_p50", "ms"},
      {"edge.run_ms_p99", "ms"},      {"core.decide_ns_p50", "ns"},
      {"core.decide_ns_p99", "ns"},   {"core.decisions", "count"},
      {"core.switches", "count"},     {"core.reconfigs", "count"},
      {"edge.switch_stall_s", "s"},   {"shard.loop_s", "s"},
      {"shard.windows", "count"},     {"shard.handoffs", "count"},
      {"shard.handoff_lost", "count"}, {"shard.parallel_eff", "fraction"},
      {"fleet.dispatched", "count"},  {"fleet.redispatched", "count"},
      {"fleet.ingress_lost", "count"}, {"faults.injected", "count"},
      {"trace.overhead_s", "s"},
  };
  c.insert(c.end(), serving.begin(), serving.end());
  return c;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload design|edge_paper|fleet_1000 "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] [--smoke] "
               "[--break-conservation]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + a);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") {
          usage("--trace takes 0 or 1");
        }
        o.trace = t == "1";
      } else if (a == "--workdir") {
        o.workdir = value();
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--break-conservation") {
        o.break_conservation = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(o.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return o;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  adaflow::set_log_level(adaflow::LogLevel::kWarn);
  Result r;
  try {
    if (o.trace) {
      for (const auto& [name, unit] : per_layer_catalog()) {
        r.metric(name, 0.0, unit);
      }
    }
    if (o.workload == "design") {
      run_design(o, r);
    } else if (o.workload == "edge_paper") {
      run_edge_paper(o, r);
    } else if (o.workload == "fleet_1000") {
      run_fleet_1000(o, r);
    } else {
      usage("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  r.print(o);
  return r.correct() ? 0 : 1;
}
