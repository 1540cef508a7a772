#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each fills \p r with the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run, Options::trace) and
/// records its operations and output checks.

#include <string>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

void run_design(const Options& o, Result& r);
void run_edge_paper(const Options& o, Result& r);
void run_fleet_1000(const Options& o, Result& r);

/// Pipeline stage names of CNV-W2A2 (the per-stage hls/perf rows).
std::vector<std::string> cnv_stage_names();

/// Every per-layer metric (name, unit) a traced run emits. A workload that
/// leaves a layer idle reports it as 0.
std::vector<std::pair<std::string, std::string>> per_layer_catalog();

}  // namespace perfbench
