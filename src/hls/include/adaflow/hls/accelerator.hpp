#pragma once

/// \file accelerator.hpp
/// The dataflow accelerator: a pipeline of SWU/MVTU/MaxPool modules built
/// from a compiled model and a folding configuration.
///
/// A *Fixed-Pruning* accelerator is hard-wired to the model it was
/// synthesized from (loading anything else throws — on real hardware it
/// would require an FPGA reconfiguration, modeled in src/fpga). A
/// *Flexible-Pruning* accelerator is synthesized to the worst case (the
/// unpruned initial CNN) and accepts any dataflow-aware-pruned version of it
/// via the runtime channel ports, with no reconfiguration.

#include <memory>
#include <string>
#include <vector>

#include "adaflow/hls/compiled_model.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/hls/modules.hpp"
#include "adaflow/nn/data.hpp"

namespace adaflow::hls {

/// Per-stage and per-frame execution counters of the last inference.
struct InferenceStats {
  std::vector<ModuleStats> mvtu_stages;   ///< one per MVTU (conv/fc) stage
  std::vector<ModuleStats> pool_stages;   ///< one per pool stage
  std::int64_t total_pipeline_iterations() const;
  std::int64_t total_idle_unit_ops() const;
};

class DataflowAccelerator {
 public:
  /// Builds the module pipeline. \p synthesis_model defines the synthesized
  /// geometry (worst case); it is also loaded as the initial model.
  /// \p folding must validate against the synthesis model.
  DataflowAccelerator(AcceleratorVariant variant, const CompiledModel& synthesis_model,
                      FoldingConfig folding);

  AcceleratorVariant variant() const { return variant_; }
  const std::string& loaded_version() const { return loaded_.version; }
  const FoldingConfig& folding() const { return folding_; }
  const CompiledModel& synthesis_model() const { return synthesis_; }

  /// Loads a model version. Fixed: must be the synthesis model (same
  /// geometry). Flexible: any version whose per-stage channels fit the
  /// synthesized worst case and keep the PE/SIMD lanes fed.
  void load_model(const CompiledModel& model);

  /// Runs one frame through the pipeline; returns float logits.
  std::vector<float> infer_logits(const nn::Tensor& image);

  /// Argmax class of one frame.
  int infer_class(const nn::Tensor& image);

  /// Counters of the most recent infer call.
  const InferenceStats& last_stats() const { return stats_; }

 private:
  AcceleratorVariant variant_;
  CompiledModel synthesis_;
  FoldingConfig folding_;
  CompiledModel loaded_;

  std::vector<MatrixVectorThresholdUnit> mvtus_;  // one per MVTU stage
  std::vector<MaxPoolUnit> pools_;                // one per pool stage
  InferenceStats stats_;
};

/// Convenience: top-1 accuracy of an accelerator over a labeled set.
double accelerator_accuracy(DataflowAccelerator& accelerator, const nn::LabeledData& data);

}  // namespace adaflow::hls
