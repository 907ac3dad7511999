#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/amalur.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "trace.h"
#include "workload.h"

/// \file runner.h
/// Runs a workload's passes through the facade (Integrate -> Train ->
/// Serve), keeps what the checks need from the first pass, and checks the
/// outputs against the benchmark's own reference computations.

namespace amalur {
namespace e2e {

/// What the first pass of one case produced.
struct CaseOutcome {
  std::vector<std::string> feature_names;
  la::DenseMatrix weights;
  core::ExecutionStrategy strategy = core::ExecutionStrategy::kMaterialize;
  size_t bytes_transferred = 0;
  /// The last `loss_history` entry (the catalog's model metric).
  double last_loss = 0.0;
  /// The MSE `ModelHandle::Evaluate` reports over the reference target
  /// (filled by `EvaluateOnReference`).
  double reported_mse = 0.0;
  size_t target_rows = 0;
  /// Horizontally partitioned (federated training ran FedAvg).
  bool horizontal = false;
  /// Root-source row of every target row (source 0's indicator), for
  /// mapping served target rows to reference rows.
  std::vector<int64_t> root_of_target;
};

/// Timings of one facade pass.
struct PassTimes {
  double integrate_s = 0.0;
  double train_s = 0.0;
  /// Facade `Train` wall time minus `TrainOutcome::seconds`, summed.
  double train_overhead_s = 0.0;
  double deploy_s = 0.0;
  double serve_s = 0.0;
  size_t serve_rows = 0;
  /// Median batch latency of the pass's serving loop.
  double serve_p50_us = 0.0;
};

/// One served batch kept for the checks: the request and its scores.
struct ServedBatch {
  std::vector<serving::RowRef> rows;  // deployed serving
  rel::Table client_rows;             // client-row serving
  la::DenseMatrix scores;
};

/// Drives a workload through the facade. Owns the facade instance whose
/// catalog holds the workload's silos.
class Runner {
 public:
  Runner(Workload workload, size_t threads, uint64_t seed);

  /// Registers the workload's silos in the catalog (part of set-up).
  Status RegisterSources();

  /// Runs one pass: every case's Integrate and Train, then deploy (when
  /// the workload deploys) and `batches_per_pass` closed-loop batches.
  /// Every timed call is one attempted operation. The first pass records
  /// the case outcomes and the served batches the checks use; later passes
  /// must reproduce the first pass's weights and scores bit for bit.
  /// `tracer` (may be null) gets one span per served batch.
  Status RunPass(PassTimes* times, Tracer* tracer);

  /// Builds every case's reference target and has the program score its
  /// model over it with `ModelHandle::Evaluate`. Call once, after a pass
  /// and before `CheckOutputs`.
  Status EvaluateOnReference();

  /// Checks the first pass's outputs against the reference computations.
  /// Fills `model_mse` (pooled over every case's reference rows).
  /// `tolerances` (may be null) receives each case's weight tolerance.
  Status CheckOutputs(double* model_mse,
                      std::vector<double>* tolerances = nullptr) const;

  const Workload& workload() const { return workload_; }
  core::Amalur* facade() { return &facade_; }
  size_t threads() const { return threads_; }
  size_t attempted() const { return attempted_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t served_rows() const { return served_rows_; }
  const std::vector<CaseOutcome>& outcomes() const { return outcomes_; }
  /// Mutable access for the self-check's deliberate perturbations.
  std::vector<CaseOutcome>* mutable_outcomes() { return &outcomes_; }
  std::vector<ServedBatch>* mutable_served() { return &served_; }
  /// Makes the next pass's first weight one ulp larger before the
  /// determinism check sees it.
  void PerturbNextPassWeight() { perturb_next_pass_ = true; }
  /// The current pass's integration handle and model of case `c` (valid
  /// after `RunPass`), which the traced decomposition reuses as inputs.
  const core::IntegrationHandle& last_handle(size_t c) const {
    return last_handles_[c];
  }
  const core::ModelHandle& last_model(size_t c) const { return last_models_[c]; }

 private:
  Status PrepareServing();
  Status Serve(PassTimes* times, Tracer* tracer);

  Workload workload_;
  size_t threads_;
  core::Amalur facade_;
  size_t passes_ = 0;
  size_t attempted_ = 0;
  std::vector<CaseOutcome> outcomes_;
  std::vector<core::IntegrationHandle> last_handles_;
  std::vector<core::ModelHandle> last_models_;
  /// Serving inputs, generated after the first pass (not timed).
  std::vector<std::vector<serving::RowRef>> batches_;
  std::vector<rel::Table> client_tables_;
  std::vector<ServedBatch> served_;
  /// One per case, from `EvaluateOnReference`.
  std::vector<ReferenceTarget> references_;
  bool perturb_next_pass_ = false;
  uint64_t cache_hits_ = 0;
  uint64_t served_rows_ = 0;
  uint64_t seed_ = 0;
};

}  // namespace e2e
}  // namespace amalur
