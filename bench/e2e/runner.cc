#include "runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "reference.h"

namespace amalur {
namespace e2e {

namespace {

/// Distinct batches a workload cycles through; all of them are checked.
constexpr size_t kDistinctBatches = 32;
/// Rows per served batch.
constexpr size_t kBatchRows = 2048;

/// Tolerance of centralized training against the reference descent: both
/// run the same arithmetic in different summation orders.
constexpr double kExactTolerance = 1e-8;

/// FedAvg with secure aggregation rounds each party's row-weighted model to
/// 2^-24 before sharing; divided by the round's rows that is far below this.
constexpr double kSecureAggregationTolerance = 1e-8;

/// A served score against the benchmark's own dot product.
constexpr double kScoreTolerance = 1e-9;

/// The program's reported MSE against the one computed here (summation
/// order differs), and against the least-squares optimum.
constexpr double kMseTolerance = 1e-9;

/// Full-precision rendering for check messages.
std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

size_t FeatureColumns(const rel::Table& table, const std::string& key) {
  size_t count = 0;
  for (const rel::Column& column : table.columns()) {
    if (column.type() != rel::DataType::kString && column.name() != key &&
        column.name() != "y") {
      ++count;
    }
  }
  return count;
}

}  // namespace

Runner::Runner(Workload workload, size_t threads, uint64_t seed)
    : workload_(std::move(workload)),
      threads_(threads),
      facade_(FacadeOptions()),
      seed_(seed) {
  for (Case& c : workload_.cases) c.request.num_threads = threads_;
}

Status Runner::RegisterSources() {
  for (size_t t = 0; t < workload_.tables.size(); ++t) {
    const rel::Table& table = workload_.tables[t];
    AMALUR_RETURN_NOT_OK(facade_.catalog()->RegisterSource(
        {table.name(), table, "silo-" + table.name(),
         workload_.privacy_sensitive[t]}));
  }
  return Status::OK();
}

Status Runner::RunPass(PassTimes* times, Tracer* tracer) {
  const bool first = passes_ == 0;
  last_handles_.resize(workload_.cases.size());
  last_models_.resize(workload_.cases.size());
  for (size_t c = 0; c < workload_.cases.size(); ++c) {
    const Case& spec = workload_.cases[c];
    Stopwatch watch;
    Result<core::IntegrationHandle> handle = facade_.Integrate(spec.spec);
    times->integrate_s += watch.ElapsedSeconds();
    ++attempted_;
    if (!handle.ok()) {
      return Status::Internal(spec.name, ": Integrate failed: ",
                              handle.status().ToString());
    }
    watch.Restart();
    Result<core::ModelHandle> model = facade_.Train(*handle, spec.request);
    const double train_s = watch.ElapsedSeconds();
    times->train_s += train_s;
    ++attempted_;
    if (!model.ok()) {
      return Status::Internal(spec.name, ": Train failed: ",
                              model.status().ToString());
    }
    times->train_overhead_s += train_s - model->outcome().seconds;
    if (first) {
      CaseOutcome outcome;
      outcome.feature_names = model->feature_names();
      outcome.weights = model->weights();
      outcome.strategy = model->outcome().strategy_used;
      outcome.bytes_transferred = model->outcome().bytes_transferred;
      const std::vector<double>& losses = model->outcome().loss_history;
      outcome.last_loss = losses.empty() ? 0.0 : losses.back();
      outcome.target_rows = handle->metadata.target_rows();
      outcome.horizontal = handle->metadata.IsHorizontallyPartitioned();
      const metadata::SourceMetadata& root = handle->metadata.source(0);
      for (size_t i = 0; i < outcome.target_rows; ++i) {
        outcome.root_of_target.push_back(root.indicator.At(i));
      }
      outcomes_.push_back(std::move(outcome));
    } else {
      la::DenseMatrix weights = model->weights();
      if (perturb_next_pass_) {
        weights.At(0, 0) = std::nextafter(weights.At(0, 0), HUGE_VAL);
        perturb_next_pass_ = false;
      }
      if (!(weights == outcomes_[c].weights)) {
        return Status::Internal(
            spec.name, ": weights differ between passes; training must be "
            "bit-for-bit deterministic");
      }
    }
    last_handles_[c] = *std::move(handle);
    last_models_[c] = *std::move(model);
  }
  if (first) AMALUR_RETURN_NOT_OK(PrepareServing());
  AMALUR_RETURN_NOT_OK(Serve(times, tracer));
  ++passes_;
  return Status::OK();
}

Status Runner::PrepareServing() {
  Rng rng(seed_ ^ 0x5e4e5e4eULL);
  const core::ModelHandle& model = last_models_[workload_.serve_case];
  if (workload_.serve_mode == ServeMode::kDeployed) {
    const size_t rows = outcomes_[workload_.serve_case].target_rows;
    if (rows == 0) return Status::Internal("nothing to serve: 0 target rows");
    for (size_t b = 0; b < kDistinctBatches; ++b) {
      std::vector<serving::RowRef> batch(kBatchRows);
      for (serving::RowRef& ref : batch) ref.row = rng.NextUint64(rows);
      batches_.push_back(std::move(batch));
    }
  } else {
    // Client rows carry the model's feature columns by name, in a shuffled
    // order (serving aligns by name, never by position).
    std::vector<std::string> names = model.feature_names();
    rng.Shuffle(&names);
    for (size_t b = 0; b < kDistinctBatches; ++b) {
      rel::Table table("client_batch");
      for (const std::string& name : names) {
        std::vector<double> values(kBatchRows);
        for (double& v : values) v = rng.NextGaussian();
        AMALUR_RETURN_NOT_OK(
            table.AddColumn(rel::Column::FromDoubles(name, std::move(values))));
      }
      client_tables_.push_back(std::move(table));
    }
  }
  served_.resize(kDistinctBatches);
  return Status::OK();
}

Status Runner::Serve(PassTimes* times, Tracer* tracer) {
  const bool first = passes_ == 0;
  const core::ModelHandle& model = last_models_[workload_.serve_case];
  serving::ModelRegistry registry;
  std::shared_ptr<const serving::DeployedModel> deployed;
  if (workload_.serve_mode == ServeMode::kDeployed) {
    ScopedSpan span(tracer, "serving.deploy");
    Stopwatch watch;
    auto result = model.Deploy(&registry, workload_.name);
    times->deploy_s += watch.ElapsedSeconds();
    ++attempted_;
    if (!result.ok()) {
      return Status::Internal("Deploy failed: ", result.status().ToString());
    }
    deployed = *std::move(result);
  }

  // One closed-loop client: the next batch is sent when the previous one
  // has been scored.
  auto score = [&](size_t slot) -> Result<la::DenseMatrix> {
    ScopedSpan span(tracer, "serving.predict_batch");
    if (deployed != nullptr) return deployed->PredictBatch(batches_[slot]);
    return model.Predict(client_tables_[slot]);
  };
  std::vector<double> latencies_us;
  latencies_us.reserve(workload_.batches_per_pass);
  Stopwatch loop;
  for (size_t b = 0; b < workload_.batches_per_pass; ++b) {
    const size_t slot = b % kDistinctBatches;
    Stopwatch watch;
    Result<la::DenseMatrix> scores = score(slot);
    latencies_us.push_back(watch.ElapsedSeconds() * 1e6);
    ++attempted_;
    if (!scores.ok()) {
      return Status::Internal("serving failed: ", scores.status().ToString());
    }
    ServedBatch& kept = served_[slot];
    if (first && b < kDistinctBatches) {
      if (deployed != nullptr) {
        kept.rows = batches_[slot];
      } else {
        kept.client_rows = client_tables_[slot];
      }
      kept.scores = *std::move(scores);
    } else if (!(*scores == kept.scores)) {
      return Status::Internal("batch ", slot,
                              " scored differently on a repeat request");
    }
  }
  times->serve_s += loop.ElapsedSeconds();
  const auto middle = latencies_us.begin() + latencies_us.size() / 2;
  std::nth_element(latencies_us.begin(), middle, latencies_us.end());
  times->serve_p50_us = *middle;
  times->serve_rows += workload_.batches_per_pass * kBatchRows;
  served_rows_ += workload_.batches_per_pass * kBatchRows;
  if (deployed != nullptr) cache_hits_ += deployed->stats().cache_hits;
  return Status::OK();
}

Status Runner::EvaluateOnReference() {
  const std::map<std::string, const rel::Table*> tables =
      workload_.TablesByName();
  references_.clear();
  for (size_t c = 0; c < workload_.cases.size(); ++c) {
    const Case& spec = workload_.cases[c];
    AMALUR_ASSIGN_OR_RETURN(ReferenceTarget ref, spec.reference(tables));
    // The reference target as a relational table: one column per feature
    // plus the label, for the program's own evaluation.
    rel::Table table("reference_target");
    for (size_t j = 0; j < ref.feature_names.size(); ++j) {
      std::vector<double> values(ref.rows());
      for (size_t i = 0; i < ref.rows(); ++i) values[i] = ref.x.At(i, j);
      AMALUR_RETURN_NOT_OK(table.AddColumn(
          rel::Column::FromDoubles(ref.feature_names[j], std::move(values))));
    }
    std::vector<double> labels(ref.rows());
    for (size_t i = 0; i < ref.rows(); ++i) labels[i] = ref.y.At(i, 0);
    AMALUR_RETURN_NOT_OK(table.AddColumn(rel::Column::FromDoubles(
        spec.request.label_column, std::move(labels))));
    AMALUR_ASSIGN_OR_RETURN(core::EvaluationReport report,
                            last_models_[c].Evaluate(table));
    outcomes_[c].reported_mse = report.mse;
    references_.push_back(std::move(ref));
  }
  return Status::OK();
}

Status Runner::CheckOutputs(double* model_mse,
                            std::vector<double>* tolerances) const {
  if (references_.size() != workload_.cases.size()) {
    return Status::FailedPrecondition(
        "the models have not been evaluated on the reference targets");
  }
  const std::map<std::string, const rel::Table*> tables =
      workload_.TablesByName();
  double sse = 0.0;
  size_t rows = 0;
  for (size_t c = 0; c < workload_.cases.size(); ++c) {
    const Case& spec = workload_.cases[c];
    const CaseOutcome& outcome = outcomes_[c];
    const ReferenceTarget& ref = references_[c];

    // 1. The target's row count.
    if (outcome.target_rows != ref.rows()) {
      return Status::FailedPrecondition(spec.name, ": target has ",
                                        outcome.target_rows,
                                        " rows; the reference join has ",
                                        ref.rows());
    }

    // 2. Weights against plain gradient descent on the reference target.
    const ml::GradientDescentOptions& gd = spec.request.gd;
    const ReferenceModel expected =
        ReferenceGradientDescent(ref, gd.learning_rate, gd.iterations, gd.l2);
    AMALUR_ASSIGN_OR_RETURN(
        la::DenseMatrix weights,
        AlignWeights(outcome.feature_names, outcome.weights, ref));
    double tolerance = kExactTolerance;
    const bool federated =
        outcome.strategy == core::ExecutionStrategy::kFederate;
    const bool vertical = federated && !outcome.horizontal;
    if (vertical) {
      const double lambda = LargestEigenvalue(ref);
      if (gd.learning_rate * lambda > 2.0) {
        return Status::FailedPrecondition(
            spec.name, ": learning rate ", gd.learning_rate,
            " is not contractive (lambda_max ", lambda,
            "); the fixed-point error bound does not hold");
      }
      tolerance = PaillierWeightBound(ref, expected, gd.learning_rate,
                                      spec.spec.sources.size(),
                                      federated::VflOptions{}.fractional_bits);
    } else if (federated) {
      tolerance = kSecureAggregationTolerance;
    }
    if (tolerances != nullptr) tolerances->push_back(tolerance);
    const double error = MaxRelativeError(weights, expected.weights);
    std::fprintf(stderr,
                 "e2e: case %s: weights within %.3g of the reference descent "
                 "(tolerance %.3g)\n",
                 spec.name.c_str(), error, tolerance);
    if (!(error <= tolerance)) {
      return Status::FailedPrecondition(
          spec.name, ": weights are off the reference descent by ",
          Num(error), " (tolerance ", Num(tolerance), ")");
    }

    // 3. The MSE the program reports for its model over the reference
    // target cannot beat the least-squares optimum, and must equal the MSE
    // of the returned weights computed here.
    const double mse = ReferenceMse(ref, weights);
    const double optimum = LeastSquaresMse(ref);
    const double reported = outcome.reported_mse;
    if (!(reported >= optimum * (1.0 - kMseTolerance))) {
      return Status::FailedPrecondition(
          spec.name, ": Evaluate reports MSE ", Num(reported),
          ", below the least-squares optimum ", Num(optimum));
    }
    if (!(std::fabs(reported - mse) <= kMseTolerance * mse)) {
      return Status::FailedPrecondition(
          spec.name, ": Evaluate reports MSE ", Num(reported),
          "; the returned weights' MSE over the reference target is ",
          Num(mse));
    }
    // The catalog records the last loss-history entry as the model's
    // metric; shown next to the returned weights' own MSE because the
    // strategies record it at different points of an iteration.
    std::fprintf(stderr,
                 "e2e: case %s: last loss_history entry %.17g, MSE of the "
                 "returned weights %.17g, least-squares optimum %.17g\n",
                 spec.name.c_str(), outcome.last_loss, mse, optimum);
    sse += mse * static_cast<double>(ref.rows());
    rows += ref.rows();

    // 4. Federated wire bytes against the protocol's message schedule;
    // centralized training sends nothing.
    if (!federated && outcome.bytes_transferred != 0) {
      return Status::FailedPrecondition(
          spec.name, ": ", outcome.bytes_transferred, " wire bytes from ",
          core::ExecutionStrategyToString(outcome.strategy), " training");
    }
    if (federated) {
      WireVolume volume;
      if (vertical) {
        std::vector<size_t> party_columns;
        const std::string& key = spec.key_of_child.begin()->second;
        for (const std::string& source : spec.spec.sources) {
          party_columns.push_back(FeatureColumns(*tables.at(source), key));
        }
        volume = PaillierVflVolume(ref.rows(), party_columns, gd.iterations);
      } else {
        volume = SecureFedAvgVolume(2, ref.feature_names.size(), gd.iterations);
      }
      if (outcome.bytes_transferred != volume.bytes) {
        return Status::FailedPrecondition(
            spec.name, ": ", outcome.bytes_transferred,
            " wire bytes; the message schedule gives ", volume.bytes);
      }
    }

    // 5. Served scores against the benchmark's own dot products.
    if (c != workload_.serve_case) continue;
    const bool deployed = workload_.serve_mode == ServeMode::kDeployed;
    std::map<size_t, size_t> ref_row_of_root;
    for (size_t r = 0; r < ref.rows(); ++r) ref_row_of_root[ref.root_row[r]] = r;
    std::vector<uint8_t> seen(ref.rows(), 0);
    for (int64_t root : outcome.root_of_target) {
      if (!deployed) break;
      auto it = ref_row_of_root.find(static_cast<size_t>(root));
      if (root < 0 || it == ref_row_of_root.end() || seen[it->second]++) {
        return Status::FailedPrecondition(
            spec.name, ": target rows do not map one-to-one onto the "
            "reference join's rows");
      }
    }
    for (size_t b = 0; b < served_.size(); ++b) {
      const ServedBatch& batch = served_[b];
      const size_t n = batch.scores.rows();
      for (size_t i = 0; i < n; ++i) {
        double expected_score = 0.0;
        if (deployed) {
          const size_t root =
              static_cast<size_t>(outcome.root_of_target[batch.rows[i].row]);
          const size_t r = ref_row_of_root.at(root);
          for (size_t j = 0; j < ref.feature_names.size(); ++j) {
            expected_score += ref.x.At(r, j) * weights.At(j, 0);
          }
        } else {
          const std::vector<std::string>& names = outcome.feature_names;
          for (size_t f = 0; f < names.size(); ++f) {
            const rel::Column* column = *batch.client_rows.ColumnByName(names[f]);
            expected_score += column->GetDouble(i) * outcome.weights.At(f, 0);
          }
        }
        const double score = batch.scores.At(i, 0);
        if (!(std::fabs(score - expected_score) <=
              kScoreTolerance * std::max(1.0, std::fabs(expected_score)))) {
          return Status::FailedPrecondition(
              spec.name, ": batch ", b, " row ", i, " scored ", Num(score),
              "; the reference dot product is ", Num(expected_score));
        }
      }
    }
  }
  *model_mse = sse / static_cast<double>(rows);
  return Status::OK();
}

}  // namespace e2e
}  // namespace amalur
