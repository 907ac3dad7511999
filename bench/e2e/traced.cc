#include "traced.h"

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/integration_graph.h"
#include "factorized/factorized_table.h"
#include "federated/hfl.h"
#include "federated/message_bus.h"
#include "federated/paillier.h"
#include "federated/vfl.h"
#include "integration/entity_resolution.h"
#include "integration/schema_matching.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "relational/join.h"

namespace amalur {
namespace e2e {

namespace {

/// Paillier encrypt/decrypt calls timed per vertical case and pass.
constexpr size_t kPaillierCalls = 64;

Status SameWeights(const la::DenseMatrix& decomposed,
                   const la::DenseMatrix& facade, const std::string& what) {
  if (decomposed == facade) return Status::OK();
  return Status::Internal(
      what, ": the decomposed pass does not reproduce the facade's weights "
      "bit for bit");
}

/// The dense feature matrix and label vector of a materialized target.
struct Materialized {
  la::DenseMatrix features;
  la::DenseMatrix labels;
};

Materialized Materialize(const metadata::DiMetadata& metadata, size_t label,
                         Tracer* tracer) {
  la::DenseMatrix target;
  {
    ScopedSpan span(tracer, "metadata.materialize");
    target = metadata.MaterializeTargetMatrix();
  }
  ScopedSpan span(tracer, "la.select_columns");
  std::vector<size_t> feature_cols;
  for (size_t j = 0; j < target.cols(); ++j) {
    if (j != label) feature_cols.push_back(j);
  }
  return {target.SelectColumns(feature_cols), target.SelectColumns({label})};
}

federated::HflOptions HflOptionsFor(const core::TrainRequest& request) {
  // The options `Executor::Run` derives from a request.
  federated::HflOptions options;
  options.rounds = request.gd.iterations;
  options.local_epochs = 1;
  options.learning_rate = request.gd.learning_rate;
  options.l2 = request.gd.l2;
  options.secure_aggregation =
      request.privacy != federated::VflPrivacy::kPlaintext;
  options.policy = request.federated_policy;
  return options;
}

federated::VflOptions VflOptionsFor(const core::TrainRequest& request) {
  federated::VflOptions options;
  options.iterations = request.gd.iterations;
  options.learning_rate = request.gd.learning_rate;
  options.l2 = request.gd.l2;
  options.privacy = request.privacy;
  options.policy = request.federated_policy;
  return options;
}

/// Integrate, decomposed: matching, key matching, duplicate ratios and the
/// metadata derivation on the inputs the facade used.
Status DecomposeIntegrate(const Case& spec, const core::IntegrationHandle& h,
                          const std::map<std::string, const rel::Table*>& tables,
                          Tracer* tracer) {
  ScopedSpan span(tracer, "pipeline.integrate");
  const integration::SchemaMatcherOptions matcher = FacadeOptions().matcher;
  std::vector<const rel::Table*> ordered;
  for (const std::string& name : h.source_names) ordered.push_back(tables.at(name));

  std::vector<metadata::MetadataEdge> edges;
  if (h.shape == metadata::IntegrationShape::kPairwise) {
    edges.push_back({0, 1, h.edges[0].kind});
  } else {
    ScopedSpan plan_span(tracer, "core.plan_graph");
    AMALUR_ASSIGN_OR_RETURN(core::IntegrationGraphPlan plan,
                            core::PlanIntegrationGraph(h.edges, {}));
    if (plan.sources != h.source_names) {
      return Status::Internal(spec.name, ": re-planning reordered the sources");
    }
    edges = plan.metadata_edges;
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    const rel::Table& parent = *ordered[edges[e].parent];
    const rel::Table& child = *ordered[edges[e].child];
    {
      ScopedSpan match_span(tracer, "integration.match_schemas");
      const std::vector<integration::ColumnMatch> matches =
          integration::MatchSchemas(parent, child, matcher);
      if (matches.size() != h.edge_matches[e].size()) {
        return Status::Internal(spec.name, ": schema matching is not "
                                "reproducible");
      }
    }
    if (edges[e].kind == rel::JoinKind::kUnion) continue;
    const std::string& key = spec.key_of_child.at(child.name());
    ScopedSpan key_span(tracer, "relational.match_rows_on_keys");
    AMALUR_ASSIGN_OR_RETURN(rel::RowMatching matching,
                            rel::MatchRowsOnKeys(parent, child, {key}, {key}));
    if (matching.matched.size() != h.matchings[e].matched.size()) {
      return Status::Internal(spec.name, ": key matching on '", key,
                              "' differs from the facade's row matching");
    }
  }
  // `metadata.derive` calls `DuplicateRatio` itself; the separate calls
  // give its share. They run once before and once after the derivation
  // (kDuplicateRatioTimings), so the colder heap of whichever runs first
  // cancels within each pass.
  auto duplicate_ratios = [&]() -> Status {
    for (size_t k = 0; k < ordered.size(); ++k) {
      std::vector<size_t> columns;
      for (const std::string& name : h.mapping.MappedColumns(k)) {
        AMALUR_ASSIGN_OR_RETURN(size_t index, ordered[k]->ColumnIndex(name));
        columns.push_back(index);
      }
      ScopedSpan dup_span(tracer, "integration.duplicate_ratio");
      const double ratio = integration::DuplicateRatio(*ordered[k], columns);
      if (ratio != h.metadata.source(k).duplicate_ratio) {
        return Status::Internal(spec.name, ": duplicate ratio differs");
      }
    }
    return Status::OK();
  };
  AMALUR_RETURN_NOT_OK(duplicate_ratios());
  metadata::DiMetadata derived;
  {
    ScopedSpan derive_span(tracer, "metadata.derive");
    if (h.shape == metadata::IntegrationShape::kPairwise) {
      AMALUR_ASSIGN_OR_RETURN(derived, metadata::DiMetadata::Derive(
                                           h.mapping, ordered, h.matchings[0]));
    } else {
      AMALUR_ASSIGN_OR_RETURN(derived,
                              metadata::DiMetadata::DeriveGraph(
                                  h.mapping, ordered, edges, h.matchings));
    }
  }
  AMALUR_RETURN_NOT_OK(duplicate_ratios());
  if (derived.target_rows() != h.metadata.target_rows() ||
      derived.target_cols() != h.metadata.target_cols()) {
    return Status::Internal(spec.name, ": derived metadata differs");
  }
  return Status::OK();
}

/// Encrypt/decrypt calls with the vertical protocol's key size and
/// fixed-point precision, on the case's label values.
Status TimePaillier(const la::DenseMatrix& labels, uint64_t seed,
                     Tracer* tracer) {
  const federated::VflOptions defaults;
  const federated::Paillier paillier(
      federated::Paillier::GenerateKeys(defaults.seed ^ 0xC0FFEE,
                                        defaults.paillier_prime_bits),
      defaults.fractional_bits);
  const double resolution = std::ldexp(1.0, -defaults.fractional_bits);
  Rng rng(seed);
  for (size_t i = 0; i < kPaillierCalls && i < labels.rows(); ++i) {
    const double value = labels.At(i, 0);
    federated::PaillierCiphertext cipher;
    {
      ScopedSpan span(tracer, "federated.paillier_encrypt");
      cipher = paillier.EncryptDouble(value, &rng);
    }
    double plain = 0.0;
    {
      ScopedSpan span(tracer, "federated.paillier_decrypt");
      plain = paillier.DecryptDouble(cipher);
    }
    if (!(std::fabs(plain - value) <= resolution)) {
      return Status::Internal("Paillier round trip of ", value, " gave ",
                              plain);
    }
  }
  return Status::OK();
}

/// Train, decomposed along the strategy the facade ran. Encryption is
/// timed separately after a vertical federated training: the protocol's
/// own encrypt and decrypt calls happen inside the library.
Status DecomposeTrain(Runner* runner, const Case& spec,
                      const core::IntegrationHandle& h,
                      const core::ModelHandle& model, uint64_t seed,
                      Tracer* tracer, TracedTotals* totals) {
  const metadata::DiMetadata& metadata = h.metadata;
  const size_t label =
      *metadata.target_schema().IndexOf(spec.request.label_column);
  const core::ExecutionStrategy strategy = model.outcome().strategy_used;
  totals->strategies[spec.name] = core::ExecutionStrategyToString(strategy);
  const la::DenseMatrix& weights = model.weights();

  la::DenseMatrix vfl_labels;
  {
    ScopedSpan span(tracer, "pipeline.train");
    {
      ScopedSpan plan_span(tracer, "core.plan");
      const core::Plan plan = runner->facade()->Explain(h);
      if (plan.strategy != strategy) {
        return Status::Internal(spec.name, ": Explain disagrees with the "
                                "strategy Train ran");
      }
    }
    switch (strategy) {
      case core::ExecutionStrategy::kFactorize: {
        std::shared_ptr<const factorized::FactorizedTable> table;
        {
          ScopedSpan build_span(tracer, "factorized.build");
          table = std::make_shared<const factorized::FactorizedTable>(metadata);
        }
        ml::FactorizedFeatures features(table, label);
        la::DenseMatrix labels;
        {
          ScopedSpan labels_span(tracer, "factorized.labels");
          labels = features.Labels();
        }
        TimedTrainingMatrix timed(&features, tracer, "factorized.lmm",
                                  "factorized.lmm_t");
        ScopedSpan train_span(tracer, "ml.train");
        const ml::LinearModel trained =
            ml::TrainLinearRegression(timed, labels, spec.request.gd);
        totals->gd_iterations += spec.request.gd.iterations;
        AMALUR_RETURN_NOT_OK(SameWeights(trained.weights, weights, spec.name));
        break;
      }
      case core::ExecutionStrategy::kMaterialize: {
        const Materialized dense = Materialize(metadata, label, tracer);
        totals->gemv_matrix_bytes =
            static_cast<double>(dense.features.size() * sizeof(double));
        const ml::MaterializedMatrix features(dense.features);
        TimedTrainingMatrix timed(&features, tracer, "la.gemv", "la.gemv_t");
        ScopedSpan train_span(tracer, "ml.train");
        const ml::LinearModel trained =
            ml::TrainLinearRegression(timed, dense.labels, spec.request.gd);
        totals->gd_iterations += spec.request.gd.iterations;
        AMALUR_RETURN_NOT_OK(SameWeights(trained.weights, weights, spec.name));
        break;
      }
      case core::ExecutionStrategy::kFederate: {
        federated::MessageBus bus;
        if (metadata.IsHorizontallyPartitioned()) {
          std::vector<federated::HflPartition> shards;
          {
            ScopedSpan align_span(tracer, "federated.align");
            AMALUR_ASSIGN_OR_RETURN(shards,
                                    federated::AlignForHfl(metadata, label));
          }
          const federated::HflOptions options = HflOptionsFor(spec.request);
          ScopedSpan train_span(tracer, "federated.hfl_train");
          AMALUR_ASSIGN_OR_RETURN(
              federated::HflResult result,
              federated::TrainHorizontalFlr(shards, options, &bus));
          totals->hfl_rounds += options.rounds;
          totals->wire_bytes += result.bytes_transferred;
          totals->messages += result.messages;
          AMALUR_RETURN_NOT_OK(SameWeights(result.weights, weights, spec.name));
        } else {
          federated::NaryVflAlignment alignment;
          {
            ScopedSpan align_span(tracer, "federated.align");
            AMALUR_ASSIGN_OR_RETURN(alignment,
                                    federated::AlignForVflNary(metadata, label));
          }
          ScopedSpan train_span(tracer, "federated.vfl_train");
          AMALUR_ASSIGN_OR_RETURN(
              federated::NaryVflResult result,
              federated::TrainVerticalFlrNary(alignment.parties,
                                              alignment.labels,
                                              VflOptionsFor(spec.request), &bus));
          totals->vfl_rounds += result.rounds;
          totals->wire_bytes += result.bytes_transferred;
          totals->messages += result.messages;
          // Reassemble [theta_0; ...] into target-feature order.
          la::DenseMatrix assembled(metadata.target_cols() - 1, 1);
          for (size_t k = 0; k < alignment.parties.size(); ++k) {
            const std::vector<size_t>& columns = alignment.parties[k].columns;
            for (size_t j = 0; j < columns.size(); ++j) {
              const size_t f = columns[j] < label ? columns[j] : columns[j] - 1;
              assembled.At(f, 0) = result.thetas[k].At(j, 0);
            }
          }
          AMALUR_RETURN_NOT_OK(SameWeights(assembled, weights, spec.name));
          vfl_labels = alignment.labels;
        }
        break;
      }
    }
  }

  if (vfl_labels.empty()) return Status::OK();
  return TimePaillier(vfl_labels, seed, tracer);
}

}  // namespace

Status RunTracedPass(Runner* runner, Tracer* tracer, uint64_t seed,
                     TracedTotals* totals) {
  tracer->set_pass(static_cast<int64_t>(totals->passes));
  PassTimes times;
  {
    ScopedSpan span(tracer, "facade.pass");
    AMALUR_RETURN_NOT_OK(runner->RunPass(&times, tracer));
  }
  totals->train_overhead_s += times.train_overhead_s;

  const Workload& workload = runner->workload();
  const std::map<std::string, const rel::Table*> tables = workload.TablesByName();
  {
    ScopedSpan register_span(tracer, "relational.register");
    core::Catalog catalog;
    for (size_t t = 0; t < workload.tables.size(); ++t) {
      const rel::Table& table = workload.tables[t];
      AMALUR_RETURN_NOT_OK(catalog.RegisterSource(
          {table.name(), table, "silo-" + table.name(),
           workload.privacy_sensitive[t]}));
    }
  }
  for (size_t c = 0; c < workload.cases.size(); ++c) {
    const Case& spec = workload.cases[c];
    const core::IntegrationHandle& handle = runner->last_handle(c);
    AMALUR_RETURN_NOT_OK(DecomposeIntegrate(spec, handle, tables, tracer));
    AMALUR_RETURN_NOT_OK(DecomposeTrain(runner, spec, handle,
                                        runner->last_model(c), seed, tracer,
                                        totals));
  }
  ++totals->passes;
  return Status::OK();
}

}  // namespace e2e
}  // namespace amalur
