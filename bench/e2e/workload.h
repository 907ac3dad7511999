#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/amalur.h"
#include "data.h"
#include "relational/table.h"

/// \file workload.h
/// The benchmark's workloads: seeded silo tables plus one or two
/// integrations, each integrated and trained through the facade, with the
/// benchmark's own reference join for the checks.

namespace amalur {
namespace e2e {

/// One Integrate -> Train unit of a workload.
struct Case {
  std::string name;
  core::IntegrationSpec spec;
  core::TrainRequest request;
  /// Join key of each dimension, by dimension (child) table name; the key
  /// column has the same name on both sides of its edge.
  std::map<std::string, std::string> key_of_child;
  /// The benchmark's own join of this case's tables.
  std::function<Result<ReferenceTarget>(const std::map<std::string, const rel::Table*>&)>
      reference;
};

/// How a workload serves its model.
enum class ServeMode {
  /// `ModelHandle::Deploy` + `DeployedModel::PredictBatch` over target rows.
  kDeployed,
  /// `ModelHandle::Predict(rel::Table)` over client-supplied feature rows:
  /// the model owner scores new data, no silo data is read.
  kClientRows,
};

struct Workload {
  std::string name;
  std::vector<rel::Table> tables;
  std::vector<bool> privacy_sensitive;
  std::vector<Case> cases;
  ServeMode serve_mode = ServeMode::kDeployed;
  /// Index into `cases` of the model that is served.
  size_t serve_case = 0;
  /// Closed-loop batches per pass.
  size_t batches_per_pass = 0;

  std::map<std::string, const rel::Table*> TablesByName() const;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Options every facade instance of the benchmark uses.
core::AmalurOptions FacadeOptions();

/// Builds the named workload's tables from `seed`. `tiny` shrinks every
/// size for the self-check. Unknown names are `kInvalidArgument`.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool tiny);

}  // namespace e2e
}  // namespace amalur
