#pragma once

#include <map>
#include <string>

#include "runner.h"
#include "trace.h"

/// \file traced.h
/// The traced mode: after each facade pass, the benchmark re-runs the pass
/// as calls to the layers' public functions (matching, key matching,
/// duplicate ratio, metadata derivation, factorized build and products,
/// materialization and dense products, the GD loop, federated protocols,
/// deploy and batch scoring), timing each call as a span on the same inputs
/// the facade just used. Layers the workload's path does not reach record
/// no spans, and their per-layer metrics read 0.

namespace amalur {
namespace e2e {

/// Times `integration::DuplicateRatio` is called per source and pass in
/// the traced decomposition: once before and once after the derivation.
constexpr size_t kDuplicateRatioTimings = 2;

/// Counters the spans alone do not carry.
struct TracedTotals {
  size_t passes = 0;
  double train_overhead_s = 0.0;
  /// GD iterations and protocol rounds of the decomposed trainings.
  size_t gd_iterations = 0;
  size_t vfl_rounds = 0;
  size_t hfl_rounds = 0;
  /// Exact wire accounting of the decomposed federated trainings.
  size_t wire_bytes = 0;
  size_t messages = 0;
  /// Bytes of the materialized feature matrix the dense products stream.
  double gemv_matrix_bytes = 0.0;
  /// Strategy the optimizer chose, per case.
  std::map<std::string, std::string> strategies;
};

/// Runs one facade pass (with serving spans), then the decomposed pass.
/// Fails when the decomposition does not reproduce the
/// facade's results bit for bit.
Status RunTracedPass(Runner* runner, Tracer* tracer, uint64_t seed,
                     TracedTotals* totals);

}  // namespace e2e
}  // namespace amalur
