#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/dense_matrix.h"
#include "relational/table.h"

/// \file data.h
/// Seeded silo generators for the benchmark's workloads and the benchmark's
/// own reference join. The reference join reads the generated tables' key
/// columns directly (hash maps over int64 keys) and never goes through the
/// library's join, matching or metadata code, so the checks built on it are
/// independent of the code under test.

namespace amalur {
namespace e2e {

/// Snowflake chain fact -> dim0 -> dim1. Keys are `dim0_id` (fact, dim0)
/// and `dim1_id` (dim0, dim1); the label `y` lives on the fact and is
/// linear in the fact's and both dimensions' features.
struct SnowflakeShape {
  size_t fact_rows = 0;
  size_t fact_features = 0;
  size_t dim0_rows = 0;
  size_t dim0_features = 0;
  size_t dim1_rows = 0;
  size_t dim1_features = 0;
};
std::vector<rel::Table> GenerateSnowflake(const SnowflakeShape& shape,
                                          uint64_t seed);

/// Two silos over one entity space, joined 1:1 on `entity_id`. The first
/// `overlap` fraction of entities appear in both; the rest of each side
/// has no partner (dropped by an inner join). The label lives on the base.
struct PairShape {
  std::string base_name;
  std::string other_name;
  size_t rows = 0;
  size_t base_features = 0;
  size_t other_features = 0;
  double overlap = 1.0;
};
std::vector<rel::Table> GeneratePair(const PairShape& shape, uint64_t seed);

/// Two fact shards with a common schema (y, x0..), each referencing its own
/// dimension: fact0 -dima_id-> dima, fact1 -dimb_id-> dimb.
struct UnionOfStarsShape {
  size_t shard_rows = 0;
  size_t fact_features = 0;
  size_t dim_rows = 0;
  size_t dim_features = 0;
};
std::vector<rel::Table> GenerateUnionOfStars(const UnionOfStarsShape& shape,
                                             uint64_t seed);

/// The benchmark's own join result: feature matrix, label vector, and the
/// root (fact/base) row each reference row came from.
struct ReferenceTarget {
  std::vector<std::string> feature_names;
  la::DenseMatrix x;  // rows x features
  la::DenseMatrix y;  // rows x 1
  /// Root-table row of each reference row; for stacked shards the row is
  /// numbered over the shards in order.
  std::vector<size_t> root_row;

  size_t rows() const { return y.rows(); }
};

/// One key equality between two of the joined tables (indices into the
/// table list; the root is table 0). Inner edges drop root rows whose key
/// has no partner; left edges keep them with zero-filled features.
struct RefEdge {
  size_t parent = 0;
  size_t child = 0;
  std::string key;  // same column name on both sides
  bool inner = false;
};

/// Joins `tables` along `edges` (parents before children). Features are the
/// numeric columns of every table, in table and column order, except the
/// label and the columns named in `keys`. Child keys must be unique.
Result<ReferenceTarget> ReferenceJoin(const std::vector<const rel::Table*>& tables,
                                      const std::vector<RefEdge>& edges,
                                      const std::set<std::string>& keys,
                                      const std::string& label);

/// Stacks two reference targets (union of shards): columns are the union of
/// both feature lists (first's order, then the second's new names), absent
/// cells are zero, and the second's root rows are offset by the first's
/// row count.
ReferenceTarget StackTargets(const ReferenceTarget& first,
                             const ReferenceTarget& second);

}  // namespace e2e
}  // namespace amalur
