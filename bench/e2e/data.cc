#include "data.h"

#include <cmath>
#include <map>
#include <unordered_map>

#include "common/rng.h"

namespace amalur {
namespace e2e {

namespace {

/// Gaussian feature block (rows x features).
std::vector<std::vector<double>> Gaussian(size_t rows, size_t features,
                                          Rng* rng) {
  std::vector<std::vector<double>> out(features, std::vector<double>(rows));
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < features; ++j) out[j][i] = rng->NextGaussian();
  }
  return out;
}

/// Coefficients scaled so the label has roughly unit variance.
std::vector<double> Coefficients(size_t count, size_t total, Rng* rng) {
  const double scale = std::sqrt(3.0 / static_cast<double>(total));
  std::vector<double> out(count);
  for (double& c : out) c = rng->NextDouble(-1.0, 1.0) * scale;
  return out;
}

void AddFeatures(rel::Table* table, const std::string& prefix,
                 std::vector<std::vector<double>> columns) {
  for (size_t j = 0; j < columns.size(); ++j) {
    AMALUR_CHECK_OK(table->AddColumn(rel::Column::FromDoubles(
        prefix + std::to_string(j), std::move(columns[j]))));
  }
}

std::vector<int64_t> Iota(size_t n, int64_t offset = 0) {
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<int64_t>(i) + offset;
  return out;
}

std::vector<int64_t> References(size_t n, size_t bound, Rng* rng) {
  std::vector<int64_t> out(n);
  for (int64_t& r : out) r = static_cast<int64_t>(rng->NextUint64(bound));
  return out;
}

double Dot(const std::vector<std::vector<double>>& columns,
           const std::vector<double>& coef, size_t row) {
  double acc = 0.0;
  for (size_t j = 0; j < columns.size(); ++j) acc += columns[j][row] * coef[j];
  return acc;
}

}  // namespace

std::vector<rel::Table> GenerateSnowflake(const SnowflakeShape& s,
                                          uint64_t seed) {
  Rng rng(seed);
  const size_t total = s.fact_features + s.dim0_features + s.dim1_features;
  const std::vector<double> fact_coef = Coefficients(s.fact_features, total, &rng);
  const std::vector<double> dim0_coef = Coefficients(s.dim0_features, total, &rng);
  const std::vector<double> dim1_coef = Coefficients(s.dim1_features, total, &rng);

  auto dim1_x = Gaussian(s.dim1_rows, s.dim1_features, &rng);
  auto dim0_x = Gaussian(s.dim0_rows, s.dim0_features, &rng);
  const std::vector<int64_t> dim0_ref = References(s.dim0_rows, s.dim1_rows, &rng);
  auto fact_x = Gaussian(s.fact_rows, s.fact_features, &rng);
  const std::vector<int64_t> fact_ref = References(s.fact_rows, s.dim0_rows, &rng);

  std::vector<double> y(s.fact_rows);
  for (size_t i = 0; i < s.fact_rows; ++i) {
    const size_t d0 = static_cast<size_t>(fact_ref[i]);
    const size_t d1 = static_cast<size_t>(dim0_ref[d0]);
    y[i] = Dot(fact_x, fact_coef, i) + Dot(dim0_x, dim0_coef, d0) +
           Dot(dim1_x, dim1_coef, d1) + 0.1 * rng.NextGaussian();
  }

  rel::Table fact("fact");
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s("dim0_id", fact_ref)));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("y", std::move(y))));
  AddFeatures(&fact, "x", std::move(fact_x));
  rel::Table dim0("dim0");
  AMALUR_CHECK_OK(
      dim0.AddColumn(rel::Column::FromInt64s("dim0_id", Iota(s.dim0_rows))));
  AMALUR_CHECK_OK(dim0.AddColumn(rel::Column::FromInt64s("dim1_id", dim0_ref)));
  AddFeatures(&dim0, "alpha", std::move(dim0_x));
  rel::Table dim1("dim1");
  AMALUR_CHECK_OK(
      dim1.AddColumn(rel::Column::FromInt64s("dim1_id", Iota(s.dim1_rows))));
  AddFeatures(&dim1, "omega", std::move(dim1_x));
  return {std::move(fact), std::move(dim0), std::move(dim1)};
}

std::vector<rel::Table> GeneratePair(const PairShape& s, uint64_t seed) {
  Rng rng(seed);
  const size_t total = s.base_features + s.other_features;
  const std::vector<double> base_coef = Coefficients(s.base_features, total, &rng);
  const std::vector<double> other_coef =
      Coefficients(s.other_features, total, &rng);
  const size_t shared =
      static_cast<size_t>(s.overlap * static_cast<double>(s.rows));

  // Entity e < shared exists on both sides; the rest of each side carries
  // keys the other side lacks. Both sides list their rows shuffled.
  std::vector<int64_t> base_keys = Iota(s.rows);
  std::vector<int64_t> other_keys(s.rows);
  for (size_t i = 0; i < s.rows; ++i) {
    other_keys[i] = i < shared ? static_cast<int64_t>(i)
                               : static_cast<int64_t>(s.rows + i);
  }
  rng.Shuffle(&base_keys);
  rng.Shuffle(&other_keys);

  // Features of the other side are indexed by entity so the label can use
  // them; entities without a partner contribute a fresh draw the base never
  // sees (they are dropped by the inner join anyway).
  auto other_x = Gaussian(s.rows, s.other_features, &rng);
  std::map<int64_t, size_t> other_row_of;
  for (size_t i = 0; i < s.rows; ++i) other_row_of[other_keys[i]] = i;
  auto base_x = Gaussian(s.rows, s.base_features, &rng);
  std::vector<double> y(s.rows);
  for (size_t i = 0; i < s.rows; ++i) {
    double label = Dot(base_x, base_coef, i);
    auto partner = other_row_of.find(base_keys[i]);
    if (partner != other_row_of.end()) {
      label += Dot(other_x, other_coef, partner->second);
    }
    y[i] = label + 0.1 * rng.NextGaussian();
  }

  rel::Table base(s.base_name);
  AMALUR_CHECK_OK(
      base.AddColumn(rel::Column::FromInt64s("entity_id", std::move(base_keys))));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("y", std::move(y))));
  AddFeatures(&base, "x", std::move(base_x));
  rel::Table other(s.other_name);
  AMALUR_CHECK_OK(other.AddColumn(
      rel::Column::FromInt64s("entity_id", std::move(other_keys))));
  AddFeatures(&other, "alpha", std::move(other_x));
  return {std::move(base), std::move(other)};
}

std::vector<rel::Table> GenerateUnionOfStars(const UnionOfStarsShape& s,
                                             uint64_t seed) {
  Rng rng(seed);
  const size_t total = s.fact_features + s.dim_features;
  const std::vector<double> fact_coef = Coefficients(s.fact_features, total, &rng);
  std::vector<rel::Table> out;
  const char* shard_letter[] = {"a", "b"};
  const char* dim_prefix[] = {"alpha", "omega"};
  for (size_t shard = 0; shard < 2; ++shard) {
    const std::string key = std::string("dim") + shard_letter[shard] + "_id";
    const std::vector<double> dim_coef = Coefficients(s.dim_features, total, &rng);
    auto dim_x = Gaussian(s.dim_rows, s.dim_features, &rng);
    auto fact_x = Gaussian(s.shard_rows, s.fact_features, &rng);
    const std::vector<int64_t> refs = References(s.shard_rows, s.dim_rows, &rng);
    std::vector<double> y(s.shard_rows);
    for (size_t i = 0; i < s.shard_rows; ++i) {
      y[i] = Dot(fact_x, fact_coef, i) +
             Dot(dim_x, dim_coef, static_cast<size_t>(refs[i])) +
             0.1 * rng.NextGaussian();
    }
    rel::Table fact(std::string("fact") + shard_letter[shard]);
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("y", std::move(y))));
    AddFeatures(&fact, "x", std::move(fact_x));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s(key, refs)));
    rel::Table dim(std::string("dim") + shard_letter[shard]);
    AMALUR_CHECK_OK(dim.AddColumn(rel::Column::FromInt64s(key, Iota(s.dim_rows))));
    AddFeatures(&dim, dim_prefix[shard], std::move(dim_x));
    out.push_back(std::move(fact));
    out.push_back(std::move(dim));
  }
  return out;
}

Result<ReferenceTarget> ReferenceJoin(const std::vector<const rel::Table*>& tables,
                                      const std::vector<RefEdge>& edges,
                                      const std::set<std::string>& keys,
                                      const std::string& label) {
  const rel::Table& root = *tables[0];
  const size_t root_rows = root.NumRows();
  // row_of[t][i]: row of table t joined to root row i (-1 = no partner).
  std::vector<std::vector<int64_t>> row_of(
      tables.size(), std::vector<int64_t>(root_rows, -1));
  for (size_t i = 0; i < root_rows; ++i) row_of[0][i] = static_cast<int64_t>(i);
  std::vector<uint8_t> keep(root_rows, 1);
  for (const RefEdge& edge : edges) {
    const rel::Table& parent = *tables[edge.parent];
    const rel::Table& child = *tables[edge.child];
    AMALUR_ASSIGN_OR_RETURN(const rel::Column* parent_key,
                            parent.ColumnByName(edge.key));
    AMALUR_ASSIGN_OR_RETURN(const rel::Column* child_key,
                            child.ColumnByName(edge.key));
    std::unordered_map<int64_t, size_t> child_row;
    const std::vector<int64_t>& child_values = child_key->int64_data();
    for (size_t r = 0; r < child_values.size(); ++r) {
      if (!child_row.emplace(child_values[r], r).second) {
        return Status::InvalidArgument("duplicate key in ", child.name());
      }
    }
    const std::vector<int64_t>& parent_values = parent_key->int64_data();
    for (size_t i = 0; i < root_rows; ++i) {
      const int64_t p = row_of[edge.parent][i];
      auto hit = p < 0 ? child_row.end()
                       : child_row.find(parent_values[static_cast<size_t>(p)]);
      if (hit == child_row.end()) {
        if (edge.inner) keep[i] = 0;
        continue;
      }
      row_of[edge.child][i] = static_cast<int64_t>(hit->second);
    }
  }

  ReferenceTarget out;
  // (table, column) of each feature, in table and column order.
  std::vector<std::pair<size_t, size_t>> sources;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t]->NumColumns(); ++c) {
      const rel::Column& column = tables[t]->column(c);
      if (column.type() == rel::DataType::kString ||
          keys.count(column.name()) > 0 || column.name() == label) {
        continue;
      }
      sources.emplace_back(t, c);
      out.feature_names.push_back(column.name());
    }
  }
  AMALUR_ASSIGN_OR_RETURN(const rel::Column* label_column,
                          root.ColumnByName(label));
  size_t rows = 0;
  for (uint8_t k : keep) rows += k;
  out.x = la::DenseMatrix(rows, sources.size());
  out.y = la::DenseMatrix(rows, 1);
  for (size_t i = 0, r = 0; i < root_rows; ++i) {
    if (!keep[i]) continue;
    for (size_t f = 0; f < sources.size(); ++f) {
      const int64_t row = row_of[sources[f].first][i];
      if (row < 0) continue;
      out.x.At(r, f) = tables[sources[f].first]
                           ->column(sources[f].second)
                           .GetDouble(static_cast<size_t>(row));
    }
    out.y.At(r, 0) = label_column->GetDouble(i);
    out.root_row.push_back(i);
    ++r;
  }
  return out;
}

ReferenceTarget StackTargets(const ReferenceTarget& first,
                             const ReferenceTarget& second) {
  ReferenceTarget out;
  out.feature_names = first.feature_names;
  std::vector<size_t> second_col(second.feature_names.size());
  for (size_t f = 0; f < second.feature_names.size(); ++f) {
    size_t col = out.feature_names.size();
    for (size_t g = 0; g < out.feature_names.size(); ++g) {
      if (out.feature_names[g] == second.feature_names[f]) col = g;
    }
    if (col == out.feature_names.size()) {
      out.feature_names.push_back(second.feature_names[f]);
    }
    second_col[f] = col;
  }
  const size_t rows = first.rows() + second.rows();
  out.x = la::DenseMatrix(rows, out.feature_names.size());
  out.y = la::DenseMatrix(rows, 1);
  for (size_t i = 0; i < first.rows(); ++i) {
    for (size_t f = 0; f < first.feature_names.size(); ++f) {
      out.x.At(i, f) = first.x.At(i, f);
    }
    out.y.At(i, 0) = first.y.At(i, 0);
    out.root_row.push_back(first.root_row[i]);
  }
  for (size_t i = 0; i < second.rows(); ++i) {
    const size_t r = first.rows() + i;
    for (size_t f = 0; f < second.feature_names.size(); ++f) {
      out.x.At(r, second_col[f]) = second.x.At(i, f);
    }
    out.y.At(r, 0) = second.y.At(i, 0);
    out.root_row.push_back(first.rows() + second.root_row[i]);
  }
  return out;
}

}  // namespace e2e
}  // namespace amalur
