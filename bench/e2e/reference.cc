#include "reference.h"

#include <algorithm>
#include <cmath>

namespace amalur {
namespace e2e {

namespace {

/// r = X w - y.
std::vector<double> Residual(const ReferenceTarget& target,
                             const la::DenseMatrix& weights) {
  const size_t n = target.rows();
  const size_t p = target.feature_names.size();
  std::vector<double> r(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = target.x.RowPtr(i);
    double acc = 0.0;
    for (size_t j = 0; j < p; ++j) acc += row[j] * weights.At(j, 0);
    r[i] = acc - target.y.At(i, 0);
  }
  return r;
}

}  // namespace

ReferenceModel ReferenceGradientDescent(const ReferenceTarget& target,
                                        double learning_rate,
                                        size_t iterations, double l2) {
  const size_t n = target.rows();
  const size_t p = target.feature_names.size();
  ReferenceModel model;
  model.weights = la::DenseMatrix(p, 1);
  std::vector<double> gradient(p);
  for (size_t it = 0; it < iterations; ++it) {
    const std::vector<double> r = Residual(target, model.weights);
    double abs_sum = 0.0;
    std::fill(gradient.begin(), gradient.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = target.x.RowPtr(i);
      for (size_t j = 0; j < p; ++j) gradient[j] += row[j] * r[i];
      abs_sum += std::fabs(r[i]);
    }
    model.mean_abs_residual.push_back(abs_sum / static_cast<double>(n));
    for (size_t j = 0; j < p; ++j) {
      const double g = gradient[j] / static_cast<double>(n) +
                       l2 * model.weights.At(j, 0);
      model.weights.At(j, 0) -= learning_rate * g;
    }
  }
  return model;
}

double ReferenceMse(const ReferenceTarget& target,
                    const la::DenseMatrix& weights) {
  const std::vector<double> r = Residual(target, weights);
  double acc = 0.0;
  for (double v : r) acc += v * v;
  return acc / static_cast<double>(r.size());
}

double LeastSquaresMse(const ReferenceTarget& target) {
  const size_t n = target.rows();
  const size_t p = target.feature_names.size();
  // Augmented normal equations [X^T X | X^T y].
  std::vector<std::vector<double>> a(p, std::vector<double>(p + 1, 0.0));
  for (size_t i = 0; i < n; ++i) {
    const double* row = target.x.RowPtr(i);
    const double yi = target.y.At(i, 0);
    for (size_t j = 0; j < p; ++j) {
      for (size_t k = j; k < p; ++k) a[j][k] += row[j] * row[k];
      a[j][p] += row[j] * yi;
    }
  }
  for (size_t j = 0; j < p; ++j) {
    for (size_t k = 0; k < j; ++k) a[j][k] = a[k][j];
  }
  // A column that is zero on every row (a feature no row carries) has no
  // effect on the fit; pin its weight to 0 instead of dividing by it.
  for (size_t col = 0; col < p; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < p; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    if (std::fabs(a[col][col]) < 1e-12) {
      std::fill(a[col].begin(), a[col].end(), 0.0);
      a[col][col] = 1.0;
      continue;
    }
    for (size_t r = 0; r < p; ++r) {
      if (r == col || a[r][col] == 0.0) continue;
      const double factor = a[r][col] / a[col][col];
      for (size_t k = col; k <= p; ++k) a[r][k] -= factor * a[col][k];
    }
  }
  la::DenseMatrix w(p, 1);
  for (size_t j = 0; j < p; ++j) w.At(j, 0) = a[j][p] / a[j][j];
  return ReferenceMse(target, w);
}

double LargestEigenvalue(const ReferenceTarget& target) {
  const size_t n = target.rows();
  const size_t p = target.feature_names.size();
  std::vector<double> v(p, 1.0 / std::sqrt(static_cast<double>(p)));
  double lambda = 0.0;
  for (int it = 0; it < 100; ++it) {
    std::vector<double> next(p, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = target.x.RowPtr(i);
      double xv = 0.0;
      for (size_t j = 0; j < p; ++j) xv += row[j] * v[j];
      for (size_t j = 0; j < p; ++j) next[j] += row[j] * xv;
    }
    double norm = 0.0;
    for (double& x : next) {
      x /= static_cast<double>(n);
      norm += x * x;
    }
    norm = std::sqrt(norm);
    if (norm == 0.0) return 0.0;
    for (size_t j = 0; j < p; ++j) v[j] = next[j] / norm;
    lambda = norm;
  }
  return lambda;
}

Result<la::DenseMatrix> AlignWeights(const std::vector<std::string>& names,
                                     const la::DenseMatrix& weights,
                                     const ReferenceTarget& target) {
  if (names.size() != target.feature_names.size() ||
      weights.rows() != names.size() || weights.cols() != 1) {
    return Status::FailedPrecondition(
        "model has ", names.size(), " features (", weights.rows(),
        " weights); the reference target has ", target.feature_names.size());
  }
  la::DenseMatrix out(names.size(), 1);
  std::vector<uint8_t> seen(names.size(), 0);
  for (size_t f = 0; f < names.size(); ++f) {
    auto it = std::find(target.feature_names.begin(),
                        target.feature_names.end(), names[f]);
    if (it == target.feature_names.end()) {
      return Status::FailedPrecondition("model feature '", names[f],
                                        "' is not a reference feature");
    }
    const size_t j = static_cast<size_t>(it - target.feature_names.begin());
    if (seen[j]++) {
      return Status::FailedPrecondition("model feature '", names[f],
                                        "' appears twice");
    }
    out.At(j, 0) = weights.At(f, 0);
  }
  return out;
}

double MaxRelativeError(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    const double denom = std::max(1.0, std::fabs(b.At(i, 0)));
    worst = std::max(worst, std::fabs(a.At(i, 0) - b.At(i, 0)) / denom);
  }
  return worst;
}

double PaillierWeightBound(const ReferenceTarget& target,
                           const ReferenceModel& reference, double learning_rate,
                           size_t parties, int fractional_bits) {
  const double s = std::ldexp(1.0, fractional_bits);
  const double eps_d = static_cast<double>(parties) / (2.0 * s);
  const size_t n = target.rows();
  const size_t p = target.feature_names.size();
  double max_mean_abs_x = 0.0;
  for (size_t j = 0; j < p; ++j) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += std::fabs(target.x.At(i, j));
    max_mean_abs_x = std::max(max_mean_abs_x, acc / static_cast<double>(n));
  }
  double total = 0.0;
  for (double mean_abs_d : reference.mean_abs_residual) {
    total += max_mean_abs_x * eps_d + (mean_abs_d + eps_d) / (2.0 * s) +
             1.0 / (2.0 * s * s);
  }
  return 2.0 * learning_rate * std::sqrt(static_cast<double>(p)) * total;
}

WireVolume PaillierVflVolume(size_t rows, const std::vector<size_t>& party_columns,
                             size_t iterations) {
  constexpr size_t kEnvelope = 32;
  const size_t parties = party_columns.size();
  WireVolume per_iteration;
  // Ring hops and the broadcast of the encrypted residual.
  per_iteration.messages += 2 * (parties - 1);
  per_iteration.bytes += 2 * (parties - 1) * (kEnvelope + 16 * rows);
  for (size_t columns : party_columns) {
    per_iteration.messages += 2;
    per_iteration.bytes += (kEnvelope + 16 * columns) + (kEnvelope + 8 * columns);
  }
  return {per_iteration.bytes * iterations, per_iteration.messages * iterations};
}

WireVolume SecureFedAvgVolume(size_t parties, size_t features, size_t rounds) {
  constexpr size_t kEnvelope = 32;
  const size_t messages = parties + parties * (parties - 1) + parties;
  return {messages * (kEnvelope + 8 * features) * rounds, messages * rounds};
}

}  // namespace e2e
}  // namespace amalur
