#pragma once

#include <string>
#include <vector>

#include "data.h"
#include "la/dense_matrix.h"

/// \file reference.h
/// The benchmark's reference computations over its own join, and the
/// checks that compare the program's outputs against them. All arithmetic
/// here is plain serial loops, independent of the library's kernels.

namespace amalur {
namespace e2e {

/// Plain batch gradient descent from w = 0:
///   w <- w - lr * (X^T (X w - y) / n + l2 * w)
/// Also records, per iteration, the mean |residual| (used to bound the
/// fixed-point error of encrypted training).
struct ReferenceModel {
  la::DenseMatrix weights;  // features x 1
  std::vector<double> mean_abs_residual;
};
ReferenceModel ReferenceGradientDescent(const ReferenceTarget& target,
                                        double learning_rate,
                                        size_t iterations, double l2);

/// Mean squared error of `weights` (reference feature order) over the
/// reference target.
double ReferenceMse(const ReferenceTarget& target,
                    const la::DenseMatrix& weights);

/// The least-squares optimum's MSE over the reference target, from the
/// normal equations (Gaussian elimination with partial pivoting).
double LeastSquaresMse(const ReferenceTarget& target);

/// Largest eigenvalue of X^T X / n (power iteration), for checking that a
/// learning rate keeps gradient descent contractive.
double LargestEigenvalue(const ReferenceTarget& target);

/// Re-orders a model's weights (given by feature name) into the reference
/// target's feature order. Fails when the names differ as sets.
Result<la::DenseMatrix> AlignWeights(const std::vector<std::string>& names,
                                     const la::DenseMatrix& weights,
                                     const ReferenceTarget& target);

/// Largest |a_i - b_i| / max(1, |b_i|).
double MaxRelativeError(const la::DenseMatrix& a, const la::DenseMatrix& b);

/// Bound on the weight error of Paillier vertical FLR against exact
/// gradient descent, from the protocol's fixed-point encoding: residual
/// shares and features are rounded to 2^-fractional_bits, so each
/// iteration's gradient is off by at most
///   mean|x_j| * eps_d + (mean|d| + eps_d) / (2 s) + 1 / (2 s^2),
/// eps_d = parties / (2 s), and a contractive step (lr <= 2 / lambda_max)
/// never amplifies an earlier error, so the final error is bounded by
/// lr * sqrt(features) times the sum over iterations (twice that, to cover
/// the protocol's own residuals drifting from the reference's).
double PaillierWeightBound(const ReferenceTarget& target,
                           const ReferenceModel& reference, double learning_rate,
                           size_t parties, int fractional_bits);

/// Wire volume of n-ary Paillier vertical FLR from its message schedule:
/// per iteration a ring of parties-1 ciphertext vectors (rows each), a
/// broadcast of parties-1 more, and per party one masked ciphertext gradient
/// to the coordinator and one plaintext gradient back. Every message carries
/// a 32-byte envelope; ciphertexts are 16 bytes, doubles 8.
struct WireVolume {
  size_t bytes = 0;
  size_t messages = 0;
};
WireVolume PaillierVflVolume(size_t rows, const std::vector<size_t>& party_columns,
                             size_t iterations);

/// Wire volume of FedAvg with secure aggregation: per round the server
/// broadcasts the model to m parties, every party sends a share to each of
/// the m-1 others, and every party sends its share sum to the server; each
/// payload is `features` 8-byte words.
WireVolume SecureFedAvgVolume(size_t parties, size_t features, size_t rounds);

}  // namespace e2e
}  // namespace amalur
