#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "la/dense_matrix.h"
#include "ml/training_matrix.h"

/// \file trace.h
/// In-memory span recorder for the benchmark's traced mode. Spans are
/// recorded around calls into the layers' public functions from the
/// benchmark's own code (nothing inside the library is instrumented), kept
/// in memory, and written out once at the end as Chrome Trace Event JSON
/// (open with chrome://tracing or Perfetto).

namespace amalur {
namespace e2e {

/// One timed call. `parent` is the index of the enclosing open span (-1 at
/// top level); `pass` groups the spans of one benchmark pass.
struct Span {
  std::string name;
  int64_t parent = -1;
  int64_t pass = 0;
  double start_us = 0.0;
  double duration_us = 0.0;
};

/// Span recorder. Single-threaded: spans are opened and closed on the
/// benchmark's driving thread around (possibly internally parallel) calls.
class Tracer {
 public:
  Tracer() = default;

  /// Opens a span and returns its index.
  size_t Begin(const std::string& name);
  /// Closes the span `index` (must be the innermost open span).
  void End(size_t index);

  void set_pass(int64_t pass) { pass_ = pass; }
  int64_t pass() const { return pass_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome Trace Event JSON ("X" complete events).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  int64_t pass_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

/// A `TrainingMatrix` decorator that times every product the GD loop asks
/// for: `lmm_name` spans around `LeftMultiply`, `lmm_t_name` around
/// `TransposeLeftMultiply`. The wrapped matrix does the work unchanged, so
/// training through the decorator is bitwise-equal to training without it.
class TimedTrainingMatrix : public ml::TrainingMatrix {
 public:
  TimedTrainingMatrix(const ml::TrainingMatrix* inner, Tracer* tracer,
                      std::string lmm_name, std::string lmm_t_name)
      : inner_(inner),
        tracer_(tracer),
        lmm_name_(std::move(lmm_name)),
        lmm_t_name_(std::move(lmm_t_name)) {}

  size_t rows() const override { return inner_->rows(); }
  size_t cols() const override { return inner_->cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    ScopedSpan span(tracer_, lmm_name_.c_str());
    return inner_->LeftMultiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(
      const la::DenseMatrix& x) const override {
    ScopedSpan span(tracer_, lmm_t_name_.c_str());
    return inner_->TransposeLeftMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override {
    return inner_->RowSquaredNorms();
  }
  la::DenseMatrix ColSums() const override { return inner_->ColSums(); }

 private:
  const ml::TrainingMatrix* inner_;
  Tracer* tracer_;
  std::string lmm_name_;
  std::string lmm_t_name_;
};

/// Per-name aggregates over recorded spans.
struct SpanStats {
  size_t calls = 0;
  double total_us = 0.0;
  /// Time of the spans' direct children.
  double child_us = 0.0;
};

/// Aggregates spans by name, in name order.
std::vector<std::pair<std::string, SpanStats>> AggregateSpans(
    const std::vector<Span>& spans);

}  // namespace e2e
}  // namespace amalur
