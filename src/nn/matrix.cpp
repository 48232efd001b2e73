#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/simd.h"
#include "nn/simd_kernels.h"

namespace mecsc::nn {

namespace {

/// One cached flag read per kernel call; a scalar build or a non-AVX2
/// CPU routes every dispatcher below to the scalar reference.
inline bool use_simd() { return common::simd::active(); }

void check_same_shape(const Matrix& a, const Matrix& b) {
  MECSC_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "elementwise op shape mismatch");
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  MECSC_CHECK_MSG(data_.size() == rows * cols, "matrix data size mismatch");
}

Matrix Matrix::row(std::initializer_list<double> values) {
  return Matrix(1, values.size(), std::vector<double>(values));
}

Matrix Matrix::row(const std::vector<double>& values) {
  return Matrix(1, values.size(), values);
}

double& Matrix::at(std::size_t r, std::size_t c) {
  MECSC_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  MECSC_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, common::Rng& rng) {
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.uniform(-limit, limit);
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, common::Rng& rng,
                     double stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
  return t;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::add_scaled(const Matrix& other, double s) {
  MECSC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  axpy(*this, other, s);
}

void Matrix::scale_in_place(double s) {
  scale_into(*this, *this, s);
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::mean() const {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the pre-SIMD implementations, verbatim).
// ---------------------------------------------------------------------------
namespace scalar {

void matmul_into(Matrix& out, const Matrix& a, const Matrix& b) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  out.resize(m, n);
  out.fill(0.0);
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* cd = out.data().data();
  // i-k-j order blocked over k: a kKB-row panel of b stays in cache while
  // each output row accumulates against it.
  constexpr std::size_t kKB = 64;
  for (std::size_t k0 = 0; k0 < kk; k0 += kKB) {
    const std::size_t k1 = std::min(kk, k0 + kKB);
    for (std::size_t i = 0; i < m; ++i) {
      const double* ar = ad + i * kk;
      double* cr = cd + i * n;
      for (std::size_t k = k0; k < k1; ++k) {
        const double aik = ar[k];
        if (aik == 0.0) continue;  // one-hot / sparse inputs are common
        const double* br = bd + k * n;
        for (std::size_t j = 0; j < n; ++j) cr[j] += aik * br[j];
      }
    }
  }
}

void matmul_abT_into(Matrix& out, const Matrix& a, const Matrix& b) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.rows();
  out.resize(m, n);
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* cd = out.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* ar = ad + i * kk;
    double* cr = cd + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* br = bd + j * kk;
      double s = 0.0;
      for (std::size_t k = 0; k < kk; ++k) s += ar[k] * br[k];
      cr[j] = s;
    }
  }
}

void matmul_aTb_into(Matrix& out, const Matrix& a, const Matrix& b) {
  const std::size_t m = a.cols(), kk = a.rows(), n = b.cols();
  out.resize(m, n);
  out.fill(0.0);
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* cd = out.data().data();
  // Accumulate rank-1 updates row-by-row of a/b — every access stride-1.
  for (std::size_t k = 0; k < kk; ++k) {
    const double* ar = ad + k * m;
    const double* br = bd + k * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aki = ar[i];
      if (aki == 0.0) continue;
      double* cr = cd + i * n;
      for (std::size_t j = 0; j < n; ++j) cr[j] += aki * br[j];
    }
  }
}

void add_into(Matrix& out, const Matrix& a, const Matrix& b) {
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] + b[i];
}

void sub_into(Matrix& out, const Matrix& a, const Matrix& b) {
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] - b[i];
}

void hadamard_into(Matrix& out, const Matrix& a, const Matrix& b) {
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] * b[i];
}

void scale_into(Matrix& out, const Matrix& a, double s) {
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = s * a[i];
}

void map_sigmoid_into(Matrix& out, const Matrix& a) {
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = 1.0 / (1.0 + std::exp(-a[i]));
  }
}

void map_tanh_into(Matrix& out, const Matrix& a) {
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(a[i]);
}

void sigmoid_grad_into(Matrix& out, const Matrix& g, const Matrix& y) {
  out.resize(g.rows(), g.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = g[i] * (y[i] * (1.0 - y[i]));
  }
}

void tanh_grad_into(Matrix& out, const Matrix& g, const Matrix& y) {
  out.resize(g.rows(), g.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = g[i] * (1.0 - y[i] * y[i]);
  }
}

void axpy(Matrix& y, const Matrix& x, double s) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += s * x[i];
}

bool reference_is_vectorized() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatchers: shape checks here, then the AVX2 kernel when active,
// otherwise the scalar reference.
// ---------------------------------------------------------------------------

void matmul_into(Matrix& out, const Matrix& a, const Matrix& b) {
  MECSC_CHECK_MSG(a.cols() == b.rows(), "matmul dimension mismatch");
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), b.cols());
    out.fill(0.0);
    avx2::matmul(out.data().data(), a.data().data(), b.data().data(), a.rows(),
                 a.cols(), b.cols());
    return;
  }
#endif
  scalar::matmul_into(out, a, b);
}

void matmul_abT_into(Matrix& out, const Matrix& a, const Matrix& b) {
  MECSC_CHECK_MSG(a.cols() == b.cols(), "matmul_abT dimension mismatch");
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), b.rows());
    avx2::matmul_abT(out.data().data(), a.data().data(), b.data().data(),
                     a.rows(), a.cols(), b.rows());
    return;
  }
#endif
  scalar::matmul_abT_into(out, a, b);
}

void matmul_aTb_into(Matrix& out, const Matrix& a, const Matrix& b) {
  MECSC_CHECK_MSG(a.rows() == b.rows(), "matmul_aTb dimension mismatch");
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.cols(), b.cols());
    out.fill(0.0);
    avx2::matmul_aTb(out.data().data(), a.data().data(), b.data().data(),
                     a.cols(), a.rows(), b.cols());
    return;
  }
#endif
  scalar::matmul_aTb_into(out, a, b);
}

void add_into(Matrix& out, const Matrix& a, const Matrix& b) {
  check_same_shape(a, b);
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), a.cols());
    avx2::add(out.data().data(), a.data().data(), b.data().data(), out.size());
    return;
  }
#endif
  scalar::add_into(out, a, b);
}

void sub_into(Matrix& out, const Matrix& a, const Matrix& b) {
  check_same_shape(a, b);
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), a.cols());
    avx2::sub(out.data().data(), a.data().data(), b.data().data(), out.size());
    return;
  }
#endif
  scalar::sub_into(out, a, b);
}

void hadamard_into(Matrix& out, const Matrix& a, const Matrix& b) {
  check_same_shape(a, b);
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), a.cols());
    avx2::mul(out.data().data(), a.data().data(), b.data().data(), out.size());
    return;
  }
#endif
  scalar::hadamard_into(out, a, b);
}

void scale_into(Matrix& out, const Matrix& a, double s) {
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), a.cols());
    avx2::scale(out.data().data(), a.data().data(), s, out.size());
    return;
  }
#endif
  scalar::scale_into(out, a, s);
}

void map_sigmoid_into(Matrix& out, const Matrix& a) {
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), a.cols());
    avx2::sigmoid(out.data().data(), a.data().data(), out.size());
    return;
  }
#endif
  scalar::map_sigmoid_into(out, a);
}

void map_tanh_into(Matrix& out, const Matrix& a) {
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(a.rows(), a.cols());
    avx2::tanh(out.data().data(), a.data().data(), out.size());
    return;
  }
#endif
  scalar::map_tanh_into(out, a);
}

void sigmoid_grad_into(Matrix& out, const Matrix& g, const Matrix& y) {
  check_same_shape(g, y);
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(g.rows(), g.cols());
    avx2::sigmoid_grad(out.data().data(), g.data().data(), y.data().data(),
                       out.size());
    return;
  }
#endif
  scalar::sigmoid_grad_into(out, g, y);
}

void tanh_grad_into(Matrix& out, const Matrix& g, const Matrix& y) {
  check_same_shape(g, y);
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    out.resize(g.rows(), g.cols());
    avx2::tanh_grad(out.data().data(), g.data().data(), y.data().data(),
                    out.size());
    return;
  }
#endif
  scalar::tanh_grad_into(out, g, y);
}

void axpy(Matrix& y, const Matrix& x, double s) {
  check_same_shape(y, x);
#if defined(MECSC_SIMD_AVX2)
  if (use_simd()) {
    avx2::axpy(y.data().data(), x.data().data(), s, y.size());
    return;
  }
#endif
  scalar::axpy(y, x, s);
}

// ---------------------------------------------------------------------------
// Allocating wrappers and shape utilities (no hot loops of their own).
// ---------------------------------------------------------------------------

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c;
  add_into(c, a, b);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix c;
  sub_into(c, a, b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c;
  hadamard_into(c, a, b);
  return c;
}

Matrix add_row_broadcast(const Matrix& a, const Matrix& row) {
  MECSC_CHECK_MSG(row.rows() == 1 && row.cols() == a.cols(),
                  "broadcast row shape mismatch");
  Matrix c = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t j = 0; j < a.cols(); ++j) c[r * a.cols() + j] += row[j];
  }
  return c;
}

Matrix scale(const Matrix& a, double s) {
  Matrix c;
  scale_into(c, a, s);
  return c;
}

Matrix concat_cols(const Matrix& a, const Matrix& b) {
  MECSC_CHECK_MSG(a.rows() == b.rows(), "concat_cols row mismatch");
  Matrix c(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t j = 0; j < a.cols(); ++j) c.at(r, j) = a.at(r, j);
    for (std::size_t j = 0; j < b.cols(); ++j) c.at(r, a.cols() + j) = b.at(r, j);
  }
  return c;
}

Matrix slice_cols(const Matrix& a, std::size_t begin, std::size_t end) {
  MECSC_CHECK_MSG(begin < end && end <= a.cols(), "slice_cols range invalid");
  Matrix c(a.rows(), end - begin);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t j = begin; j < end; ++j) c.at(r, j - begin) = a.at(r, j);
  }
  return c;
}

Matrix map_sigmoid(const Matrix& a) {
  Matrix c;
  map_sigmoid_into(c, a);
  return c;
}

Matrix map_tanh(const Matrix& a) {
  Matrix c;
  map_tanh_into(c, a);
  return c;
}

Matrix softmax_rows(const Matrix& a) {
  Matrix c = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double mx = -1e300;
    for (std::size_t j = 0; j < a.cols(); ++j) mx = std::max(mx, c.at(r, j));
    double denom = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c.at(r, j) = std::exp(c.at(r, j) - mx);
      denom += c.at(r, j);
    }
    for (std::size_t j = 0; j < a.cols(); ++j) c.at(r, j) /= denom;
  }
  return c;
}

void col_sums_into(Matrix& out, const Matrix& a) {
  out.resize(1, a.cols());
  out.fill(0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += a.at(r, j);
  }
}

}  // namespace mecsc::nn
