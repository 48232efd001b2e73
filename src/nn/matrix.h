#ifndef MECSC_NN_MATRIX_H
#define MECSC_NN_MATRIX_H

#include <cstddef>
#include <deque>
#include <initializer_list>
#include <new>
#include <vector>

#include "common/rng.h"

namespace mecsc::nn {

/// Minimal 32-byte-aligning allocator for Matrix storage. The AVX2
/// kernels use aligned 256-bit loads on whole-buffer elementwise passes,
/// which requires every Matrix data pointer to sit on a 32-byte
/// boundary; unaligned vector loads on such pointers would be legal but
/// this also rules out the UB of casting under-aligned pointers to
/// vector types. C++17 aligned operator new does the heavy lifting.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{32};

  AlignedAllocator() = default;
  template <typename U>
  constexpr AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept { return false; }
};

/// 32-byte-aligned contiguous double buffer (Matrix storage type).
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

/// Dense row-major 2-D matrix of doubles — the only tensor shape the
/// Info-RNN-GAN needs (batch × features per time step; sequences are
/// vectors of matrices). Storage is 32-byte aligned (AlignedVector) so
/// the SIMD kernels can issue aligned vector loads.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);
  /// 1×n row vector from an initializer list.
  static Matrix row(std::initializer_list<double> values);
  static Matrix row(const std::vector<double>& values);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  const AlignedVector& data() const noexcept { return data_; }
  AlignedVector& data() noexcept { return data_; }

  /// Xavier/Glorot-uniform initialisation (for layer weights).
  static Matrix xavier(std::size_t rows, std::size_t cols, common::Rng& rng);
  /// I.i.d. normal entries.
  static Matrix randn(std::size_t rows, std::size_t cols, common::Rng& rng,
                      double stddev = 1.0);

  Matrix transposed() const;

  /// Reshapes to rows×cols without preserving contents. Never shrinks the
  /// underlying buffer, so repeatedly resizing a reused matrix to the
  /// same (or smaller) shape allocates nothing.
  void resize(std::size_t rows, std::size_t cols);

  // In-place helpers used by the optimizer.
  void fill(double v);
  void add_scaled(const Matrix& other, double scale);  // this += scale*other
  void scale_in_place(double s);                       // this *= s

  double sum() const;
  double mean() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector data_;
};

/// C = A·B. Dimensions must agree.
Matrix matmul(const Matrix& a, const Matrix& b);
/// Elementwise binary ops; dimensions must match.
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);
/// Adds a 1×cols row vector to every row of a.
Matrix add_row_broadcast(const Matrix& a, const Matrix& row);
Matrix scale(const Matrix& a, double s);
/// Concatenates along columns (same row count).
Matrix concat_cols(const Matrix& a, const Matrix& b);
/// Columns [begin, end) of a.
Matrix slice_cols(const Matrix& a, std::size_t begin, std::size_t end);
/// Elementwise map helpers.
Matrix map_sigmoid(const Matrix& a);
Matrix map_tanh(const Matrix& a);
/// Row-wise softmax.
Matrix softmax_rows(const Matrix& a);

// ---------------------------------------------------------------------------
// Output-parameter kernels (DESIGN.md "Performance"). Each writes its result
// into `out`, resizing it as needed; passing a reused `out` makes the
// steady state allocation-free. `out` must not alias an input.
//
// Every kernel below dispatches to an AVX2 implementation when
// common::simd::active() (see DESIGN.md "SIMD & batching" for the FP
// contract) and otherwise runs the scalar reference in nn::scalar.
// ---------------------------------------------------------------------------

/// out = A·B, with the inner loops blocked over k so panels of B stay in
/// cache while a row of the output accumulates.
void matmul_into(Matrix& out, const Matrix& a, const Matrix& b);
/// out = A·Bᵀ without materialising the transpose: each entry is a
/// stride-1 dot product of a row of A with a row of B.
void matmul_abT_into(Matrix& out, const Matrix& a, const Matrix& b);
/// out = Aᵀ·B without materialising the transpose: rank-1 updates
/// accumulated row-by-row, all stride-1.
void matmul_aTb_into(Matrix& out, const Matrix& a, const Matrix& b);
void add_into(Matrix& out, const Matrix& a, const Matrix& b);
void sub_into(Matrix& out, const Matrix& a, const Matrix& b);
void hadamard_into(Matrix& out, const Matrix& a, const Matrix& b);
void scale_into(Matrix& out, const Matrix& a, double s);
void map_sigmoid_into(Matrix& out, const Matrix& a);
void map_tanh_into(Matrix& out, const Matrix& a);
/// Column sums: out is 1×cols.
void col_sums_into(Matrix& out, const Matrix& a);

// Fused gradient kernels for the autodiff backward closures: one pass,
// no temporaries, SIMD-dispatched like the forward kernels.
/// out = g ⊙ y ⊙ (1 − y)  (sigmoid backward; y is the forward output).
void sigmoid_grad_into(Matrix& out, const Matrix& g, const Matrix& y);
/// out = g ⊙ (1 − y²)  (tanh backward; y is the forward output).
void tanh_grad_into(Matrix& out, const Matrix& g, const Matrix& y);
/// y += s·x  (axpy; the accumulation primitive behind Matrix::add_scaled
/// and every gradient accumulate).
void axpy(Matrix& y, const Matrix& x, double s);

// ---------------------------------------------------------------------------
// Scalar reference implementations. These are the pre-SIMD kernels,
// kept callable so (a) a scalar build or a non-AVX2 host runs them via
// the dispatchers and (b) tests/test_simd.cpp can compare the vector
// path against them on the same inputs.
// ---------------------------------------------------------------------------
namespace scalar {
void matmul_into(Matrix& out, const Matrix& a, const Matrix& b);
void matmul_abT_into(Matrix& out, const Matrix& a, const Matrix& b);
void matmul_aTb_into(Matrix& out, const Matrix& a, const Matrix& b);
void add_into(Matrix& out, const Matrix& a, const Matrix& b);
void sub_into(Matrix& out, const Matrix& a, const Matrix& b);
void hadamard_into(Matrix& out, const Matrix& a, const Matrix& b);
void scale_into(Matrix& out, const Matrix& a, double s);
void map_sigmoid_into(Matrix& out, const Matrix& a);
void map_tanh_into(Matrix& out, const Matrix& a);
void sigmoid_grad_into(Matrix& out, const Matrix& g, const Matrix& y);
void tanh_grad_into(Matrix& out, const Matrix& g, const Matrix& y);
void axpy(Matrix& y, const Matrix& x, double s);

/// True when this reference TU was itself compiled with AVX2 codegen
/// (e.g. a -mavx2/-march=native build): the compiler auto-vectorizes
/// the "scalar" loops, so simd-vs-scalar timing ratios no longer
/// measure against a pre-SIMD baseline. Equivalence (bit-exactness /
/// tolerance) is unaffected — both TUs pin -ffp-contract=off.
bool reference_is_vectorized();
}  // namespace scalar

/// Slot-indexed arena of reusable scratch matrices. Callers grab a slot,
/// resize it via the `_into` kernels, and reuse the same slot on the next
/// call — after warm-up no kernel in the loop allocates. One pool per
/// thread (see autodiff.cpp's backward closures); slots are stable
/// references, so a caller may hold several slots at once as long as the
/// indices differ.
class MatrixPool {
 public:
  Matrix& get(std::size_t slot) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    return slots_[slot];
  }

 private:
  // Deque so growing for a new slot never invalidates references to
  // slots already handed out.
  std::deque<Matrix> slots_;
};

}  // namespace mecsc::nn

#endif  // MECSC_NN_MATRIX_H
