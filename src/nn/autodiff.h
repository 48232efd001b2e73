#ifndef MECSC_NN_AUTODIFF_H
#define MECSC_NN_AUTODIFF_H

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace mecsc::nn {

/// A node of the reverse-mode autodiff tape: a value, its gradient
/// accumulator, and a closure that pushes the node's gradient to its
/// parents. Graphs are built afresh every forward pass (define-by-run),
/// which is exactly what a recurrent GAN needs — the unrolled sequence
/// length can differ per batch.
class Node {
 public:
  Node(Matrix value, bool requires_grad)
      : value(std::move(value)), requires_grad(requires_grad) {}

  Matrix value;
  Matrix grad;  // allocated on first use; same shape as value
  bool requires_grad;
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates this->grad into parents' grads.
  std::function<void(Node&)> backward_fn;

  /// Adds g into this node's gradient accumulator.
  void accumulate(const Matrix& g);
  void zero_grad();
};

using Var = std::shared_ptr<Node>;

/// RAII scope that disables graph construction on this thread: ops built
/// while a guard is alive keep their forward values but attach no
/// parents and no backward_fn, so inference allocates no tape and frees
/// intermediate values as soon as the last Var referencing them dies.
/// Nestable; calling backward() on a guarded-graph root is an error
/// (the root has no parents, so it degenerates to a no-op seed).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True while any guard is alive on this thread.
  static bool active();
};

/// Leaf with no gradient (inputs, targets).
Var constant(Matrix value);
/// Leaf with a gradient (trainable parameter).
Var parameter(Matrix value);

/// Runs backpropagation from a scalar (1×1) root: seeds its gradient
/// with 1 and applies every backward_fn in reverse topological order.
void backward(const Var& root);

// ---- differentiable ops (each returns a new node) ----
Var op_matmul(const Var& a, const Var& b);
Var op_add(const Var& a, const Var& b);
Var op_sub(const Var& a, const Var& b);
Var op_hadamard(const Var& a, const Var& b);
/// bias must be a 1×cols row; broadcast over a's rows.
Var op_add_row(const Var& a, const Var& bias);
Var op_scale(const Var& a, double s);
Var op_sigmoid(const Var& a);
Var op_tanh(const Var& a);
Var op_concat_cols(const Var& a, const Var& b);
Var op_slice_cols(const Var& a, std::size_t begin, std::size_t end);
/// Mean over all entries → 1×1.
Var op_mean_all(const Var& a);

// ---- losses (scalar 1×1 outputs) ----
/// Mean squared error between prediction and a constant-like target.
Var loss_mse(const Var& pred, const Var& target);
/// Binary cross-entropy on logits: mean over entries of
/// softplus(x) − x·t. Numerically stable; gradient is (σ(x) − t)/n.
Var loss_bce_with_logits(const Var& logits, const Var& targets);
/// Softmax cross-entropy on logits against a row-wise probability
/// target (one-hot or soft): mean over rows of −Σ t·log softmax(x).
/// This is the −log Q(c | x) term of the InfoGAN lower bound L1 (Eq. 25)
/// when targets are the one-hot latent codes.
Var loss_softmax_cross_entropy(const Var& logits, const Var& targets);

}  // namespace mecsc::nn

#endif  // MECSC_NN_AUTODIFF_H
