#include "nn/autodiff.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.h"

namespace mecsc::nn {

void Node::accumulate(const Matrix& g) {
  if (!requires_grad && parents.empty()) return;
  if (grad.empty()) grad = Matrix(value.rows(), value.cols());
  MECSC_CHECK_MSG(g.rows() == value.rows() && g.cols() == value.cols(),
                  "gradient shape mismatch");
  grad.add_scaled(g, 1.0);
}

void Node::zero_grad() { grad = Matrix(); }

Var constant(Matrix value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

Var parameter(Matrix value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
}

namespace {

thread_local int no_grad_depth = 0;

/// A node participates in backprop if it is a parameter or any ancestor is.
bool needs_grad(const Var& v) {
  return v->requires_grad || !v->parents.empty();
}

Var make_op(Matrix value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn) {
  bool any = no_grad_depth == 0;
  if (any) {
    any = false;
    for (const auto& p : parents) any = any || needs_grad(p);
  }
  auto node = std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
  if (any) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return node;
}

void topo_sort(const Var& root, std::vector<Node*>& order) {
  // Iterative DFS; recursion would overflow on long unrolled sequences.
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack{{root.get(), 0}};
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child == 0 && visited.count(node)) {
      stack.pop_back();
      continue;
    }
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (!visited.count(child)) stack.emplace_back(child, 0);
      continue;
    }
    visited.insert(node);
    order.push_back(node);
    stack.pop_back();
  }
}

/// Thread-local scratch arena for backward closures (DESIGN.md
/// "Performance"). Gradients are staged in pool slots and copied into the
/// parents' accumulators before the closure returns, so slots are only
/// held transiently and training loops stop allocating a fresh Matrix per
/// op once the pool is warm. One pool per thread keeps parallel
/// replication workers race-free.
MatrixPool& scratch() {
  thread_local MatrixPool pool;
  return pool;
}

}  // namespace

NoGradGuard::NoGradGuard() { ++no_grad_depth; }
NoGradGuard::~NoGradGuard() { --no_grad_depth; }
bool NoGradGuard::active() { return no_grad_depth > 0; }

void backward(const Var& root) {
  MECSC_CHECK_MSG(root->value.rows() == 1 && root->value.cols() == 1,
                  "backward() requires a scalar (1x1) root");
  std::vector<Node*> order;
  topo_sort(root, order);
  root->accumulate(Matrix(1, 1, 1.0));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn && !n->grad.empty()) n->backward_fn(*n);
  }
}

Var op_matmul(const Var& a, const Var& b) {
  Matrix value = matmul(a->value, b->value);
  return make_op(std::move(value), {a, b}, [a, b](Node& n) {
    // dA = dC·Bᵀ, dB = Aᵀ·dC — transpose-free kernels into pooled scratch.
    Matrix& g = scratch().get(0);
    matmul_abT_into(g, n.grad, b->value);
    a->accumulate(g);
    matmul_aTb_into(g, a->value, n.grad);
    b->accumulate(g);
  });
}

Var op_add(const Var& a, const Var& b) {
  return make_op(add(a->value, b->value), {a, b}, [a, b](Node& n) {
    a->accumulate(n.grad);
    b->accumulate(n.grad);
  });
}

Var op_sub(const Var& a, const Var& b) {
  return make_op(sub(a->value, b->value), {a, b}, [a, b](Node& n) {
    a->accumulate(n.grad);
    Matrix& g = scratch().get(0);
    scale_into(g, n.grad, -1.0);
    b->accumulate(g);
  });
}

Var op_hadamard(const Var& a, const Var& b) {
  return make_op(hadamard(a->value, b->value), {a, b}, [a, b](Node& n) {
    Matrix& g = scratch().get(0);
    hadamard_into(g, n.grad, b->value);
    a->accumulate(g);
    hadamard_into(g, n.grad, a->value);
    b->accumulate(g);
  });
}

Var op_add_row(const Var& a, const Var& bias) {
  return make_op(add_row_broadcast(a->value, bias->value), {a, bias},
                 [a, bias](Node& n) {
                   a->accumulate(n.grad);
                   Matrix& g = scratch().get(0);
                   col_sums_into(g, n.grad);
                   bias->accumulate(g);
                 });
}

Var op_scale(const Var& a, double s) {
  return make_op(scale(a->value, s), {a}, [a, s](Node& n) {
    Matrix& g = scratch().get(0);
    scale_into(g, n.grad, s);
    a->accumulate(g);
  });
}

Var op_sigmoid(const Var& a) {
  Matrix y = map_sigmoid(a->value);
  Var node = make_op(y, {a}, nullptr);
  if (!node->parents.empty()) {
    Matrix yv = node->value;  // captured copy for the backward closure
    node->backward_fn = [a, yv](Node& n) {
      Matrix& d = scratch().get(0);
      sigmoid_grad_into(d, n.grad, yv);
      a->accumulate(d);
    };
  }
  return node;
}

Var op_tanh(const Var& a) {
  Matrix y = map_tanh(a->value);
  Var node = make_op(y, {a}, nullptr);
  if (!node->parents.empty()) {
    Matrix yv = node->value;
    node->backward_fn = [a, yv](Node& n) {
      Matrix& d = scratch().get(0);
      tanh_grad_into(d, n.grad, yv);
      a->accumulate(d);
    };
  }
  return node;
}

Var op_concat_cols(const Var& a, const Var& b) {
  std::size_t ac = a->value.cols();
  return make_op(concat_cols(a->value, b->value), {a, b}, [a, b, ac](Node& n) {
    Matrix& g = scratch().get(0);
    const std::size_t rows = n.grad.rows(), cols = n.grad.cols();
    g.resize(rows, ac);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < ac; ++j) g.at(r, j) = n.grad.at(r, j);
    }
    a->accumulate(g);
    g.resize(rows, cols - ac);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = ac; j < cols; ++j) g.at(r, j - ac) = n.grad.at(r, j);
    }
    b->accumulate(g);
  });
}

Var op_slice_cols(const Var& a, std::size_t begin, std::size_t end) {
  return make_op(slice_cols(a->value, begin, end), {a}, [a, begin, end](Node& n) {
    Matrix& d = scratch().get(0);
    d.resize(a->value.rows(), a->value.cols());
    d.fill(0.0);
    for (std::size_t r = 0; r < d.rows(); ++r) {
      for (std::size_t j = begin; j < end; ++j) {
        d.at(r, j) = n.grad.at(r, j - begin);
      }
    }
    a->accumulate(d);
  });
}

Var op_mean_all(const Var& a) {
  Matrix value(1, 1, a->value.mean());
  double inv_n = 1.0 / static_cast<double>(a->value.size());
  return make_op(std::move(value), {a}, [a, inv_n](Node& n) {
    Matrix& d = scratch().get(0);
    d.resize(a->value.rows(), a->value.cols());
    d.fill(n.grad[0] * inv_n);
    a->accumulate(d);
  });
}

Var loss_mse(const Var& pred, const Var& target) {
  MECSC_CHECK_MSG(pred->value.rows() == target->value.rows() &&
                      pred->value.cols() == target->value.cols(),
                  "MSE shape mismatch");
  Matrix diff = sub(pred->value, target->value);
  double n = static_cast<double>(diff.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < diff.size(); ++i) loss += diff[i] * diff[i];
  loss /= n;
  return make_op(Matrix(1, 1, loss), {pred, target}, [pred, target, n](Node& node) {
    Matrix& d = scratch().get(0);
    sub_into(d, pred->value, target->value);
    double s = 2.0 * node.grad[0] / n;
    for (std::size_t i = 0; i < d.size(); ++i) d[i] *= s;
    pred->accumulate(d);
    d.scale_in_place(-1.0);
    target->accumulate(d);
  });
}

Var loss_bce_with_logits(const Var& logits, const Var& targets) {
  MECSC_CHECK_MSG(logits->value.rows() == targets->value.rows() &&
                      logits->value.cols() == targets->value.cols(),
                  "BCE shape mismatch");
  const Matrix& x = logits->value;
  const Matrix& t = targets->value;
  double n = static_cast<double>(x.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    // softplus(x) - x*t, stable for both signs of x.
    double xv = x[i];
    double sp = xv > 0.0 ? xv + std::log1p(std::exp(-xv)) : std::log1p(std::exp(xv));
    loss += sp - xv * t[i];
  }
  loss /= n;
  return make_op(Matrix(1, 1, loss), {logits, targets}, [logits, targets, n](Node& node) {
    Matrix& d = scratch().get(0);
    map_sigmoid_into(d, logits->value);
    d.add_scaled(targets->value, -1.0);
    double s = node.grad[0] / n;
    for (std::size_t i = 0; i < d.size(); ++i) d[i] *= s;
    logits->accumulate(d);
  });
}

Var loss_softmax_cross_entropy(const Var& logits, const Var& targets) {
  MECSC_CHECK_MSG(logits->value.rows() == targets->value.rows() &&
                      logits->value.cols() == targets->value.cols(),
                  "cross-entropy shape mismatch");
  Matrix p = softmax_rows(logits->value);
  double rows = static_cast<double>(p.rows());
  double loss = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (targets->value[i] > 0.0) {
      loss -= targets->value[i] * std::log(std::max(p[i], 1e-12));
    }
  }
  loss /= rows;
  return make_op(Matrix(1, 1, loss), {logits, targets},
                 [logits, targets, p, rows](Node& node) {
                   Matrix& d = scratch().get(0);
                   d = p;
                   d.add_scaled(targets->value, -1.0);
                   double s = node.grad[0] / rows;
                   for (std::size_t i = 0; i < d.size(); ++i) d[i] *= s;
                   logits->accumulate(d);
                 });
}

}  // namespace mecsc::nn
