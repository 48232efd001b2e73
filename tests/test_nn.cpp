// Tests for the neural-network substrate: matrix ops, reverse-mode
// autodiff (finite-difference gradient checks on every op), layers and
// optimizers.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.h"
#include "nn/autodiff.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace mecsc::nn {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
  EXPECT_THROW(m.at(2, 0), std::exception);
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1.0}), std::exception);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
  EXPECT_THROW(matmul(a, a), std::exception);
}

TEST(Matrix, TransposeRoundTrip) {
  common::Rng rng(1);
  Matrix m = Matrix::randn(3, 5, rng);
  Matrix t = m.transposed().transposed();
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(m[i], t[i]);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {4, 5, 6});
  EXPECT_DOUBLE_EQ(add(a, b)[2], 9.0);
  EXPECT_DOUBLE_EQ(sub(b, a)[0], 3.0);
  EXPECT_DOUBLE_EQ(hadamard(a, b)[1], 10.0);
  EXPECT_DOUBLE_EQ(scale(a, 2.0)[2], 6.0);
}

TEST(Matrix, ConcatAndSlice) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 1, {9, 8});
  Matrix c = concat_cols(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c.at(0, 2), 9.0);
  Matrix s = slice_cols(c, 1, 3);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(1, 1), 8.0);
}

TEST(Matrix, SoftmaxRowsSumToOne) {
  Matrix m(2, 4, {1, 2, 3, 4, -1, 0, 1, 100});
  Matrix p = softmax_rows(m);
  for (std::size_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) s += p.at(r, j);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
  EXPECT_NEAR(p.at(1, 3), 1.0, 1e-9);  // large logit dominates, no overflow
}

TEST(Matrix, XavierWithinLimit) {
  common::Rng rng(2);
  Matrix m = Matrix::xavier(10, 20, rng);
  double limit = std::sqrt(6.0 / 30.0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m[i]), limit);
  }
}

// ---------------------------------------------------------------------
// Gradient checking machinery: compare autodiff gradients of a scalar
// loss against central finite differences for every parameter entry.
// ---------------------------------------------------------------------

void check_gradients(const std::vector<Var>& params,
                     const std::function<Var()>& build_loss,
                     double tol = 1e-5) {
  Var loss = build_loss();
  for (const auto& p : params) p->zero_grad();
  backward(loss);
  std::vector<Matrix> analytic;
  for (const auto& p : params) {
    analytic.push_back(p->grad.empty()
                           ? Matrix(p->value.rows(), p->value.cols())
                           : p->grad);
  }
  const double h = 1e-6;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto& p = params[pi];
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      double orig = p->value[i];
      p->value[i] = orig + h;
      double up = build_loss()->value[0];
      p->value[i] = orig - h;
      double down = build_loss()->value[0];
      p->value[i] = orig;
      double numeric = (up - down) / (2.0 * h);
      EXPECT_NEAR(analytic[pi][i], numeric, tol)
          << "param " << pi << " entry " << i;
    }
  }
}

TEST(Autodiff, MatmulGradients) {
  common::Rng rng(3);
  Var a = parameter(Matrix::randn(2, 3, rng));
  Var b = parameter(Matrix::randn(3, 2, rng));
  check_gradients({a, b}, [&] { return op_mean_all(op_matmul(a, b)); });
}

TEST(Autodiff, AddSubHadamardGradients) {
  common::Rng rng(4);
  Var a = parameter(Matrix::randn(2, 2, rng));
  Var b = parameter(Matrix::randn(2, 2, rng));
  check_gradients({a, b}, [&] {
    return op_mean_all(op_hadamard(op_add(a, b), op_sub(a, b)));
  });
}

TEST(Autodiff, AddRowGradients) {
  common::Rng rng(5);
  Var a = parameter(Matrix::randn(3, 4, rng));
  Var bias = parameter(Matrix::randn(1, 4, rng));
  check_gradients({a, bias}, [&] { return op_mean_all(op_add_row(a, bias)); });
}

TEST(Autodiff, ActivationGradients) {
  common::Rng rng(6);
  Var a = parameter(Matrix::randn(2, 3, rng));
  check_gradients({a}, [&] { return op_mean_all(op_sigmoid(a)); });
  check_gradients({a}, [&] { return op_mean_all(op_tanh(a)); });
  check_gradients({a}, [&] { return op_mean_all(op_scale(a, 2.5)); });
}

TEST(Autodiff, ConcatSliceGradients) {
  common::Rng rng(7);
  Var a = parameter(Matrix::randn(2, 3, rng));
  Var b = parameter(Matrix::randn(2, 2, rng));
  check_gradients({a, b}, [&] {
    Var c = op_concat_cols(a, b);
    return op_mean_all(op_slice_cols(c, 1, 4));
  });
}

TEST(Autodiff, MseGradients) {
  common::Rng rng(8);
  Var pred = parameter(Matrix::randn(3, 2, rng));
  Var target = constant(Matrix::randn(3, 2, rng));
  check_gradients({pred}, [&] { return loss_mse(pred, target); });
}

TEST(Autodiff, BceGradients) {
  common::Rng rng(9);
  Var logits = parameter(Matrix::randn(4, 2, rng));
  Matrix t(4, 2);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = (i % 2 == 0) ? 1.0 : 0.0;
  Var target = constant(t);
  check_gradients({logits}, [&] { return loss_bce_with_logits(logits, target); });
}

TEST(Autodiff, SoftmaxCrossEntropyGradients) {
  common::Rng rng(10);
  Var logits = parameter(Matrix::randn(3, 4, rng));
  Matrix t(3, 4);
  t.at(0, 1) = 1.0;
  t.at(1, 3) = 1.0;
  t.at(2, 0) = 1.0;
  Var target = constant(t);
  check_gradients({logits},
                  [&] { return loss_softmax_cross_entropy(logits, target); });
}

TEST(Autodiff, LinearLayerGradients) {
  common::Rng rng(11);
  Linear layer(3, 2, rng);
  Var x = constant(Matrix::randn(4, 3, rng));
  check_gradients(layer.parameters(),
                  [&] { return op_mean_all(op_tanh(layer.forward(x))); });
}

TEST(Autodiff, LstmCellGradients) {
  common::Rng rng(12);
  LSTMCell cell(2, 3, rng);
  Var x1 = constant(Matrix::randn(2, 2, rng));
  Var x2 = constant(Matrix::randn(2, 2, rng));
  check_gradients(cell.parameters(), [&] {
    auto s = cell.initial_state(2);
    s = cell.step(x1, s);
    s = cell.step(x2, s);
    return op_mean_all(s.h);
  }, 2e-5);
}

TEST(Autodiff, BiLstmGradients) {
  common::Rng rng(13);
  BiLSTM rnn(2, 2, rng);
  std::vector<Var> seq;
  for (int t = 0; t < 3; ++t) seq.push_back(constant(Matrix::randn(1, 2, rng)));
  check_gradients(rnn.parameters(), [&] {
    auto out = rnn.forward(seq);
    Var acc = op_mean_all(out[0]);
    for (std::size_t t = 1; t < out.size(); ++t) {
      acc = op_add(acc, op_mean_all(out[t]));
    }
    return op_scale(acc, 1.0 / 3.0);
  }, 2e-5);
}

TEST(Autodiff, ReusedNodeAccumulatesGradient) {
  // loss = mean(a ⊙ a): d/da = 2a/n — exercises gradient accumulation
  // when one node has two consumers.
  Var a = parameter(Matrix(1, 2, {3.0, -1.0}));
  Var loss = op_mean_all(op_hadamard(a, a));
  backward(loss);
  EXPECT_NEAR(a->grad[0], 3.0, 1e-9);   // 2*3/2
  EXPECT_NEAR(a->grad[1], -1.0, 1e-9);  // 2*(-1)/2
}

TEST(Autodiff, BackwardRequiresScalar) {
  Var a = parameter(Matrix(2, 2, 1.0));
  EXPECT_THROW(backward(a), std::exception);
}

TEST(Autodiff, ConstantsGetNoGradient) {
  Var a = constant(Matrix(1, 2, {1.0, 2.0}));
  Var b = parameter(Matrix(1, 2, {1.0, 2.0}));
  Var loss = op_mean_all(op_hadamard(a, b));
  backward(loss);
  EXPECT_TRUE(a->grad.empty());
  EXPECT_FALSE(b->grad.empty());
}

TEST(Autodiff, GruCellGradients) {
  common::Rng rng(20);
  GRUCell cell(2, 3, rng);
  Var x1 = constant(Matrix::randn(2, 2, rng));
  Var x2 = constant(Matrix::randn(2, 2, rng));
  check_gradients(cell.parameters(), [&] {
    Var h = cell.initial_state(2);
    h = cell.step(x1, h);
    h = cell.step(x2, h);
    return op_mean_all(h);
  }, 2e-5);
}

TEST(Autodiff, BiGruGradients) {
  common::Rng rng(21);
  BiGRU rnn(2, 2, rng);
  std::vector<Var> seq;
  for (int t = 0; t < 3; ++t) seq.push_back(constant(Matrix::randn(1, 2, rng)));
  check_gradients(rnn.parameters(), [&] {
    auto out = rnn.forward(seq);
    Var acc = op_mean_all(out[0]);
    for (std::size_t t = 1; t < out.size(); ++t) {
      acc = op_add(acc, op_mean_all(out[t]));
    }
    return op_scale(acc, 1.0 / 3.0);
  }, 2e-5);
}

TEST(Gru, OutputShapesAndRange) {
  common::Rng rng(22);
  GRU rnn(3, 5, rng);
  std::vector<Var> seq;
  for (int t = 0; t < 4; ++t) seq.push_back(constant(Matrix::randn(2, 3, rng)));
  auto out = rnn.forward(seq);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& h : out) {
    EXPECT_EQ(h->value.rows(), 2u);
    EXPECT_EQ(h->value.cols(), 5u);
    // GRU state is a convex mix of tanh outputs: stays in (-1, 1).
    for (std::size_t i = 0; i < h->value.size(); ++i) {
      EXPECT_GT(h->value[i], -1.0);
      EXPECT_LT(h->value[i], 1.0);
    }
  }
}

TEST(BiRnn, FactoryProducesBothKinds) {
  common::Rng rng(23);
  auto lstm = make_birnn(RnnKind::kLstm, 2, 4, rng);
  auto gru = make_birnn(RnnKind::kGru, 2, 4, rng);
  EXPECT_EQ(lstm->output_size(), 8u);
  EXPECT_EQ(gru->output_size(), 8u);
  // GRU has 3 gate blocks vs LSTM's 4: strictly fewer parameters.
  EXPECT_LT(gru->parameter_count(), lstm->parameter_count());
  std::vector<Var> seq{constant(Matrix::randn(1, 2, rng)),
                       constant(Matrix::randn(1, 2, rng))};
  EXPECT_EQ(lstm->forward(seq).size(), 2u);
  EXPECT_EQ(gru->forward(seq).size(), 2u);
}

TEST(Gru, LearnsToEchoSign) {
  common::Rng rng(24);
  GRU rnn(1, 6, rng);
  Linear head(6, 1, rng);
  std::vector<Var> params = rnn.parameters();
  for (const auto& p : head.parameters()) params.push_back(p);
  Adam opt(params, 0.02);
  common::Rng data_rng(25);
  double final_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    std::vector<Var> xs;
    Matrix targets(1, 8);
    for (int t = 0; t < 8; ++t) {
      double v = data_rng.uniform(-1.0, 1.0);
      xs.push_back(constant(Matrix(1, 1, v)));
      targets[t] = v > 0.0 ? 1.0 : 0.0;
    }
    auto hs = rnn.forward(xs);
    Var logits = head.forward(hs[0]);
    for (std::size_t t = 1; t < hs.size(); ++t) {
      logits = op_concat_cols(logits, head.forward(hs[t]));
    }
    Var loss = loss_bce_with_logits(logits, constant(targets));
    opt.zero_grad();
    backward(loss);
    opt.clip_grad_norm(5.0);
    opt.step();
    final_loss = loss->value[0];
  }
  EXPECT_LT(final_loss, 0.25);
}

TEST(Module, ParameterCounts) {
  common::Rng rng(14);
  Linear lin(3, 4, rng);
  EXPECT_EQ(lin.parameter_count(), 3u * 4u + 4u);
  LSTMCell cell(2, 5, rng);
  EXPECT_EQ(cell.parameter_count(), (2u + 5u) * 20u + 20u);
  BiLSTM bi(2, 5, rng);
  EXPECT_EQ(bi.parameter_count(), 2u * ((2u + 5u) * 20u + 20u));
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Var w = parameter(Matrix(1, 2, {-4.0, 10.0}));
  Adam opt({w}, 0.05);
  Var target = constant(Matrix(1, 2, {1.0, -2.0}));
  for (int i = 0; i < 2000; ++i) {
    opt.zero_grad();
    backward(loss_mse(w, target));
    opt.step();
  }
  EXPECT_NEAR(w->value[0], 1.0, 1e-3);
  EXPECT_NEAR(w->value[1], -2.0, 1e-3);
}

TEST(Optimizer, GradClipBoundsNorm) {
  Var w = parameter(Matrix(1, 2, {0.0, 0.0}));
  w->accumulate(Matrix(1, 2, {30.0, 40.0}));  // norm 50
  Adam opt({w}, 0.1);
  opt.clip_grad_norm(5.0);
  double norm = std::sqrt(w->grad[0] * w->grad[0] + w->grad[1] * w->grad[1]);
  EXPECT_NEAR(norm, 5.0, 1e-9);
  EXPECT_NEAR(w->grad[0] / w->grad[1], 0.75, 1e-9);  // direction preserved
}

TEST(Optimizer, RejectsNonParameterInputs) {
  Var c = constant(Matrix(1, 1, 0.0));
  EXPECT_THROW(Adam({c}, 0.1), std::exception);
}

TEST(Lstm, LearnsToEchoSign) {
  // Tiny sanity: an LSTM + linear head can learn y_t = 1 if x_t > 0.
  common::Rng rng(15);
  LSTM rnn(1, 6, rng);
  Linear head(6, 1, rng);
  std::vector<Var> params = rnn.parameters();
  for (const auto& p : head.parameters()) params.push_back(p);
  Adam opt(params, 0.02);

  common::Rng data_rng(16);
  double final_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    std::vector<Var> xs;
    Matrix targets(1, 8);
    std::vector<Matrix> inputs;
    for (int t = 0; t < 8; ++t) {
      double v = data_rng.uniform(-1.0, 1.0);
      inputs.push_back(Matrix(1, 1, v));
      targets[t] = v > 0.0 ? 1.0 : 0.0;
    }
    for (const auto& m : inputs) xs.push_back(constant(m));
    auto hs = rnn.forward(xs);
    // Stack per-step logits into one 1×8 row.
    Var logits = head.forward(hs[0]);
    for (std::size_t t = 1; t < hs.size(); ++t) {
      logits = op_concat_cols(logits, head.forward(hs[t]));
    }
    Var loss = loss_bce_with_logits(logits, constant(targets));
    opt.zero_grad();
    backward(loss);
    opt.clip_grad_norm(5.0);
    opt.step();
    final_loss = loss->value[0];
  }
  EXPECT_LT(final_loss, 0.25);  // well below log(2) ≈ 0.693 chance level
}

}  // namespace
}  // namespace mecsc::nn
