#ifndef SSIN_TESTS_TEST_UTIL_H_
#define SSIN_TESTS_TEST_UTIL_H_

#include <functional>
#include <vector>

#include "tensor/graph.h"
#include "tensor/ops.h"

namespace ssin {
namespace testing_util {

/// Builds a scalar loss from graph leaves bound to the given inputs.
/// Must be a pure, deterministic function of the leaf values.
using GraphBuilder =
    std::function<Var(Graph*, const std::vector<Var>& leaves)>;

struct GradCheckResult {
  double max_abs_err = 0.0;
  double max_rel_err = 0.0;
};

/// Gathers the legal-pair rows of a dense [L*L, d] SRPE tensor (the naive
/// kernel's layout, row i*L+j = c_ij) into the [num_pairs, d] layout the
/// packed kernels index by legal pair.
inline Tensor PackRows(const Tensor& dense, const AttentionPlan& plan) {
  const int d = dense.dim(1);
  Tensor packed({static_cast<int>(plan.num_pairs()), d});
  for (int64_t t = 0; t < plan.num_pairs(); ++t) {
    for (int e = 0; e < d; ++e) {
      packed.At(t, e) = dense.At(plan.pair_rows[t], e);
    }
  }
  return packed;
}

/// Verifies reverse-mode gradients of `builder` against central finite
/// differences, for every element of every input tensor.
inline GradCheckResult CheckGradients(std::vector<Tensor> inputs,
                                      const GraphBuilder& builder,
                                      double eps = 1e-5) {
  // Analytic gradients.
  std::vector<Tensor> grads;
  grads.reserve(inputs.size());
  for (const Tensor& t : inputs) grads.emplace_back(t.shape());
  {
    Graph graph;
    std::vector<Var> leaves;
    for (size_t i = 0; i < inputs.size(); ++i) {
      leaves.push_back(graph.Leaf(inputs[i], &grads[i]));
    }
    Var loss = builder(&graph, leaves);
    graph.Backward(loss);
  }

  auto eval = [&](const std::vector<Tensor>& values) {
    Graph graph;
    std::vector<Var> leaves;
    for (const Tensor& v : values) leaves.push_back(graph.Constant(v));
    return builder(&graph, leaves).value()[0];
  };

  GradCheckResult result;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (int64_t e = 0; e < inputs[i].numel(); ++e) {
      const double saved = inputs[i][e];
      inputs[i][e] = saved + eps;
      const double up = eval(inputs);
      inputs[i][e] = saved - eps;
      const double down = eval(inputs);
      inputs[i][e] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = grads[i][e];
      const double abs_err = std::fabs(numeric - analytic);
      const double denom =
          std::max({std::fabs(numeric), std::fabs(analytic), 1e-8});
      result.max_abs_err = std::max(result.max_abs_err, abs_err);
      result.max_rel_err = std::max(result.max_rel_err, abs_err / denom);
    }
  }
  return result;
}

}  // namespace testing_util
}  // namespace ssin

#endif  // SSIN_TESTS_TEST_UTIL_H_
