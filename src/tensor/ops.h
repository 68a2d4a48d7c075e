#ifndef SSIN_TENSOR_OPS_H_
#define SSIN_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "tensor/attention_kernels.h"
#include "tensor/graph.h"

/// \file
/// Differentiable op library on the autograd Graph. All ops append a node to
/// the graph owned by their inputs and return a handle to it. Inputs to a
/// single op must share one graph.

namespace ssin {

/// Matrix product: a [m,k] x b [k,n] -> [m,n]. The forward and both
/// backward products run the blocked simd::VecOps kernels of
/// common/simd.h inline on the calling thread.
Var MatMul(Var a, Var b);

/// The forward half of MatMul without a graph: out is resized to
/// [a.dim(0), b.dim(1)] and overwritten with a*b.
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out);

/// Elementwise sum of two same-shape tensors.
Var Add(Var a, Var b);

/// Broadcast row addition: x [m,n] + bias [n] -> [m,n].
Var AddRow(Var x, Var bias);

/// Elementwise product of two same-shape tensors.
Var Mul(Var a, Var b);

/// Elementwise difference (a - b).
Var Sub(Var a, Var b);

/// Multiplication by a compile-time-known scalar.
Var Scale(Var a, double s);

/// Elementwise max(x, 0).
Var Relu(Var a);

/// Column-wise concatenation of same-row-count matrices.
Var ConcatCols(const std::vector<Var>& parts);

/// Layer normalization over the last dimension of x [m,n] with learnable
/// gain gamma [n] and bias beta [n].
Var LayerNorm(Var x, Var gamma, Var beta, double eps = 1e-5);

/// Row gather: selects rows of x [m,n] -> [|rows|, n].
Var GatherRows(Var x, std::vector<int> rows);

/// Sum of all elements -> scalar.
Var Sum(Var x);

/// Mean of all elements -> scalar.
Var Mean(Var x);

/// Mean squared error between prediction and a constant target of the same
/// element count -> scalar.
Var MseLoss(Var pred, const Tensor& target);

/// Inverted-dropout regularizer. Identity when !training or rate == 0.
Var Dropout(Var x, double rate, Rng* rng, bool training);

/// SpaFormer attention (one head): shielded self-attention with optional
/// SRPE (paper Eq. 4-6), using the packed O(mL d) kernel. q,k,v: [L,d];
/// c: the SRPE matrix, [num_pairs,d] with row t the c of legal pair t
/// (pass an invalid Var when cfg.use_srpe is false). `plan` is the
/// sequence's legal-pair plan, built once per sequence (by the caller of
/// SpaFormer::ForwardWithPlan) and shared by all layer/head invocations;
/// the op keeps it alive via the shared_ptr captured in its backward
/// closure.
Var SpaAttention(Var q, Var k, Var v, Var c,
                 std::shared_ptr<const AttentionPlan> plan,
                 const AttentionConfig& cfg);

}  // namespace ssin

#endif  // SSIN_TENSOR_OPS_H_
