#include "tensor/ops.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/simd.h"

namespace ssin {

namespace {

Graph* CommonGraph(Var a, Var b) {
  SSIN_CHECK(a.valid() && b.valid());
  SSIN_CHECK(a.graph == b.graph) << "ops require a single graph";
  return a.graph;
}

// ------------------------------------------------------------------ matmul
//
// Three accumulate-kernels back MatMul: the forward product and the two
// backward products. Their bodies live in common/simd.h, shared with the
// serving row kernels and the differential tests, instantiated here with
// simd::VecOps so the inner loops run on the build's SIMD ISA. Each output
// element is produced by one call in a fixed order.

// out[m,n] += a[m,k] * b[k,n]
void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  simd::MatMulAccRows<double, simd::VecOps>(a.data(), b.data(), out->data(),
                                            a.dim(1), b.dim(1), 0, a.dim(0));
}

// out[m,k] += dC[m,n] * B^T  (i.e. dA for C = A*B)
void MatMulAccBt(const Tensor& dc, const Tensor& b, Tensor* out) {
  simd::MatMulAccBtRows<double, simd::VecOps>(
      dc.data(), b.data(), out->data(), dc.dim(1), b.dim(0), 0, dc.dim(0));
}

// out[k,n] += A^T[k,m] * dC[m,n]  (i.e. dB for C = A*B)
void MatMulAccAt(const Tensor& a, const Tensor& dc, Tensor* out) {
  simd::MatMulAccAtCols<double, simd::VecOps>(a.data(), dc.data(),
                                              out->data(), a.dim(0),
                                              a.dim(1), dc.dim(1), 0,
                                              a.dim(1));
}

// Shared forward half of LayerNorm: writes the normalized, scaled output
// and optionally the saved statistics the backward pass needs, via
// simd::LayerNormRows (vectorized per the build's ISA) — the row body the
// serving kernels replay (fused::LayerNormRow), so autograd and serving
// cannot drift numerically.
void LayerNormForward(const Tensor& x, const Tensor& gamma,
                      const Tensor& beta, double eps, Tensor* out,
                      Tensor* xhat, std::vector<double>* inv_std) {
  SSIN_CHECK_EQ(x.rank(), 2);
  const int m = x.dim(0), n = x.dim(1);
  SSIN_CHECK_EQ(gamma.dim(0), n);
  SSIN_CHECK_EQ(beta.dim(0), n);
  simd::LayerNormRows<double, simd::VecOps>(
      x.data(), gamma.data(), beta.data(), eps, m, n, out->data(),
      xhat != nullptr ? xhat->data() : nullptr,
      inv_std != nullptr ? inv_std->data() : nullptr);
}

}  // namespace

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  SSIN_CHECK_EQ(a.rank(), 2);
  SSIN_CHECK_EQ(b.rank(), 2);
  SSIN_CHECK_EQ(a.dim(1), b.dim(0));
  if (out->rank() != 2 || out->dim(0) != a.dim(0) ||
      out->dim(1) != b.dim(1)) {
    *out = Tensor({a.dim(0), b.dim(1)});
  } else {
    out->Fill(0.0);
  }
  MatMulAcc(a, b, out);
}

Var MatMul(Var a, Var b) {
  Graph* g = CommonGraph(a, b);
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  Tensor out;
  MatMulInto(av, bv, &out);
  const bool needs = g->requires_grad(a.id) || g->requires_grad(b.id);
  const int out_id = g->size();
  const int a_id = a.id, b_id = b.id;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    if (gr->requires_grad(a_id)) {
      MatMulAccBt(dout, gr->value(b_id), &gr->grad(a_id));
    }
    if (gr->requires_grad(b_id)) {
      MatMulAccAt(gr->value(a_id), dout, &gr->grad(b_id));
    }
  });
}

Var Add(Var a, Var b) {
  Graph* g = CommonGraph(a, b);
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  SSIN_CHECK(av.SameShape(bv));
  Tensor out = av;
  out.Accumulate(bv);
  const bool needs = g->requires_grad(a.id) || g->requires_grad(b.id);
  const int out_id = g->size();
  const int a_id = a.id, b_id = b.id;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    gr->AccumulateGrad(a_id, dout);
    gr->AccumulateGrad(b_id, dout);
  });
}

Var Sub(Var a, Var b) {
  Graph* g = CommonGraph(a, b);
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  SSIN_CHECK(av.SameShape(bv));
  Tensor out = av;
  for (int64_t i = 0; i < out.numel(); ++i) out[i] -= bv[i];
  const bool needs = g->requires_grad(a.id) || g->requires_grad(b.id);
  const int out_id = g->size();
  const int a_id = a.id, b_id = b.id;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    gr->AccumulateGrad(a_id, dout);
    if (gr->requires_grad(b_id)) {
      Tensor& db = gr->grad(b_id);
      for (int64_t i = 0; i < dout.numel(); ++i) db[i] -= dout[i];
    }
  });
}

Var AddRow(Var x, Var bias) {
  Graph* g = CommonGraph(x, bias);
  const Tensor& xv = x.value();
  const Tensor& bv = bias.value();
  SSIN_CHECK_EQ(xv.rank(), 2);
  SSIN_CHECK_EQ(bv.rank(), 1);
  SSIN_CHECK_EQ(xv.dim(1), bv.dim(0));
  const int m = xv.dim(0), n = xv.dim(1);
  Tensor out = xv;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.At(i, j) += bv[j];
  }
  const bool needs = g->requires_grad(x.id) || g->requires_grad(bias.id);
  const int out_id = g->size();
  const int x_id = x.id, b_id = bias.id;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    gr->AccumulateGrad(x_id, dout);
    if (gr->requires_grad(b_id)) {
      Tensor& db = gr->grad(b_id);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) db[j] += dout.At(i, j);
      }
    }
  });
}

Var Mul(Var a, Var b) {
  Graph* g = CommonGraph(a, b);
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  SSIN_CHECK(av.SameShape(bv));
  Tensor out = av;
  for (int64_t i = 0; i < out.numel(); ++i) out[i] *= bv[i];
  const bool needs = g->requires_grad(a.id) || g->requires_grad(b.id);
  const int out_id = g->size();
  const int a_id = a.id, b_id = b.id;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    if (gr->requires_grad(a_id)) {
      Tensor& da = gr->grad(a_id);
      const Tensor& bval = gr->value(b_id);
      for (int64_t i = 0; i < dout.numel(); ++i) da[i] += dout[i] * bval[i];
    }
    if (gr->requires_grad(b_id)) {
      Tensor& db = gr->grad(b_id);
      const Tensor& aval = gr->value(a_id);
      for (int64_t i = 0; i < dout.numel(); ++i) db[i] += dout[i] * aval[i];
    }
  });
}

Var Scale(Var a, double s) {
  Graph* g = a.graph;
  SSIN_CHECK(a.valid());
  Tensor out = a.value();
  for (int64_t i = 0; i < out.numel(); ++i) out[i] *= s;
  const int out_id = g->size();
  const int a_id = a.id;
  return g->AddNode(std::move(out), g->requires_grad(a.id), [=](Graph* gr) {
    if (!gr->requires_grad(a_id)) return;
    const Tensor& dout = gr->grad(out_id);
    Tensor& da = gr->grad(a_id);
    for (int64_t i = 0; i < dout.numel(); ++i) da[i] += dout[i] * s;
  });
}

Var Relu(Var a) {
  Graph* g = a.graph;
  SSIN_CHECK(a.valid());
  Tensor out = a.value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] < 0.0) out[i] = 0.0;
  }
  const int out_id = g->size();
  const int a_id = a.id;
  return g->AddNode(std::move(out), g->requires_grad(a.id), [=](Graph* gr) {
    if (!gr->requires_grad(a_id)) return;
    const Tensor& dout = gr->grad(out_id);
    const Tensor& outv = gr->value(out_id);
    Tensor& da = gr->grad(a_id);
    for (int64_t i = 0; i < dout.numel(); ++i) {
      if (outv[i] > 0.0) da[i] += dout[i];
    }
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  SSIN_CHECK(!parts.empty());
  Graph* g = parts[0].graph;
  const int m = parts[0].value().dim(0);
  int total_cols = 0;
  bool needs = false;
  for (const Var& p : parts) {
    SSIN_CHECK(p.graph == g);
    SSIN_CHECK_EQ(p.value().rank(), 2);
    SSIN_CHECK_EQ(p.value().dim(0), m);
    total_cols += p.value().dim(1);
    needs = needs || g->requires_grad(p.id);
  }
  Tensor out({m, total_cols});
  int col = 0;
  for (const Var& p : parts) {
    const Tensor& pv = p.value();
    const int n = pv.dim(1);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) out.At(i, col + j) = pv.At(i, j);
    }
    col += n;
  }
  const int out_id = g->size();
  std::vector<int> ids;
  std::vector<int> widths;
  for (const Var& p : parts) {
    ids.push_back(p.id);
    widths.push_back(p.value().dim(1));
  }
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    int start = 0;
    for (size_t t = 0; t < ids.size(); ++t) {
      const int n = widths[t];
      if (gr->requires_grad(ids[t])) {
        Tensor& dp = gr->grad(ids[t]);
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) dp.At(i, j) += dout.At(i, start + j);
        }
      }
      start += n;
    }
  });
}

Var LayerNorm(Var x, Var gamma, Var beta, double eps) {
  Graph* g = CommonGraph(x, gamma);
  SSIN_CHECK(beta.graph == g);
  const Tensor& xv = x.value();
  SSIN_CHECK_EQ(xv.rank(), 2);
  const int m = xv.dim(0), n = xv.dim(1);
  SSIN_CHECK_EQ(gamma.value().dim(0), n);
  SSIN_CHECK_EQ(beta.value().dim(0), n);

  // Saved statistics for backward: per-row inverse stddev and the
  // normalized activations.
  auto xhat = std::make_shared<Tensor>(std::vector<int>{m, n});
  auto inv_std = std::make_shared<std::vector<double>>(m);

  Tensor out({m, n});
  LayerNormForward(xv, gamma.value(), beta.value(), eps, &out, xhat.get(),
                   inv_std.get());

  const bool needs = g->requires_grad(x.id) || g->requires_grad(gamma.id) ||
                     g->requires_grad(beta.id);
  const int out_id = g->size();
  const int x_id = x.id, g_id = gamma.id, b_id = beta.id;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dout = gr->grad(out_id);
    const Tensor& gval = gr->value(g_id);
    if (gr->requires_grad(g_id)) {
      Tensor& dg = gr->grad(g_id);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) dg[j] += dout.At(i, j) * xhat->At(i, j);
      }
    }
    if (gr->requires_grad(b_id)) {
      Tensor& db = gr->grad(b_id);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) db[j] += dout.At(i, j);
      }
    }
    if (gr->requires_grad(x_id)) {
      Tensor& dx = gr->grad(x_id);
      for (int i = 0; i < m; ++i) {
        // dxhat = dout * gamma; dx = istd*(dxhat - mean(dxhat)
        //          - xhat * mean(dxhat*xhat))
        double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
        for (int j = 0; j < n; ++j) {
          const double dxh = dout.At(i, j) * gval[j];
          sum_dxhat += dxh;
          sum_dxhat_xhat += dxh * xhat->At(i, j);
        }
        const double mean_dxhat = sum_dxhat / n;
        const double mean_dxhat_xhat = sum_dxhat_xhat / n;
        const double istd = (*inv_std)[i];
        for (int j = 0; j < n; ++j) {
          const double dxh = dout.At(i, j) * gval[j];
          dx.At(i, j) +=
              istd * (dxh - mean_dxhat - xhat->At(i, j) * mean_dxhat_xhat);
        }
      }
    }
  });
}

Var GatherRows(Var x, std::vector<int> rows) {
  Graph* g = x.graph;
  SSIN_CHECK(x.valid());
  const Tensor& xv = x.value();
  SSIN_CHECK_EQ(xv.rank(), 2);
  const int n = xv.dim(1);
  Tensor out({static_cast<int>(rows.size()), n});
  for (size_t r = 0; r < rows.size(); ++r) {
    SSIN_CHECK(rows[r] >= 0 && rows[r] < xv.dim(0));
    for (int j = 0; j < n; ++j) {
      out.At(static_cast<int>(r), j) = xv.At(rows[r], j);
    }
  }
  const int out_id = g->size();
  const int x_id = x.id;
  auto rows_ptr = std::make_shared<std::vector<int>>(std::move(rows));
  return g->AddNode(std::move(out), g->requires_grad(x.id), [=](Graph* gr) {
    if (!gr->requires_grad(x_id)) return;
    const Tensor& dout = gr->grad(out_id);
    Tensor& dx = gr->grad(x_id);
    for (size_t r = 0; r < rows_ptr->size(); ++r) {
      for (int j = 0; j < n; ++j) {
        dx.At((*rows_ptr)[r], j) += dout.At(static_cast<int>(r), j);
      }
    }
  });
}

Var Sum(Var x) {
  Graph* g = x.graph;
  SSIN_CHECK(x.valid());
  double total = 0.0;
  for (int64_t i = 0; i < x.value().numel(); ++i) total += x.value()[i];
  const int out_id = g->size();
  const int x_id = x.id;
  return g->AddNode(Tensor::Scalar(total), g->requires_grad(x.id),
                    [=](Graph* gr) {
                      if (!gr->requires_grad(x_id)) return;
                      const double d = gr->grad(out_id)[0];
                      Tensor& dx = gr->grad(x_id);
                      for (int64_t i = 0; i < dx.numel(); ++i) dx[i] += d;
                    });
}

Var Mean(Var x) {
  const int64_t n = x.value().numel();
  SSIN_CHECK_GT(n, 0);
  return Scale(Sum(x), 1.0 / static_cast<double>(n));
}

Var MseLoss(Var pred, const Tensor& target) {
  Graph* g = pred.graph;
  SSIN_CHECK(pred.valid());
  const Tensor& pv = pred.value();
  SSIN_CHECK_EQ(pv.numel(), target.numel());
  const int64_t n = pv.numel();
  SSIN_CHECK_GT(n, 0);
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = pv[i] - target[i];
    loss += d * d;
  }
  loss /= static_cast<double>(n);
  const int out_id = g->size();
  const int p_id = pred.id;
  auto target_ptr = std::make_shared<Tensor>(target);
  return g->AddNode(Tensor::Scalar(loss), g->requires_grad(pred.id),
                    [=](Graph* gr) {
                      if (!gr->requires_grad(p_id)) return;
                      const double d = gr->grad(out_id)[0];
                      const Tensor& pval = gr->value(p_id);
                      Tensor& dp = gr->grad(p_id);
                      const double scale = 2.0 * d / static_cast<double>(n);
                      for (int64_t i = 0; i < n; ++i) {
                        dp[i] += scale * (pval[i] - (*target_ptr)[i]);
                      }
                    });
}

Var Dropout(Var x, double rate, Rng* rng, bool training) {
  if (!training || rate <= 0.0) return x;
  SSIN_CHECK_LT(rate, 1.0);
  Graph* g = x.graph;
  const Tensor& xv = x.value();
  const double keep = 1.0 - rate;
  auto mask = std::make_shared<Tensor>(xv.shape());
  Tensor out = xv;
  for (int64_t i = 0; i < out.numel(); ++i) {
    const double m = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
    (*mask)[i] = m;
    out[i] *= m;
  }
  const int out_id = g->size();
  const int x_id = x.id;
  return g->AddNode(std::move(out), g->requires_grad(x.id), [=](Graph* gr) {
    if (!gr->requires_grad(x_id)) return;
    const Tensor& dout = gr->grad(out_id);
    Tensor& dx = gr->grad(x_id);
    for (int64_t i = 0; i < dout.numel(); ++i) dx[i] += dout[i] * (*mask)[i];
  });
}

Var SpaAttention(Var q, Var k, Var v, Var c,
                 std::shared_ptr<const AttentionPlan> plan,
                 const AttentionConfig& cfg) {
  Graph* g = CommonGraph(q, k);
  SSIN_CHECK(v.graph == g);
  SSIN_CHECK(plan != nullptr);
  SSIN_CHECK_EQ(plan->length, q.value().dim(0));
  if (cfg.use_srpe) {
    SSIN_CHECK(c.valid() && c.graph == g);
  }

  const Tensor* c_tensor = cfg.use_srpe ? &c.value() : nullptr;
  auto ctx = std::make_shared<AttentionContext>();
  Tensor out = PackedAttentionForward(q.value(), k.value(), v.value(),
                                      c_tensor, *plan, cfg, ctx.get());

  bool needs = g->requires_grad(q.id) || g->requires_grad(k.id) ||
               g->requires_grad(v.id);
  if (cfg.use_srpe) needs = needs || g->requires_grad(c.id);
  const int out_id = g->size();
  const int q_id = q.id, k_id = k.id, v_id = v.id;
  const int c_id = cfg.use_srpe ? c.id : -1;
  return g->AddNode(std::move(out), needs, [=](Graph* gr) {
    const Tensor& dz = gr->grad(out_id);
    const Tensor* cv = c_id >= 0 ? &gr->value(c_id) : nullptr;
    Tensor* dc = (c_id >= 0 && gr->requires_grad(c_id)) ? &gr->grad(c_id)
                                                        : nullptr;
    // The kernel accumulates into all four buffers at once; unused ones
    // are scratch of the right shape.
    Tensor scratch_q, scratch_k, scratch_v;
    Tensor* dq = &gr->grad(q_id);
    Tensor* dk = &gr->grad(k_id);
    Tensor* dv = &gr->grad(v_id);
    if (!gr->requires_grad(q_id)) {
      scratch_q = Tensor(gr->value(q_id).shape());
      dq = &scratch_q;
    }
    if (!gr->requires_grad(k_id)) {
      scratch_k = Tensor(gr->value(k_id).shape());
      dk = &scratch_k;
    }
    if (!gr->requires_grad(v_id)) {
      scratch_v = Tensor(gr->value(v_id).shape());
      dv = &scratch_v;
    }
    PackedAttentionBackward(gr->value(q_id), gr->value(k_id),
                            gr->value(v_id), cv, *plan, cfg, *ctx, dz, dq,
                            dk, dv, dc);
  });
}

}  // namespace ssin
