#include "tensor/attention_kernels.h"

#include <atomic>
#include <cmath>
#include <limits>

namespace ssin {

namespace {

std::atomic<int64_t> g_plan_builds{0};

}  // namespace

int64_t AttentionPlanBuildCount() {
  return g_plan_builds.load(std::memory_order_relaxed);
}

void BuildAttentionPlan(const std::vector<uint8_t>& observed, bool shielded,
                        AttentionPlan* plan) {
  g_plan_builds.fetch_add(1, std::memory_order_relaxed);
  const int length = static_cast<int>(observed.size());
  plan->length = length;
  plan->shielded = shielded;
  plan->key_index.clear();
  plan->pair_rows.clear();
  plan->offset.assign(length + 1, 0);

  std::vector<int> observed_ids;
  observed_ids.reserve(length);
  for (int i = 0; i < length; ++i) {
    if (observed[i]) observed_ids.push_back(i);
  }
  plan->num_observed = static_cast<int>(observed_ids.size());

  if (!shielded) {
    const size_t pairs = static_cast<size_t>(length) * length;
    plan->key_index.reserve(pairs);
    plan->pair_rows.reserve(pairs);
    for (int i = 0; i < length; ++i) {
      const int64_t row_base = static_cast<int64_t>(i) * length;
      for (int j = 0; j < length; ++j) {
        plan->key_index.push_back(j);
        plan->pair_rows.push_back(row_base + j);
      }
      plan->offset[i + 1] = plan->key_index.size();
    }
  } else {
    // At most m+1 keys per query (m observed plus self for unobserved).
    const size_t pairs =
        static_cast<size_t>(plan->num_observed + 1) * length;
    plan->key_index.reserve(pairs);
    plan->pair_rows.reserve(pairs);
    for (int i = 0; i < length; ++i) {
      const int64_t row_base = static_cast<int64_t>(i) * length;
      // Observed nodes attend to all observed nodes (self included).
      // Unobserved nodes attend to themselves plus all observed nodes.
      if (!observed[i]) {
        plan->key_index.push_back(i);
        plan->pair_rows.push_back(row_base + i);
      }
      for (int j : observed_ids) {
        plan->key_index.push_back(j);
        plan->pair_rows.push_back(row_base + j);
      }
      plan->offset[i + 1] = plan->key_index.size();
    }
  }
}

void BuildAttentionPlanLimited(
    const std::vector<uint8_t>& observed,
    const std::vector<std::vector<int>>& neighbor_keys, AttentionPlan* plan) {
  g_plan_builds.fetch_add(1, std::memory_order_relaxed);
  const int length = static_cast<int>(observed.size());
  SSIN_CHECK_EQ(static_cast<int>(neighbor_keys.size()), length);
  plan->length = length;
  plan->shielded = true;
  plan->key_index.clear();
  plan->pair_rows.clear();
  plan->offset.assign(length + 1, 0);

  plan->num_observed = 0;
  for (int i = 0; i < length; ++i) {
    if (observed[i]) ++plan->num_observed;
  }

  size_t pairs = 0;
  for (const std::vector<int>& keys : neighbor_keys) pairs += keys.size() + 1;
  plan->key_index.reserve(pairs);
  plan->pair_rows.reserve(pairs);

  for (int i = 0; i < length; ++i) {
    const int64_t row_base = static_cast<int64_t>(i) * length;
    auto push = [&](int j) {
      plan->key_index.push_back(j);
      plan->pair_rows.push_back(row_base + j);
    };
    // Full shielding's key order, restricted to the neighbor set: an
    // unobserved query lists itself first, then its observed keys
    // ascending; an observed query lists its observed keys ascending with
    // itself merged into sorted position. Every query keeps at least one
    // legal key (itself), so the softmax is always well-defined.
    if (!observed[i]) push(i);
    bool self_pushed = observed[i] == 0;
    int prev = -1;
    for (int j : neighbor_keys[i]) {
      SSIN_CHECK_GT(j, prev) << "neighbor keys of query " << i
                             << " must be strictly ascending";
      SSIN_CHECK_LT(j, length);
      SSIN_CHECK(observed[j]) << "neighbor key " << j << " is not observed";
      SSIN_CHECK_NE(j, i) << "neighbor keys must exclude the query itself";
      if (observed[i] && !self_pushed && i < j) {
        push(i);
        self_pushed = true;
      }
      push(j);
      prev = j;
    }
    if (observed[i] && !self_pushed) push(i);
    plan->offset[i + 1] = plan->key_index.size();
  }
}

void BuildAttentionPlanFromKeys(const std::vector<uint8_t>& observed,
                                bool shielded,
                                const std::vector<std::vector<int>>& keys,
                                AttentionPlan* plan) {
  g_plan_builds.fetch_add(1, std::memory_order_relaxed);
  const int length = static_cast<int>(observed.size());
  SSIN_CHECK_EQ(static_cast<int>(keys.size()), length);
  plan->length = length;
  plan->shielded = shielded;
  plan->num_observed = 0;
  for (uint8_t flag : observed) plan->num_observed += flag != 0;
  plan->key_index.clear();
  plan->pair_rows.clear();
  plan->offset.assign(length + 1, 0);
  for (int i = 0; i < length; ++i) {
    const int64_t row_base = static_cast<int64_t>(i) * length;
    for (int j : keys[i]) {
      SSIN_CHECK(j >= 0 && j < length) << "key " << j << " of row " << i;
      plan->key_index.push_back(j);
      plan->pair_rows.push_back(row_base + j);
    }
    plan->offset[i + 1] = plan->key_index.size();
  }
}

namespace {

// Shape/config validation shared by the forward wrappers.
void CheckForwardShapes(const Tensor& k, const Tensor* c,
                        const AttentionPlan& plan,
                        const AttentionConfig& cfg) {
  const int length = k.dim(0);
  const int d = k.dim(1);
  SSIN_CHECK_EQ(plan.length, length);
  if (cfg.use_srpe) {
    SSIN_CHECK(c != nullptr);
    SSIN_CHECK_EQ(c->dim(0), plan.num_pairs());
    SSIN_CHECK_EQ(c->dim(1), d);
  }
}

}  // namespace

Tensor PackedAttentionForward(const Tensor& q, const Tensor& k,
                              const Tensor& v, const Tensor* c,
                              const AttentionPlan& plan,
                              const AttentionConfig& cfg,
                              AttentionContext* ctx) {
  Tensor z;
  PackedAttentionForwardInto(q, k, v, c, plan, cfg, ctx, &z);
  return z;
}

void PackedAttentionForwardInto(const Tensor& q, const Tensor& k,
                                const Tensor& v, const Tensor* c,
                                const AttentionPlan& plan,
                                const AttentionConfig& cfg,
                                AttentionContext* ctx, Tensor* z_out) {
  SSIN_CHECK_EQ(q.rank(), 2);
  SSIN_CHECK(q.SameShape(k) && q.SameShape(v));
  const int length = q.dim(0);
  const int d = q.dim(1);
  CheckForwardShapes(k, c, plan, cfg);

  ctx->alpha.assign(static_cast<size_t>(plan.num_pairs()), 0.0);

  if (z_out->rank() != 2 || z_out->dim(0) != length || z_out->dim(1) != d) {
    *z_out = Tensor({length, d});
  }
  PackedAttentionForwardRows<double, simd::VecOps>(
      q.data(), k.data(), v.data(), cfg.use_srpe ? c->data() : nullptr, plan,
      d, /*tail_begin=*/0, &ctx->scores, ctx->alpha.data(), z_out->data());
}

void PackedAttentionBackward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor* c,
                             const AttentionPlan& plan,
                             const AttentionConfig& cfg,
                             const AttentionContext& ctx, const Tensor& dz,
                             Tensor* dq, Tensor* dk, Tensor* dv, Tensor* dc) {
  const int length = q.dim(0);
  const int d = q.dim(1);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));

  std::vector<double> dalpha;
  for (int i = 0; i < length; ++i) {
    const int64_t begin = plan.offset[i];
    const int64_t end = plan.offset[i + 1];
    const int64_t count = end - begin;
    dalpha.resize(static_cast<size_t>(count));

    const double* dz_row = dz.data() + static_cast<int64_t>(i) * d;

    // dalpha_t = dz_i · v_j ; dv_j += alpha_t dz_i.
    double alpha_dot = 0.0;  // sum_t alpha_t * dalpha_t (softmax backward)
    for (int64_t t = 0; t < count; ++t) {
      const int j = plan.key_index[begin + t];
      const double alpha = ctx.alpha[begin + t];
      const double* v_row = v.data() + static_cast<int64_t>(j) * d;
      double* dv_row = dv->data() + static_cast<int64_t>(j) * d;
      double dot = 0.0;
      for (int e = 0; e < d; ++e) {
        dot += dz_row[e] * v_row[e];
        dv_row[e] += alpha * dz_row[e];
      }
      dalpha[t] = dot;
      alpha_dot += alpha * dot;
    }

    // de_t = alpha_t (dalpha_t - sum_s alpha_s dalpha_s), then distribute
    // through the (q ⊙ k ⊙ c) score.
    const double* q_row = q.data() + static_cast<int64_t>(i) * d;
    double* dq_row = dq->data() + static_cast<int64_t>(i) * d;
    for (int64_t t = 0; t < count; ++t) {
      const int j = plan.key_index[begin + t];
      const double de = ctx.alpha[begin + t] * (dalpha[t] - alpha_dot) *
                        inv_sqrt_d;
      if (de == 0.0) continue;
      const double* k_row = k.data() + static_cast<int64_t>(j) * d;
      double* dk_row = dk->data() + static_cast<int64_t>(j) * d;
      if (cfg.use_srpe) {
        const int64_t c_base = (begin + t) * d;
        const double* c_row = c->data() + c_base;
        for (int e = 0; e < d; ++e) {
          dq_row[e] += de * k_row[e] * c_row[e];
          dk_row[e] += de * q_row[e] * c_row[e];
        }
        if (dc != nullptr) {
          double* dc_row = dc->data() + c_base;
          for (int e = 0; e < d; ++e) {
            dc_row[e] += de * q_row[e] * k_row[e];
          }
        }
      } else {
        for (int e = 0; e < d; ++e) {
          dq_row[e] += de * k_row[e];
          dk_row[e] += de * q_row[e];
        }
      }
    }
  }
}

Tensor NaiveAttentionForward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor* c,
                             const std::vector<uint8_t>& observed,
                             const AttentionConfig& cfg) {
  const int length = q.dim(0);
  const int d = q.dim(1);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));
  const double neg_inf = -std::numeric_limits<double>::infinity();

  // Dimension extension, as in the paper's complexity analysis: an
  // [L, L, d] buffer of elementwise products q_i ⊙ k_j (⊙ c_ij).
  Tensor product({length * length, d});
  for (int i = 0; i < length; ++i) {
    const double* q_row = q.data() + static_cast<int64_t>(i) * d;
    for (int j = 0; j < length; ++j) {
      const double* k_row = k.data() + static_cast<int64_t>(j) * d;
      const int64_t base = (static_cast<int64_t>(i) * length + j) * d;
      double* out = product.data() + base;
      if (cfg.use_srpe) {
        const double* c_row = c->data() + base;
        for (int e = 0; e < d; ++e) out[e] = q_row[e] * k_row[e] * c_row[e];
      } else {
        for (int e = 0; e < d; ++e) out[e] = q_row[e] * k_row[e];
      }
    }
  }

  // Full [L, L] score matrix, with illegal connections masked afterwards.
  Tensor scores({length, length});
  for (int i = 0; i < length; ++i) {
    for (int j = 0; j < length; ++j) {
      const double* row =
          product.data() + (static_cast<int64_t>(i) * length + j) * d;
      double s = 0.0;
      for (int e = 0; e < d; ++e) s += row[e];
      const bool legal = !cfg.shielded || observed[j] || i == j;
      scores.At(i, j) = legal ? s * inv_sqrt_d : neg_inf;
    }
  }

  Tensor z({length, d});
  for (int i = 0; i < length; ++i) {
    double max_score = neg_inf;
    for (int j = 0; j < length; ++j) {
      max_score = std::max(max_score, scores.At(i, j));
    }
    double denom = 0.0;
    for (int j = 0; j < length; ++j) {
      const double s = scores.At(i, j);
      const double e = s == neg_inf ? 0.0 : std::exp(s - max_score);
      scores.At(i, j) = e;
      denom += e;
    }
    double* z_row = z.data() + static_cast<int64_t>(i) * d;
    for (int j = 0; j < length; ++j) {
      const double alpha = scores.At(i, j) / denom;
      if (alpha == 0.0) continue;
      const double* v_row = v.data() + static_cast<int64_t>(j) * d;
      for (int e = 0; e < d; ++e) z_row[e] += alpha * v_row[e];
    }
  }
  return z;
}

int64_t NaiveAttentionWorkspaceBytes(int length, int d_k, bool use_srpe) {
  const int64_t l = length;
  // [L,L,d] extended product + [L,L] scores (+ the [L,L,d] SRPE table that
  // must be resident for the broadcast multiply).
  int64_t doubles = l * l * d_k + l * l;
  if (use_srpe) doubles += l * l * d_k;
  return doubles * static_cast<int64_t>(sizeof(double));
}

int64_t PackedAttentionWorkspaceBytes(int length, int num_observed, int d_k,
                                      bool shielded) {
  const int64_t l = length;
  const int64_t m = num_observed;
  // Exact legal-pair count: every query sees the m observed nodes, and
  // each of the l-m unobserved queries additionally sees itself.
  const int64_t pairs = shielded ? l * m + (l - m) : l * l;
  // Plan (key indices + pair rows + offsets) + packed alpha + the packed
  // [pairs, d_k] SRPE rows — only the c_ij of legal pairs exist at all.
  int64_t bytes = pairs * static_cast<int64_t>(sizeof(int));       // keys
  bytes += pairs * static_cast<int64_t>(sizeof(int64_t));          // rows
  bytes += (l + 1) * static_cast<int64_t>(sizeof(int64_t));        // offsets
  bytes += pairs * static_cast<int64_t>(sizeof(double));           // alpha
  bytes += pairs * d_k * static_cast<int64_t>(sizeof(double));     // c rows
  return bytes;
}

}  // namespace ssin
