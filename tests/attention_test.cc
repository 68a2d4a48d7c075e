#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tensor/attention_kernels.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace ssin {
namespace {

using testing_util::CheckGradients;
using testing_util::PackRows;

std::vector<uint8_t> MakeObserved(int length, std::vector<int> unobserved) {
  std::vector<uint8_t> observed(length, 1);
  for (int u : unobserved) observed[u] = 0;
  return observed;
}

TEST(AttentionPlanTest, ShieldedListsFollowPaperRule) {
  // Nodes 1 and 3 unobserved out of 5.
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(5, {1, 3}), /*shielded=*/true, &plan);
  ASSERT_EQ(plan.offset.size(), 6u);
  EXPECT_EQ(plan.length, 5);
  EXPECT_EQ(plan.num_observed, 3);
  for (int i = 0; i < 5; ++i) {
    std::set<int> keys(plan.key_index.begin() + plan.offset[i],
                       plan.key_index.begin() + plan.offset[i + 1]);
    // Every query sees all observed nodes.
    EXPECT_TRUE(keys.count(0) && keys.count(2) && keys.count(4));
    if (i == 1 || i == 3) {
      // Unobserved: self plus observed — exactly 4 keys.
      EXPECT_TRUE(keys.count(i));
      EXPECT_EQ(keys.size(), 4u);
    } else {
      // Observed: only observed nodes.
      EXPECT_EQ(keys.size(), 3u);
      EXPECT_FALSE(keys.count(1));
      EXPECT_FALSE(keys.count(3));
    }
  }
}

TEST(AttentionPlanTest, UnshieldedIsFullAttention) {
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(4, {2}), /*shielded=*/false, &plan);
  EXPECT_EQ(plan.num_pairs(), 16);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.offset[i + 1] - plan.offset[i], 4);
  }
}

TEST(AttentionPlanTest, PairRowsAreDenseRowIndices) {
  AttentionPlan plan;
  const int length = 7;
  BuildAttentionPlan(MakeObserved(length, {2, 5}), /*shielded=*/true, &plan);
  ASSERT_EQ(plan.pair_rows.size(), plan.key_index.size());
  for (int i = 0; i < length; ++i) {
    for (int64_t t = plan.offset[i]; t < plan.offset[i + 1]; ++t) {
      EXPECT_EQ(plan.pair_rows[t], i * length + plan.key_index[t]);
    }
  }
}

TEST(AttentionPlanTest, PairCountMatchesComplexityAnalysis) {
  // Paper §3.4.2: at most (m+1) keys per query.
  const int length = 40;
  std::vector<uint8_t> observed(length, 0);
  int m = 0;
  Rng rng(3);
  for (int i = 0; i < length; ++i) {
    observed[i] = rng.Bernoulli(0.4) ? 1 : 0;
    m += observed[i];
  }
  if (m == 0) {
    observed[0] = 1;
    m = 1;
  }
  AttentionPlan plan;
  BuildAttentionPlan(observed, /*shielded=*/true, &plan);
  EXPECT_LE(plan.num_pairs(), static_cast<int64_t>(length) * (m + 1));
  for (int i = 0; i < length; ++i) {
    EXPECT_LE(plan.offset[i + 1] - plan.offset[i], m + 1);
    EXPECT_GE(plan.offset[i + 1] - plan.offset[i], 1);
  }
}

class AttentionConfigTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(AttentionConfigTest, PackedMatchesNaive) {
  const auto [use_srpe, shielded] = GetParam();
  AttentionConfig cfg;
  cfg.use_srpe = use_srpe;
  cfg.shielded = shielded;

  const int length = 12, d = 5;
  Rng rng(77);
  Tensor q = Tensor::Randn({length, d}, &rng);
  Tensor k = Tensor::Randn({length, d}, &rng);
  Tensor v = Tensor::Randn({length, d}, &rng);
  Tensor c = Tensor::Randn({length * length, d}, &rng);
  std::vector<uint8_t> observed = MakeObserved(length, {2, 5, 9});
  AttentionPlan plan;
  BuildAttentionPlan(observed, shielded, &plan);
  // The naive kernel reads its own dense c; the packed kernel reads the
  // plan's legal-pair rows of the same table — the independent oracle of
  // the packed addressing.
  const Tensor c_packed = PackRows(c, plan);

  AttentionContext ctx;
  Tensor packed = PackedAttentionForward(
      q, k, v, use_srpe ? &c_packed : nullptr, plan, cfg, &ctx);
  Tensor naive =
      NaiveAttentionForward(q, k, v, use_srpe ? &c : nullptr, observed, cfg);
  ASSERT_TRUE(packed.SameShape(naive));
  for (int64_t i = 0; i < packed.numel(); ++i) {
    EXPECT_NEAR(packed[i], naive[i], 1e-10);
  }
}

TEST_P(AttentionConfigTest, SoftmaxWeightsSumToOne) {
  const auto [use_srpe, shielded] = GetParam();
  AttentionConfig cfg;
  cfg.use_srpe = use_srpe;
  cfg.shielded = shielded;
  const int length = 9, d = 4;
  Rng rng(78);
  Tensor q = Tensor::Randn({length, d}, &rng);
  Tensor k = Tensor::Randn({length, d}, &rng);
  Tensor v = Tensor::Randn({length, d}, &rng);
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(length, {0, 4}), shielded, &plan);
  Tensor c = Tensor::Randn({static_cast<int>(plan.num_pairs()), d}, &rng);

  AttentionContext ctx;
  PackedAttentionForward(q, k, v, use_srpe ? &c : nullptr, plan, cfg, &ctx);
  for (int i = 0; i < length; ++i) {
    double sum = 0.0;
    for (int64_t t = plan.offset[i]; t < plan.offset[i + 1]; ++t) {
      EXPECT_GE(ctx.alpha[t], 0.0);
      sum += ctx.alpha[t];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST_P(AttentionConfigTest, GradientsMatchFiniteDifferences) {
  // dq/dk/dv (and dc with SRPE) against finite differences, with c the
  // [num_pairs, d] tensor indexed by legal pair.
  const auto [use_srpe, shielded] = GetParam();
  AttentionConfig cfg;
  cfg.use_srpe = use_srpe;
  cfg.shielded = shielded;
  const int length = 6, d = 3;
  Rng rng(84);
  auto plan = std::make_shared<AttentionPlan>();
  BuildAttentionPlan(MakeObserved(length, {1, 4}), shielded, plan.get());

  std::vector<Tensor> inputs = {
      Tensor::Randn({length, d}, &rng), Tensor::Randn({length, d}, &rng),
      Tensor::Randn({length, d}, &rng),
      Tensor::Randn({static_cast<int>(plan->num_pairs()), d}, &rng)};
  auto r = CheckGradients(
      inputs, [&](Graph*, const std::vector<Var>& v) {
        Var z = SpaAttention(v[0], v[1], v[2], v[3], plan, cfg);
        return Sum(Mul(z, z));
      });
  EXPECT_LT(r.max_rel_err, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AttentionConfigTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "srpe" : "dot") + "_" +
             std::string(std::get<1>(info.param) ? "shielded" : "full");
    });

TEST(AttentionTest, ShieldedOutputIgnoresOtherUnobservedNodes) {
  // The paper's consistency property: an unobserved node's representation
  // must not change when a *different* unobserved node's input changes.
  AttentionConfig cfg;  // SRPE + shielded.
  const int length = 8, d = 4;
  Rng rng(80);
  Tensor q = Tensor::Randn({length, d}, &rng);
  Tensor k = Tensor::Randn({length, d}, &rng);
  Tensor v = Tensor::Randn({length, d}, &rng);
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(length, {3, 6}), /*shielded=*/true, &plan);
  Tensor c = Tensor::Randn({static_cast<int>(plan.num_pairs()), d}, &rng);

  AttentionContext ctx;
  Tensor z1 = PackedAttentionForward(q, k, v, &c, plan, cfg, &ctx);
  // Perturb node 6's query/key/value wildly.
  for (int e = 0; e < d; ++e) {
    q.At(6, e) += 100.0;
    k.At(6, e) -= 50.0;
    v.At(6, e) += 10.0;
  }
  Tensor z2 = PackedAttentionForward(q, k, v, &c, plan, cfg, &ctx);
  for (int e = 0; e < d; ++e) {
    EXPECT_DOUBLE_EQ(z1.At(3, e), z2.At(3, e));  // Node 3 unaffected.
    EXPECT_DOUBLE_EQ(z1.At(0, e), z2.At(0, e));  // Observed unaffected too.
  }
}

TEST(AttentionTest, FullAttentionLeaksUnobservedInformation) {
  // Sanity check of the ablation: without the shield the leak exists.
  AttentionConfig cfg;
  cfg.shielded = false;
  const int length = 8, d = 4;
  Rng rng(81);
  Tensor q = Tensor::Randn({length, d}, &rng);
  Tensor k = Tensor::Randn({length, d}, &rng);
  Tensor v = Tensor::Randn({length, d}, &rng);
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(length, {3, 6}), /*shielded=*/false, &plan);
  Tensor c = Tensor::Randn({static_cast<int>(plan.num_pairs()), d}, &rng);

  AttentionContext ctx;
  Tensor z1 = PackedAttentionForward(q, k, v, &c, plan, cfg, &ctx);
  for (int e = 0; e < d; ++e) v.At(6, e) += 10.0;
  Tensor z2 = PackedAttentionForward(q, k, v, &c, plan, cfg, &ctx);
  double diff = 0.0;
  for (int e = 0; e < d; ++e) diff += std::fabs(z1.At(3, e) - z2.At(3, e));
  EXPECT_GT(diff, 1e-6);
}

TEST(AttentionTest, WorkspaceBytesScaling) {
  const int m = 123, d = 16;
  // Naive grows quadratically, packed linearly (paper Figure 7's shape).
  const int64_t naive_1k = NaiveAttentionWorkspaceBytes(1000, d, true);
  const int64_t naive_2k = NaiveAttentionWorkspaceBytes(2000, d, true);
  EXPECT_NEAR(static_cast<double>(naive_2k) / naive_1k, 4.0, 0.1);

  const int64_t packed_1k = PackedAttentionWorkspaceBytes(1000, m, d);
  const int64_t packed_2k = PackedAttentionWorkspaceBytes(2000, m, d);
  EXPECT_NEAR(static_cast<double>(packed_2k) / packed_1k, 2.0, 0.1);

  EXPECT_LT(packed_2k, naive_2k);
}

TEST(AttentionTest, WorkspaceBytesMatchesActualAllocations) {
  // The accounting must equal what the packed pipeline actually allocates
  // per sequence: plan arrays + softmax weights + packed SRPE rows.
  for (bool shielded : {true, false}) {
    const int length = 57, d = 16;
    std::vector<uint8_t> observed(length, 0);
    Rng rng(85);
    int m = 0;
    for (int i = 0; i < length; ++i) {
      observed[i] = rng.Bernoulli(0.6) ? 1 : 0;
      m += observed[i];
    }
    AttentionPlan plan;
    BuildAttentionPlan(observed, shielded, &plan);
    AttentionConfig cfg;
    cfg.shielded = shielded;
    Tensor q = Tensor::Randn({length, d}, &rng);
    Tensor c_packed =
        Tensor::Randn({static_cast<int>(plan.num_pairs()), d}, &rng);
    AttentionContext ctx;
    PackedAttentionForward(q, q, q, &c_packed, plan, cfg, &ctx);

    const int64_t actual =
        static_cast<int64_t>(plan.key_index.size()) * sizeof(int) +
        static_cast<int64_t>(plan.pair_rows.size()) * sizeof(int64_t) +
        static_cast<int64_t>(plan.offset.size()) * sizeof(int64_t) +
        static_cast<int64_t>(ctx.alpha.size()) * sizeof(double) +
        c_packed.numel() * static_cast<int64_t>(sizeof(double));
    EXPECT_EQ(PackedAttentionWorkspaceBytes(length, m, d, shielded), actual)
        << "shielded=" << shielded;
  }
}

TEST(AttentionTest, SingleObservedNodeDegenerateCase) {
  // One observed node: every query attends to it (plus itself when
  // unobserved); must not produce NaNs.
  AttentionConfig cfg;
  const int length = 4, d = 3;
  Rng rng(82);
  Tensor q = Tensor::Randn({length, d}, &rng);
  Tensor k = Tensor::Randn({length, d}, &rng);
  Tensor v = Tensor::Randn({length, d}, &rng);
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(length, {1, 2, 3}), /*shielded=*/true,
                     &plan);
  Tensor c = Tensor::Randn({static_cast<int>(plan.num_pairs()), d}, &rng);
  AttentionContext ctx;
  Tensor z = PackedAttentionForward(q, k, v, &c, plan, cfg, &ctx);
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_TRUE(std::isfinite(z[i]));
  // The observed node attends only to itself: output row 0 == v row 0.
  for (int e = 0; e < d; ++e) EXPECT_NEAR(z.At(0, e), v.At(0, e), 1e-12);
}

}  // namespace
}  // namespace ssin
