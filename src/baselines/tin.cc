#include "baselines/tin.h"

#include <limits>

#include "baselines/delaunay.h"
#include "common/thread_pool.h"

namespace ssin {

void TinInterpolator::Fit(const SpatialDataset& data,
                          const std::vector<int>& train_ids) {
  (void)train_ids;
  geometry_.Capture(data, /*use_travel_distance=*/false);
}

std::vector<TinInterpolator::QueryPlan> TinInterpolator::Plan(
    const std::vector<int>& observed_ids,
    const std::vector<int>& query_ids) const {
  std::vector<PointKm> pts;
  pts.reserve(observed_ids.size());
  for (int o : observed_ids) pts.push_back(geometry_.position(o));
  const DelaunayTriangulation triangulation(pts);

  std::vector<QueryPlan> plans;
  plans.reserve(query_ids.size());
  for (int query : query_ids) {
    QueryPlan plan;
    const PointKm& p = geometry_.position(query);
    int tri = -1;
    double w[3];
    if (triangulation.Locate(p, &tri, w)) {
      const Triangle& t = triangulation.triangles()[tri];
      plan.count = 3;
      plan.station[0] = observed_ids[t.a];
      plan.station[1] = observed_ids[t.b];
      plan.station[2] = observed_ids[t.c];
      plan.weight[0] = w[0];
      plan.weight[1] = w[1];
      plan.weight[2] = w[2];
      plans.push_back(plan);
      continue;
    }
    // Outside the hull: nearest observed station.
    double best = std::numeric_limits<double>::infinity();
    int best_station = observed_ids[0];
    for (int o : observed_ids) {
      const double d = DistanceKm(p, geometry_.position(o));
      if (d < best) {
        best = d;
        best_station = o;
      }
    }
    plan.count = 1;
    plan.station[0] = best_station;
    plan.weight[0] = 1.0;
    plans.push_back(plan);
  }
  return plans;
}

std::vector<double> TinInterpolator::Apply(
    const std::vector<QueryPlan>& plans,
    const std::vector<double>& all_values) {
  std::vector<double> out;
  out.reserve(plans.size());
  for (const QueryPlan& plan : plans) {
    double value = 0.0;
    for (int i = 0; i < plan.count; ++i) {
      value += plan.weight[i] * all_values[plan.station[i]];
    }
    out.push_back(value);
  }
  return out;
}

std::vector<double> TinInterpolator::InterpolateTimestamp(
    const std::vector<double>& all_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  return Apply(Plan(observed_ids, query_ids), all_values);
}

std::vector<std::vector<double>> TinInterpolator::InterpolateBatch(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    int num_threads) {
  const std::vector<QueryPlan> plans = Plan(observed_ids, query_ids);
  std::vector<std::vector<double>> out(batch_values.size());
  ThreadPool pool(num_threads);
  pool.ParallelFor(static_cast<int64_t>(batch_values.size()),
                   [&](int64_t i, int /*slot*/) {
                     out[i] = Apply(plans, *batch_values[i]);
                   });
  return out;
}

}  // namespace ssin
