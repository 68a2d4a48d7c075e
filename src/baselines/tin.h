#ifndef SSIN_BASELINES_TIN_H_
#define SSIN_BASELINES_TIN_H_

#include <string>
#include <vector>

#include "core/interpolation.h"

namespace ssin {

/// Triangulated Irregular Network interpolation (paper baseline): Delaunay
/// triangulation of the observed stations, linear (barycentric)
/// interpolation within each triangle, nearest-observation fallback for
/// queries outside the convex hull. Coordinate-based only — it cannot use
/// road travel distances, which is why it collapses on traffic (Table 9).
class TinInterpolator : public SpatialInterpolator {
 public:
  std::string Name() const override { return "TIN"; }

  void Fit(const SpatialDataset& data,
           const std::vector<int>& train_ids) override;

  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override;

  /// Triangulates the observed stations once on the calling thread, then
  /// applies the query plans to every timestamp across the pool.
  std::vector<std::vector<double>> InterpolateBatch(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids, int num_threads = 1) override;

 private:
  /// Interpolation plan for one query against one observed set: either
  /// barycentric weights over 3 stations or a single nearest station.
  struct QueryPlan {
    int station[3];
    double weight[3];
    int count;  // 3 inside the hull, 1 outside.
  };

  /// Triangulates the observed stations and plans every query against
  /// them, in query order.
  std::vector<QueryPlan> Plan(const std::vector<int>& observed_ids,
                              const std::vector<int>& query_ids) const;

  static std::vector<double> Apply(const std::vector<QueryPlan>& plans,
                                   const std::vector<double>& all_values);

  StationGeometry geometry_;
};

}  // namespace ssin

#endif  // SSIN_BASELINES_TIN_H_
