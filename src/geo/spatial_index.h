#ifndef SSIN_GEO_SPATIAL_INDEX_H_
#define SSIN_GEO_SPATIAL_INDEX_H_

#include <vector>

#include "geo/coords.h"

namespace ssin {

/// Uniform grid hash over planar station coordinates, answering k-nearest
/// queries in roughly O(k) per query for quasi-uniform networks.
///
/// This is the scaling backbone for neighbor-limited shielded attention
/// (ROADMAP item 3): at L=10k stations a per-query candidate scan over all
/// observed stations is O(L*m); the grid restricts each query to the rings
/// of cells that can still contain a closer point.
///
/// Results are deterministic: ties are broken by ascending point index, so
/// the index and the brute-force reference (BruteForceKNearest) return the
/// same sequence even with duplicate coordinates. Euclidean planar distance
/// only — networks with a road-graph travel metric cannot be embedded in a
/// grid and must use the brute-force path (see
/// SpatialContext::NearestObservedKeys).
class SpatialIndex {
 public:
  /// Builds the grid over `points`. Degenerate inputs (empty set, all points
  /// coincident or collinear) degrade to a 1-cell-wide grid and stay
  /// correct, just without the pruning speedup.
  explicit SpatialIndex(std::vector<PointKm> points);

  /// Indices of the k nearest points to `query`, ascending by
  /// (squared distance, index); fewer than k when the set is smaller.
  /// `exclude` (an index into the indexed set, or -1) is never returned —
  /// callers use it to drop the query point itself.
  std::vector<int> KNearest(const PointKm& query, int k,
                            int exclude = -1) const;

  int size() const { return static_cast<int>(points_.size()); }

 private:
  int CellCol(double x) const;
  int CellRow(double y) const;

  std::vector<PointKm> points_;
  /// Row-major [rows_ * cols_] buckets of point indices.
  std::vector<std::vector<int>> cells_;
  int cols_ = 0, rows_ = 0;
  double min_x_ = 0.0, min_y_ = 0.0;
  double cell_w_ = 0.0, cell_h_ = 0.0;
};

/// O(n) reference for KNearest with the same (squared distance, index)
/// ordering — the differential-test oracle, and the fallback metric-agnostic
/// building block for non-Euclidean distances.
std::vector<int> BruteForceKNearest(const std::vector<PointKm>& points,
                                    const PointKm& query, int k,
                                    int exclude = -1);

}  // namespace ssin

#endif  // SSIN_GEO_SPATIAL_INDEX_H_
