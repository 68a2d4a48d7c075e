#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace ssin {

namespace {

/// Squared Euclidean distance — the query ordering key. Squaring is
/// monotone, so (d2, index) ordering equals (distance, index) ordering
/// while avoiding a sqrt per candidate.
double Dist2(const PointKm& a, const PointKm& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

using Candidate = std::pair<double, int>;  // (squared distance, index)

}  // namespace

SpatialIndex::SpatialIndex(std::vector<PointKm> points)
    : points_(std::move(points)) {
  const int n = size();
  if (n == 0) return;

  min_x_ = points_[0].x;
  min_y_ = points_[0].y;
  double max_x = points_[0].x, max_y = points_[0].y;
  for (const PointKm& p : points_) {
    min_x_ = std::min(min_x_, p.x);
    max_x = std::max(max_x, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = max_x - min_x_;
  const double span_y = max_y - min_y_;

  // Square cells sized for ~1 point per cell on a uniform network; the
  // grid resolution is capped so pathological extents cannot allocate an
  // unbounded bucket array. Degenerate spans collapse to one cell along
  // that axis (queries then scan linearly — correct, just unpruned).
  const double area = span_x * span_y;
  double cell = area > 0.0 ? std::sqrt(area / n) : 0.0;
  if (!(cell > 0.0)) cell = std::max({span_x, span_y, 1.0});
  constexpr int kMaxCellsPerAxis = 4096;
  cols_ = std::min(static_cast<int>(span_x / cell) + 1, kMaxCellsPerAxis);
  rows_ = std::min(static_cast<int>(span_y / cell) + 1, kMaxCellsPerAxis);
  cell_w_ = span_x / cols_;
  cell_h_ = span_y / rows_;

  cells_.assign(static_cast<size_t>(rows_) * cols_, {});
  for (int i = 0; i < n; ++i) {
    cells_[static_cast<size_t>(CellRow(points_[i].y)) * cols_ +
           CellCol(points_[i].x)]
        .push_back(i);
  }
}

int SpatialIndex::CellCol(double x) const {
  if (cell_w_ <= 0.0) return 0;
  const int c = static_cast<int>((x - min_x_) / cell_w_);
  return std::min(std::max(c, 0), cols_ - 1);
}

int SpatialIndex::CellRow(double y) const {
  if (cell_h_ <= 0.0) return 0;
  const int r = static_cast<int>((y - min_y_) / cell_h_);
  return std::min(std::max(r, 0), rows_ - 1);
}

std::vector<int> SpatialIndex::KNearest(const PointKm& query, int k,
                                        int exclude) const {
  if (k <= 0 || size() == 0) return {};

  // Max-heap of the k best candidates so far, ordered by (d2, index):
  // heap front is the current worst, displaced when a better one appears.
  std::vector<Candidate> best;
  best.reserve(static_cast<size_t>(k) + 1);
  auto consider = [&](int idx) {
    if (idx == exclude) return;
    const Candidate c{Dist2(query, points_[idx]), idx};
    if (static_cast<int>(best.size()) < k) {
      best.push_back(c);
      std::push_heap(best.begin(), best.end());
    } else if (c < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = c;
      std::push_heap(best.begin(), best.end());
    }
  };
  auto visit_cell = [&](int cc, int cr) {
    if (cc < 0 || cc >= cols_ || cr < 0 || cr >= rows_) return;
    for (int idx : cells_[static_cast<size_t>(cr) * cols_ + cc]) {
      consider(idx);
    }
  };

  // Expanding Chebyshev rings around the query's (clamped) cell. A cell at
  // ring r is at least (r-1) cell widths away along some axis, so once the
  // heap is full and that lower bound exceeds the current worst, no farther
  // ring can improve the result. Axes with a single cell contribute no
  // rings, so they are excluded from the bound.
  const int qc = CellCol(query.x);
  const int qr = CellRow(query.y);
  const int max_ring = std::max(cols_, rows_);
  double bound_cell = std::numeric_limits<double>::infinity();
  if (cols_ > 1) bound_cell = std::min(bound_cell, cell_w_);
  if (rows_ > 1) bound_cell = std::min(bound_cell, cell_h_);

  for (int r = 0; r <= max_ring; ++r) {
    if (static_cast<int>(best.size()) == k && r >= 2 &&
        std::isfinite(bound_cell)) {
      const double lb = (r - 1) * bound_cell;
      if (lb * lb > best.front().first) break;
    }
    if (r == 0) {
      visit_cell(qc, qr);
      continue;
    }
    for (int dc = -r; dc <= r; ++dc) {
      visit_cell(qc + dc, qr - r);
      visit_cell(qc + dc, qr + r);
    }
    for (int dr = -(r - 1); dr <= r - 1; ++dr) {
      visit_cell(qc - r, qr + dr);
      visit_cell(qc + r, qr + dr);
    }
  }

  std::sort(best.begin(), best.end());
  std::vector<int> out;
  out.reserve(best.size());
  for (const Candidate& c : best) out.push_back(c.second);
  return out;
}

std::vector<int> BruteForceKNearest(const std::vector<PointKm>& points,
                                    const PointKm& query, int k,
                                    int exclude) {
  if (k <= 0) return {};
  std::vector<Candidate> all;
  all.reserve(points.size());
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    if (i == exclude) continue;
    all.emplace_back(Dist2(query, points[i]), i);
  }
  const size_t take = std::min(static_cast<size_t>(k), all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end());
  std::vector<int> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(all[i].second);
  return out;
}

}  // namespace ssin
