#ifndef SSIN_GEO_ROAD_GRAPH_H_
#define SSIN_GEO_ROAD_GRAPH_H_

#include <limits>
#include <vector>

#include "geo/coords.h"

namespace ssin {

/// Undirected weighted road network used by the traffic interpolation case
/// study (paper §4.3): sensor correlation follows travel distance on this
/// graph rather than geographic distance.
class RoadGraph {
 public:
  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();

  /// Adds a node at the given planar position; returns its id.
  int AddNode(const PointKm& position);

  /// Adds an undirected edge. Length defaults to the Euclidean distance
  /// between the endpoints; pass an explicit length for curved segments.
  void AddEdge(int a, int b, double length_km = -1.0);

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  const PointKm& position(int id) const { return positions_[id]; }
  const std::vector<PointKm>& positions() const { return positions_; }

  /// Single-source shortest path travel distances (Dijkstra);
  /// kUnreachable for nodes disconnected from `source`.
  std::vector<double> ShortestPathsFrom(int source) const;

 private:
  struct Edge {
    int to;
    double length;
  };

  std::vector<PointKm> positions_;
  std::vector<std::vector<Edge>> adjacency_;
};

}  // namespace ssin

#endif  // SSIN_GEO_ROAD_GRAPH_H_
