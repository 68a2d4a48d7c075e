#include "geo/road_graph.h"

#include <queue>
#include <utility>

#include "common/check.h"

namespace ssin {

int RoadGraph::AddNode(const PointKm& position) {
  positions_.push_back(position);
  adjacency_.emplace_back();
  return num_nodes() - 1;
}

void RoadGraph::AddEdge(int a, int b, double length_km) {
  SSIN_CHECK(a >= 0 && a < num_nodes());
  SSIN_CHECK(b >= 0 && b < num_nodes());
  SSIN_CHECK_NE(a, b);
  if (length_km < 0.0) length_km = DistanceKm(positions_[a], positions_[b]);
  adjacency_[a].push_back({b, length_km});
  adjacency_[b].push_back({a, length_km});
}

std::vector<double> RoadGraph::ShortestPathsFrom(int source) const {
  SSIN_CHECK(source >= 0 && source < num_nodes());
  std::vector<double> dist(num_nodes(), kUnreachable);
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  dist[source] = 0.0;
  queue.push({0.0, source});
  while (!queue.empty()) {
    auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[node]) continue;
    for (const Edge& e : adjacency_[node]) {
      const double nd = d + e.length;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        queue.push({nd, e.to});
      }
    }
  }
  return dist;
}

}  // namespace ssin
