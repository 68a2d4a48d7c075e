#include "data/traffic_generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

namespace ssin {

TrafficGenerator::TrafficGenerator(const TrafficNetworkConfig& config)
    : config_(config) {
  Rng rng(config.seed);

  // Lay corridors on a jittered set of rows/columns of a lattice whose
  // pitch is the node spacing.
  const int lattice = std::max(
      2, static_cast<int>(config.extent_km / config.node_spacing_km));
  auto pick_lines = [&](int count) {
    std::vector<int> lines;
    for (int i = 0; i < count; ++i) {
      const double frac = (i + 0.5 + rng.Uniform(-0.25, 0.25)) / count;
      int line = static_cast<int>(frac * lattice);
      line = std::clamp(line, 0, lattice - 1);
      lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
  };
  const std::vector<int> rows = pick_lines(config.corridors_ew);
  const std::vector<int> cols = pick_lines(config.corridors_ns);

  // Each corridor owns its nodes; crossings of an EW and an NS corridor
  // are distinct nodes (an overpass) unless designated an interchange, in
  // which case a short ramp edge connects them. This mirrors real freeway
  // topology: two sensors can be a few hundred meters apart geographically
  // yet many kilometers apart by travel distance.
  std::map<std::tuple<int, int, int>, int> node_of;  // (axis, r, c) -> id
  auto get_node = [&](int axis, int r, int c) {
    auto it = node_of.find({axis, r, c});
    if (it != node_of.end()) return it->second;
    // Slight positional jitter so the network is not a perfect grid.
    PointKm p{c * config_.node_spacing_km + rng.Normal(0.0, 0.08),
              r * config_.node_spacing_km + rng.Normal(0.0, 0.08)};
    const int id = graph_.AddNode(p);
    node_of[{axis, r, c}] = id;
    return id;
  };

  for (int r : rows) {
    for (int c = 0; c + 1 < lattice; ++c) {
      graph_.AddEdge(get_node(0, r, c), get_node(0, r, c + 1));
    }
  }
  for (int c : cols) {
    for (int r = 0; r + 1 < lattice; ++r) {
      graph_.AddEdge(get_node(1, r, c), get_node(1, r + 1, c));
    }
  }
  // Interchanges. The first EW corridor and the first NS corridor act as
  // fully interchanged spines (guaranteeing the network is connected);
  // every other crossing is an interchange with probability
  // interchange_prob and an overpass otherwise.
  for (size_t ri = 0; ri < rows.size(); ++ri) {
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      const bool connect = ri == 0 || ci == 0 ||
                           rng.Bernoulli(config.interchange_prob);
      if (connect) {
        graph_.AddEdge(get_node(0, rows[ri], cols[ci]),
                       get_node(1, rows[ri], cols[ci]),
                       config.ramp_length_km);
      }
    }
  }

  // Sensors: a random subset of corridor nodes.
  const int total_nodes = graph_.num_nodes();
  SSIN_CHECK_GE(total_nodes, config.num_sensors)
      << "network too small for the requested sensor count";
  sensor_nodes_ = rng.SampleWithoutReplacement(total_nodes,
                                               config.num_sensors);
  std::sort(sensor_nodes_.begin(), sensor_nodes_.end());

  sensor_stations_.reserve(sensor_nodes_.size());
  for (size_t i = 0; i < sensor_nodes_.size(); ++i) {
    Station s;
    s.id = std::string("S").append(std::to_string(i));
    s.position = graph_.position(sensor_nodes_[i]);
    sensor_stations_.push_back(std::move(s));
  }

  // Travel distances: graph-node -> sensors (for congestion events) and
  // sensor -> sensor (for interpolators).
  node_to_sensor_travel_.assign(total_nodes, {});
  sensor_travel_ = Matrix(config.num_sensors, config.num_sensors);
  for (int n = 0; n < total_nodes; ++n) {
    std::vector<double> dist = graph_.ShortestPathsFrom(n);
    std::vector<double>& row = node_to_sensor_travel_[n];
    row.resize(sensor_nodes_.size());
    for (size_t s = 0; s < sensor_nodes_.size(); ++s) {
      row[s] = dist[sensor_nodes_[s]];
    }
  }
  for (int i = 0; i < config.num_sensors; ++i) {
    const std::vector<double>& row = node_to_sensor_travel_[sensor_nodes_[i]];
    for (int j = 0; j < config.num_sensors; ++j) {
      sensor_travel_(i, j) = row[j];
    }
  }
}

namespace {

/// One congestion episode seeded at a graph node, decaying over travel
/// distance and following a ramp-up / ramp-down temporal profile.
struct CongestionEvent {
  int seed_node;
  double magnitude_mph;
  double scale_km;
  int start, peak, end;  // Timestamps.

  double TimeFactor(int t) const {
    if (t < start || t > end) return 0.0;
    if (t <= peak) {
      return static_cast<double>(t - start + 1) / (peak - start + 1);
    }
    return static_cast<double>(end - t + 1) / (end - peak + 1);
  }
};

}  // namespace

SpatialDataset TrafficGenerator::Generate(int num_timestamps,
                                          uint64_t seed) const {
  Rng rng(seed);
  const int num_sensors = static_cast<int>(sensor_nodes_.size());

  // Persistent per-sensor free-flow speed (sensor-specific bias that a
  // learned interpolator can recover from history).
  std::vector<double> freeflow(num_sensors);
  for (double& f : freeflow) {
    f = config_.freeflow_mph + rng.Normal(0.0, config_.freeflow_spread_mph);
  }

  // Pre-draw congestion events as a birth process. Rush-hour periodicity:
  // a 288-step day (5-minute samples) with morning/evening peaks.
  std::vector<CongestionEvent> events;
  const double base_rate =
      config_.congestion_events_per_step / 40.0;  // births per step
  for (int t = 0; t < num_timestamps; ++t) {
    const double tod = 2.0 * kPi * (t % 288) / 288.0;
    const double rush = 1.0 + 0.9 * std::max(0.0, std::sin(2.0 * tod));
    const double births = base_rate * rush;
    int n_births = static_cast<int>(births);
    if (rng.Uniform() < births - n_births) ++n_births;
    for (int b = 0; b < n_births; ++b) {
      CongestionEvent e;
      e.seed_node = static_cast<int>(
          rng.UniformInt(0, graph_.num_nodes() - 1));
      e.magnitude_mph = rng.Uniform(15.0, 45.0);
      e.scale_km = rng.Uniform(config_.congestion_scale_km_min,
                               config_.congestion_scale_km_max);
      const int rise = static_cast<int>(rng.UniformInt(3, 15));
      const int fall = static_cast<int>(rng.UniformInt(5, 25));
      e.start = t;
      e.peak = t + rise;
      e.end = t + rise + fall;
      events.push_back(e);
    }
  }

  SpatialDataset dataset(sensor_stations_);
  dataset.SetTravelDistance(sensor_travel_);

  std::vector<double> values(num_sensors);
  for (int t = 0; t < num_timestamps; ++t) {
    for (int s = 0; s < num_sensors; ++s) values[s] = freeflow[s];
    for (const CongestionEvent& e : events) {
      const double tf = e.TimeFactor(t);
      if (tf <= 0.0) continue;
      const std::vector<double>& travel = node_to_sensor_travel_[e.seed_node];
      for (int s = 0; s < num_sensors; ++s) {
        if (travel[s] == RoadGraph::kUnreachable) continue;
        values[s] -= e.magnitude_mph * tf * std::exp(-travel[s] / e.scale_km);
      }
    }
    for (int s = 0; s < num_sensors; ++s) {
      values[s] += rng.Normal(0.0, config_.noise_mph);
      values[s] = std::clamp(values[s], 3.0, 80.0);
    }
    dataset.AddTimestamp(values);
  }
  return dataset;
}

}  // namespace ssin
