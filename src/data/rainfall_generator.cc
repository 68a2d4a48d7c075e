#include "data/rainfall_generator.h"

#include <algorithm>
#include <cmath>

namespace ssin {

RainfallRegionConfig HkRegionConfig() {
  RainfallRegionConfig config;
  config.name = "HK";
  config.width_km = 50.0;
  config.height_km = 40.0;
  config.num_gauges = 123;
  config.origin = LatLon{22.15, 113.85};
  config.intensity_scale = 3.2;
  // Steep terrain: persistent orographic biases at roughly the gauge
  // spacing scale (partially recoverable from neighbors and history).
  config.orography_strength = 0.3;
  config.orography_corr_km = 6.0;
  config.convective_prob = 0.45;
  config.mixed_prob = 0.25;
  config.stratiform_corr_km = 18.0;
  // Cells are resolvable by the ~4 km gauge spacing but small enough that
  // value-adaptive weighting matters at their edges.
  config.cell_radius_min_km = 2.5;
  config.cell_radius_max_km = 6.0;
  config.texture_strength = 0.35;
  config.texture_corr_km = 3.0;
  config.prevailing_direction_rad = 0.8;  // SW monsoon: SW-NE axis.
  config.direction_spread_rad = 0.35;
  config.anisotropy = 4.0;
  config.station_seed = 7771;
  return config;
}

RainfallRegionConfig BwRegionConfig() {
  RainfallRegionConfig config;
  config.name = "BW";
  config.width_km = 200.0;
  config.height_km = 160.0;
  config.num_gauges = 132;
  config.origin = LatLon{47.6, 7.6};
  config.intensity_scale = 1.1;
  config.orography_strength = 0.25;
  config.orography_corr_km = 14.0;
  config.convective_prob = 0.35;
  config.mixed_prob = 0.25;
  config.stratiform_corr_km = 55.0;
  config.cell_radius_min_km = 6.0;
  config.cell_radius_max_km = 16.0;
  config.texture_strength = 0.3;
  config.texture_corr_km = 9.0;
  config.prevailing_direction_rad = 1.5;  // Mid-latitude westerlies.
  config.direction_spread_rad = 0.4;
  config.anisotropy = 3.5;
  config.station_seed = 9913;
  return config;
}

RainfallRegionConfig NationalRegionConfig(int num_gauges) {
  SSIN_CHECK_GT(num_gauges, 1);
  RainfallRegionConfig config = BwRegionConfig();
  config.name = "NAT";
  config.width_km = 900.0;
  config.height_km = 700.0;
  config.num_gauges = num_gauges;
  config.origin = LatLon{47.3, 6.0};
  // Rain structures keep their regional physical scale; only the domain
  // grows. A larger domain needs a lower wet-fraction bar — a single
  // stratiform system cannot cover a whole country.
  config.orography_corr_km = 45.0;
  config.stratiform_corr_km = 90.0;
  config.mean_cells_per_event = 12.0;
  config.min_wet_fraction = 0.04;
  config.station_seed = 20261;
  return config;
}

SmoothField::SmoothField(double correlation_km, int num_features, Rng* rng)
    : SmoothField(correlation_km, correlation_km, 0.0, num_features, rng) {}

SmoothField::SmoothField(double along_km, double across_km, double angle_rad,
                         int num_features, Rng* rng) {
  SSIN_CHECK_GT(along_km, 0.0);
  SSIN_CHECK_GT(across_km, 0.0);
  SSIN_CHECK_GT(num_features, 0);
  // Unit vector of the "along" axis; angle is clockwise from north.
  const double ax = std::sin(angle_rad);
  const double ay = std::cos(angle_rad);
  features_.resize(num_features);
  for (Feature& f : features_) {
    const double w_along = rng->Normal() / along_km;
    const double w_across = rng->Normal() / across_km;
    f.wx = w_along * ax - w_across * ay;
    f.wy = w_along * ay + w_across * ax;
    f.phase = rng->Uniform(0.0, 2.0 * kPi);
    f.amplitude = rng->Normal();
  }
  norm_ = std::sqrt(2.0 / static_cast<double>(num_features));
}

double SmoothField::At(const PointKm& p) const {
  double sum = 0.0;
  for (const Feature& f : features_) {
    sum += f.amplitude * std::cos(f.wx * p.x + f.wy * p.y + f.phase);
  }
  return norm_ * sum;
}

std::vector<PointKm> PlaceStations(const RainfallRegionConfig& config,
                                   Rng* rng) {
  std::vector<PointKm> points;
  points.reserve(config.num_gauges);

  // Roughly 75% of gauges on a jittered grid covering the domain; the rest
  // in a few dense clusters (urban districts / landslide-prone slopes).
  const int grid_count = static_cast<int>(config.num_gauges * 0.75);
  const double aspect = config.width_km / config.height_km;
  int cols = std::max(2, static_cast<int>(std::sqrt(grid_count * aspect)));
  int rows = std::max(2, (grid_count + cols - 1) / cols);
  const double dx = config.width_km / cols;
  const double dy = config.height_km / rows;
  for (int r = 0; r < rows && static_cast<int>(points.size()) < grid_count;
       ++r) {
    for (int c = 0; c < cols && static_cast<int>(points.size()) < grid_count;
         ++c) {
      PointKm p;
      p.x = (c + 0.5) * dx + rng->Normal(0.0, dx * 0.25);
      p.y = (r + 0.5) * dy + rng->Normal(0.0, dy * 0.25);
      p.x = std::clamp(p.x, 0.0, config.width_km);
      p.y = std::clamp(p.y, 0.0, config.height_km);
      points.push_back(p);
    }
  }

  const int num_clusters = 3;
  std::vector<PointKm> centers;
  for (int k = 0; k < num_clusters; ++k) {
    centers.push_back({rng->Uniform(0.15, 0.85) * config.width_km,
                       rng->Uniform(0.15, 0.85) * config.height_km});
  }
  const double cluster_spread = 0.04 * (config.width_km + config.height_km);
  while (static_cast<int>(points.size()) < config.num_gauges) {
    const PointKm& c = centers[static_cast<size_t>(
        rng->UniformInt(0, num_clusters - 1))];
    PointKm p{c.x + rng->Normal(0.0, cluster_spread),
              c.y + rng->Normal(0.0, cluster_spread)};
    p.x = std::clamp(p.x, 0.0, config.width_km);
    p.y = std::clamp(p.y, 0.0, config.height_km);
    points.push_back(p);
  }
  return points;
}

RainfallGenerator::RainfallGenerator(const RainfallRegionConfig& config)
    : config_(config),
      orography_([&] {
        Rng rng(config.station_seed ^ 0xabcdef12u);
        return SmoothField(config.orography_corr_km, 48, &rng);
      }()) {
  Rng rng(config.station_seed);
  std::vector<PointKm> points = PlaceStations(config, &rng);
  stations_.reserve(points.size());
  const double lat0 = DegToRad(config.origin.lat);
  for (size_t i = 0; i < points.size(); ++i) {
    Station s;
    s.id = config.name + "_" + std::to_string(i);
    s.position = points[i];
    // Inverse of the equirectangular projection for plausible lat/lon.
    s.latlon.lat = config.origin.lat + RadToDeg(points[i].y / kEarthRadiusKm);
    s.latlon.lon = config.origin.lon +
                   RadToDeg(points[i].x / (kEarthRadiusKm * std::cos(lat0)));
    stations_.push_back(std::move(s));
  }
}

double RainfallGenerator::OrographyAt(const PointKm& p) const {
  return std::exp(config_.orography_strength * orography_.At(p));
}

namespace {

/// One anisotropic convective rain cell.
struct RainCell {
  PointKm center;
  double intensity;   ///< Peak mm/h before orography.
  double major_km;    ///< Std-dev along the advection direction.
  double minor_km;    ///< Std-dev across it.
  double cos_t, sin_t;

  double At(const PointKm& p) const {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    const double u = dx * cos_t + dy * sin_t;   // Along major axis.
    const double v = -dx * sin_t + dy * cos_t;  // Across.
    const double q = (u * u) / (major_km * major_km) +
                     (v * v) / (minor_km * minor_km);
    return intensity * std::exp(-0.5 * q);
  }
};

enum class EventType { kStratiform, kConvective, kMixed };

}  // namespace

std::vector<double> RainfallGenerator::SampleHour(
    const std::vector<PointKm>& points, Rng* rng) const {
  const RainfallRegionConfig& cfg = config_;

  const double u = rng->Uniform();
  EventType type = EventType::kStratiform;
  if (u < cfg.convective_prob) {
    type = EventType::kConvective;
  } else if (u < cfg.convective_prob + cfg.mixed_prob) {
    type = EventType::kMixed;
  }

  // Advection direction: prevailing regional flow plus per-event spread.
  // It orients the stratiform anisotropy and the cells, so the direction-
  // dependent correlation structure is stable enough to learn from
  // history (the SRPE azimuth channel) yet varies event to event.
  const double advection =
      cfg.prevailing_direction_rad + rng->Normal(0.0, cfg.direction_spread_rad);

  const bool has_stratiform = type != EventType::kConvective;
  const bool has_convective = type != EventType::kStratiform;

  // Stratiform structure is elongated along the advection direction.
  SmoothField stratiform_field(cfg.stratiform_corr_km,
                               cfg.stratiform_corr_km / cfg.anisotropy,
                               advection, 32, rng);
  // Sub-gauge-spacing roughness, resampled every hour: no interpolator can
  // capture it from the other gauges, which keeps the task realistically
  // hard (hourly point rainfall is far rougher than daily accumulations).
  // Mildly elongated along the advection direction as well.
  SmoothField texture_field(cfg.texture_corr_km * 1.5,
                            cfg.texture_corr_km / 1.5, advection, 32, rng);
  // Stratiform base level and variability (in "field units" before the
  // region intensity scaling).
  const double base = rng->Uniform(0.15, 0.9);
  const double variability = rng->Uniform(0.3, 0.9);
  // Gradient along the advection direction (field decays downwind).
  const double gradient = rng->Uniform(0.0, 0.012);
  const double gx = std::sin(advection), gy = std::cos(advection);

  std::vector<RainCell> cells;
  if (has_convective) {
    const int num_cells =
        1 + static_cast<int>(rng->Exponential(1.0 / cfg.mean_cells_per_event));
    const double domain = std::max(cfg.width_km, cfg.height_km);
    for (int c = 0; c < num_cells; ++c) {
      RainCell cell;
      cell.center = {rng->Uniform(-0.05, 1.05) * cfg.width_km,
                     rng->Uniform(-0.05, 1.05) * cfg.height_km};
      cell.intensity = rng->Gamma(2.0, 1.2);
      cell.major_km = rng->Uniform(cfg.cell_radius_min_km,
                                   cfg.cell_radius_max_km) *
                      rng->Uniform(1.0, 1.6);
      cell.major_km = std::min(cell.major_km, 0.5 * domain);
      cell.minor_km = cell.major_km * rng->Uniform(0.35, 0.75);
      const double theta =
          advection + rng->Normal(0.0, 0.25);  // Cells roughly aligned.
      // Orientation measured from the x-axis; advection is from north.
      cell.cos_t = std::cos(kPi / 2.0 - theta);
      cell.sin_t = std::sin(kPi / 2.0 - theta);
      cells.push_back(cell);
    }
  }

  std::vector<double> values(points.size(), 0.0);
  for (size_t i = 0; i < points.size(); ++i) {
    const PointKm& p = points[i];
    double field = 0.0;
    if (has_stratiform) {
      double strat = base + variability * stratiform_field.At(p) +
                     gradient * (gx * p.x + gy * p.y);
      field += std::max(0.0, strat);
    }
    if (has_convective) {
      double conv = 0.0;
      for (const RainCell& cell : cells) conv += cell.At(p);
      field += conv;
    }
    field *= std::exp(cfg.texture_strength * texture_field.At(p));
    double mm = field * cfg.intensity_scale * OrographyAt(p);
    // Gauge noise: multiplicative splash/wind error plus tipping noise.
    if (mm > 0.0) {
      mm *= std::max(0.0, 1.0 + rng->Normal(0.0, 0.06));
      mm += rng->Normal(0.0, 0.05);
    }
    mm = std::max(0.0, mm);
    // 0.1-mm tipping-bucket quantization, matching both source archives.
    values[i] = std::round(mm * 10.0) / 10.0;
  }
  return values;
}

SpatialDataset RainfallGenerator::GenerateHours(int num_hours,
                                                uint64_t seed) const {
  return GenerateHoursAt({}, num_hours, seed);
}

SpatialDataset RainfallGenerator::GenerateHoursAt(
    const std::vector<PointKm>& extra_points, int num_hours,
    uint64_t seed) const {
  std::vector<Station> all_stations = stations_;
  for (size_t i = 0; i < extra_points.size(); ++i) {
    Station s;
    s.id = std::string("Q").append(std::to_string(i));
    s.position = extra_points[i];
    all_stations.push_back(std::move(s));
  }
  std::vector<PointKm> points;
  points.reserve(all_stations.size());
  for (const Station& s : all_stations) points.push_back(s.position);

  SpatialDataset dataset(std::move(all_stations));
  dataset.SetNonNegative(true);  // Rain amounts are physically >= 0.
  Rng rng(seed);
  const int num_gauges = static_cast<int>(stations_.size());
  const int min_wet = std::max(
      1, static_cast<int>(config_.min_wet_fraction * num_gauges));
  int generated = 0;
  int attempts = 0;
  while (generated < num_hours) {
    SSIN_CHECK_LT(attempts, num_hours * 50 + 1000)
        << "rainfall generator failed to produce enough rainy hours";
    ++attempts;
    std::vector<double> values = SampleHour(points, &rng);
    int wet = 0;
    for (int i = 0; i < num_gauges; ++i) {
      if (values[i] > 0.0) ++wet;
    }
    if (wet < min_wet) continue;  // Not a valid rainy hour; resample.
    dataset.AddTimestamp(std::move(values));
    ++generated;
  }
  return dataset;
}

}  // namespace ssin
