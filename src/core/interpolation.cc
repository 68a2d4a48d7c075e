#include "core/interpolation.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ssin {

std::vector<std::vector<double>> SpatialInterpolator::InterpolateBatch(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    int num_threads) {
  std::vector<std::vector<double>> out(batch_values.size());
  ThreadPool pool(num_threads);
  pool.ParallelFor(static_cast<int64_t>(batch_values.size()),
                   [&](int64_t i, int /*slot*/) {
                     out[i] = InterpolateTimestamp(*batch_values[i],
                                                   observed_ids, query_ids);
                   });
  return out;
}

std::string InterpolationIdsError(const std::vector<double>& all_values,
                                  int num_stations,
                                  const std::vector<int>& observed_ids,
                                  const std::vector<int>& query_ids) {
  auto error = [](auto&&... parts) {
    std::ostringstream stream;
    (stream << ... << parts);
    return stream.str();
  };
  if (observed_ids.empty()) {
    return error("interpolation needs at least one observed station");
  }
  std::vector<uint8_t> seen(num_stations, 0);
  for (int id : observed_ids) {
    if (id < 0 || id >= num_stations) {
      return error("observed id ", id, " outside station network of size ",
                   num_stations);
    }
    if (static_cast<size_t>(id) >= all_values.size()) {
      return error("observed id ", id, " outside the values vector");
    }
    if (!std::isfinite(all_values[id])) {
      return error("observed id ", id, " has non-finite value ",
                   all_values[id]);
    }
    if (seen[id]) return error("duplicate observed id ", id);
    seen[id] = 1;
  }
  for (int id : query_ids) {
    if (id < 0 || id >= num_stations) {
      return error("query id ", id, " outside station network of size ",
                   num_stations);
    }
    if (seen[id]) {
      return error("station ", id,
                   " is both observed and queried (or queried twice)");
    }
    seen[id] = 1;
  }
  return std::string();
}

void ValidateInterpolationIds(const std::vector<double>& all_values,
                              int num_stations,
                              const std::vector<int>& observed_ids,
                              const std::vector<int>& query_ids) {
  const std::string error = InterpolationIdsError(all_values, num_stations,
                                                  observed_ids, query_ids);
  SSIN_CHECK(error.empty()) << error;
}

void StationGeometry::Capture(const SpatialDataset& data,
                              bool use_travel_distance) {
  positions_ = data.Positions();
  has_travel_ = use_travel_distance && data.has_travel_distance();
  if (has_travel_) travel_ = data.travel_distance();
}

}  // namespace ssin
