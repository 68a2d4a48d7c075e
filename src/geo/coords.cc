#include "geo/coords.h"

namespace ssin {

double HaversineKm(const LatLon& a, const LatLon& b) {
  const double lat1 = DegToRad(a.lat);
  const double lat2 = DegToRad(b.lat);
  const double dlat = lat2 - lat1;
  const double dlon = DegToRad(b.lon - a.lon);
  const double s = std::sin(dlat / 2.0) * std::sin(dlat / 2.0) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2.0) *
                       std::sin(dlon / 2.0);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(s)));
}

PointKm ProjectEquirectangular(const LatLon& p, const LatLon& origin) {
  const double lat0 = DegToRad(origin.lat);
  PointKm out;
  out.x = DegToRad(p.lon - origin.lon) * std::cos(lat0) * kEarthRadiusKm;
  out.y = DegToRad(p.lat - origin.lat) * kEarthRadiusKm;
  return out;
}

double DistanceKm(const PointKm& a, const PointKm& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  return std::sqrt(dx * dx + dy * dy);
}

double AzimuthRad(const PointKm& a, const PointKm& b) {
  // atan2(east displacement, north displacement): clockwise from north.
  double azimuth = std::atan2(b.x - a.x, b.y - a.y);
  if (azimuth < 0.0) azimuth += 2.0 * kPi;
  return azimuth;
}

}  // namespace ssin
