#ifndef SSIN_GEO_COORDS_H_
#define SSIN_GEO_COORDS_H_

#include <cmath>

namespace ssin {

/// Geographic position in decimal degrees.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};

/// Planar position in kilometers (local projection).
struct PointKm {
  double x = 0.0;  ///< East.
  double y = 0.0;  ///< North.
};

inline constexpr double kEarthRadiusKm = 6371.0088;
inline constexpr double kPi = 3.14159265358979323846;

inline double DegToRad(double deg) { return deg * kPi / 180.0; }
inline double RadToDeg(double rad) { return rad * 180.0 / kPi; }

/// Great-circle distance in km (haversine).
double HaversineKm(const LatLon& a, const LatLon& b);

/// Equirectangular projection around a reference latitude; adequate for the
/// city/state-scale regions (HK ~50 km, BW ~250 km) this library targets.
PointKm ProjectEquirectangular(const LatLon& p, const LatLon& origin);

/// Euclidean helpers on projected points.
double DistanceKm(const PointKm& a, const PointKm& b);

/// Azimuth on the projected plane, in radians in [0, 2*pi): the azimuth of
/// the paper's relative position r_ij — the angle between north and the
/// line connecting the two locations, measured clockwise.
double AzimuthRad(const PointKm& a, const PointKm& b);

}  // namespace ssin

#endif  // SSIN_GEO_COORDS_H_
