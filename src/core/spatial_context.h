#ifndef SSIN_CORE_SPATIAL_CONTEXT_H_
#define SSIN_CORE_SPATIAL_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/stats.h"
#include "core/interpolation.h"
#include "data/dataset.h"
#include "geo/coords.h"
#include "tensor/tensor.h"

namespace ssin {

class SpatialIndex;  // geo/spatial_index.h

/// Global standardization statistics for relative positions (paper §3.2:
/// positions are static, so distances and azimuths are standardized with
/// the statistics of the known training locations).
struct RelPosStats {
  MeanStd distance;
  MeanStd azimuth;
};

/// Precomputed spatial information for one station network.
///
/// SSIN standardizes positions globally (paper §3.2): the relative-position
/// and coordinate statistics are computed once over the *training* stations
/// and reused for every sequence, including inference sequences that add
/// query nodes. Pairwise relative positions are computed on demand — the
/// class stores only the O(N) station coordinates (plus the road
/// travel-distance matrix when the dataset carries one), never an [N*N, 2]
/// table, so a 10k-station network costs kilobytes instead of gigabytes.
class SpatialContext {
 public:
  SpatialContext() = default;

  /// Captures the station geometry of `data` and computes the
  /// standardization statistics over the `train_ids` sub-network in one
  /// streaming pass (no transient O(|train|^2) buffers).
  void Build(const SpatialDataset& data, const std::vector<int>& train_ids);

  /// Standardized relative positions for exactly the legal pairs of an
  /// attention plan: shape [|pair_rows|, 2]; output row t decodes
  /// pair_rows[t] as (a, b) = (row / L, row % L) over the `ids` sequence
  /// and holds RawRelPos(ids[a], ids[b]) standardized with relpos_stats().
  /// Only the plan's O(L*k) pairs are ever computed or stored.
  Tensor RelposForPairs(const std::vector<int>& ids,
                        const std::vector<int64_t>& pair_rows) const;

  /// Standardized absolute coordinates for a node subset: [|ids|, 2]
  /// (used by the SAPE ablation).
  Tensor AbsposFor(const std::vector<int>& ids) const;

  /// Per-query nearest-observed-key lists for neighbor-limited shielding:
  /// result[i] holds the sequence positions (ascending) of the `k` observed
  /// stations nearest to ids[i] — fewer when the sequence has fewer
  /// observed stations — always excluding position i itself, which is the
  /// exact input contract of BuildAttentionPlanLimited. Euclidean networks
  /// use a grid SpatialIndex over the observed subset; road travel-distance
  /// networks fall back to a per-query brute-force scan (a road metric has
  /// no planar embedding). Ties break by ascending sequence position, so
  /// the lists are deterministic. `k` must be positive.
  std::vector<std::vector<int>> NearestObservedKeys(
      const std::vector<int>& ids, const std::vector<uint8_t>& observed,
      int k) const;

  /// NearestObservedKeys one row at a time: the candidate index over the
  /// sequence's observed stations is built once, and KeysOf(i) returns
  /// row i of NearestObservedKeys(ids, observed, k) — same keys, same tie
  /// order. A serving layout asks only for the rows its queries can see.
  /// Holds references to `context`, `ids` and `observed`, which must
  /// outlive it.
  class NearestObserved {
   public:
    NearestObserved(const SpatialContext& context,
                    const std::vector<int>& ids,
                    const std::vector<uint8_t>& observed, int k);
    ~NearestObserved();

    std::vector<int> KeysOf(int i) const;

   private:
    const SpatialContext& context_;
    const std::vector<int>& ids_;
    const std::vector<uint8_t>& observed_;
    int k_;
    /// Sequence positions of the observed stations, ascending: the local
    /// index of the candidate set.
    std::vector<int> obs_pos_;
    /// Grid over the observed stations; null on travel-distance networks.
    std::unique_ptr<SpatialIndex> index_;
  };

  /// Raw (unstandardized) distance and azimuth from station a to b, the
  /// single source of the pairwise geometry: travel-matrix distance when
  /// the network has one, planar great-circle-projected kilometers
  /// otherwise. The self pair is (0, 0) by convention.
  std::pair<double, double> RawRelPos(int a, int b) const;

  const RelPosStats& relpos_stats() const { return stats_; }
  int num_stations() const { return num_stations_; }
  bool has_travel_distance() const { return has_travel_; }

 private:
  int num_stations_ = 0;
  RelPosStats stats_;
  MeanStd x_stats_, y_stats_;
  std::vector<PointKm> positions_;
  bool has_travel_ = false;
  Matrix travel_;  ///< [N, N] road travel distances; empty when !has_travel_.
};

}  // namespace ssin

#endif  // SSIN_CORE_SPATIAL_CONTEXT_H_
