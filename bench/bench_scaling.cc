/// Neighbor-limited scaling study (ROADMAP item 3): how far SSIN serving
/// and training stretch beyond the paper's 123-gauge networks once the
/// shielded attention is capped at each query's k nearest observed
/// stations. Two recorded curves:
///
///  * ms-vs-L — synthetic national networks at L in {123, 1k, 5k, 10k}:
///    Prepare time, cold layout-build+serve and warm serve latency under
///    k-NN shielding (k=32), with full shielding timed alongside where it
///    is still tractable (L <= 1000). At 5k/10k full shielding is reported
///    analytically only — its packed SRPE tensor alone would be gigabytes,
///    which is precisely what the neighbor limit removes — together with
///    plan pair counts and the plan+SRPE memory they imply, so the JSON
///    carries the O(L*m) -> O(L*k) memory story explicitly. These rows
///    serve every held-out site at once, a request whose cone is the whole
///    network. From L = 1000 a catchment row follows: 6 clustered held-out
///    sites with the 3 gauges nearest to them out, under k=32, reporting
///    its cone (the rows its layout evaluates) and the pairs it resolves.
///
///  * accuracy-vs-k — one model trained with full shielding at L=1000,
///    then served through SetNeighborK sweeping k in {4, 8, 16, 32, 64,
///    full}; RMSE/MAE per k over the held-out stations shows the accuracy
///    cost of the cap (k >= num_observed is bit-identical to full by
///    construction).
///
/// Flags:
///   --smoke   tier-1 gate: an L=1000 network end-to-end — short Fit with
///             k=16, batched serving with finite outputs, plan pair count
///             within the O(L*k) bound, a catchment whose layout evaluates
///             fewer rows than L and resolves at most |S_1|*(k+1) pairs,
///             full-vs-(k>=num_observed) bit-equality on a served
///             timestamp, and a generous wall-clock sanity bound. No
///             timing thresholds.
///
/// Writes BENCH_scaling.json (override the path with
/// SSIN_BENCH_SCALING_JSON); scripts/run_bench.sh merges it into
/// BENCH_attention.json as the "scaling" block.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "common/simd.h"
#include "core/inference_engine.h"
#include "core/spatial_context.h"
#include "eval/metrics.h"

namespace {

using namespace ssin;
using namespace ssin::bench;

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

/// Legal-pair count of the *full* shielded plan: observed queries attend
/// to all m observed stations, unobserved queries to self + all observed.
int64_t FullShieldPairs(int length, int num_observed) {
  const int64_t m = num_observed;
  return m * m + static_cast<int64_t>(length - num_observed) * (m + 1);
}

/// Approximate resident bytes a plan of `pairs` legal pairs costs a served
/// sequence: the plan itself (key_index int32 + pair_rows int64 + offsets)
/// plus the packed SRPE tensor a layout retains in f64 and f32.
int64_t PlanBytes(int64_t pairs, int length) {
  return pairs * (sizeof(int32_t) + sizeof(int64_t)) +
         (length + 1) * sizeof(int64_t);
}
int64_t SrpeBytes(int64_t pairs, int d_k) {
  return pairs * d_k * (sizeof(double) + sizeof(float));
}

/// One served request: observed ids and query ids.
struct Request {
  std::vector<int> observed;
  std::vector<int> query;
};

/// One row of the ms-vs-L curve (one network size, one shielding mode, one
/// request: every held-out site, or a catchment).
struct ScalePoint {
  int length = 0;
  int num_observed = 0;
  int neighbor_k = 0;  ///< 0 = full shielding.
  bool catchment = false;
  bool timed = false;  ///< False when only the analytic sizes are reported.
  double prepare_ms = 0.0;
  double cold_ms = 0.0;  ///< First serve: layout build + predict.
  double warm_ms = 0.0;  ///< Cached-layout serve.
  int num_queries = 0;
  int cone_rows = 0;            ///< Rows the served layout evaluates (|S_0|).
  int64_t resolved_pairs = 0;   ///< Legal pairs the served layout resolves.
  int64_t pairs = 0;            ///< Legal pairs of the request's full plan.
  int64_t plan_bytes = 0;
  int64_t srpe_bytes = 0;
};

/// The ids of `candidates` nearest to station `center`, `count` of them.
std::vector<int> NearestOf(const std::vector<PointKm>& positions,
                           const std::vector<int>& candidates, int center,
                           int count) {
  std::vector<std::pair<double, int>> by_distance;
  for (int id : candidates) {
    by_distance.emplace_back(DistanceKm(positions[center], positions[id]),
                             id);
  }
  std::sort(by_distance.begin(), by_distance.end());
  std::vector<int> out;
  for (int i = 0; i < count && i < static_cast<int>(by_distance.size());
       ++i) {
    out.push_back(by_distance[i].second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every held-out site at once: the request whose cone is the network.
Request AllHeldOut(const NodeSplit& split) {
  return {split.train_ids, split.test_ids};
}

/// A catchment: the 6 held-out sites nearest to one of them queried, the 3
/// gauges nearest to it out of service.
Request Catchment(const RainfallSetup& setup) {
  const std::vector<PointKm> positions = setup.data.Positions();
  const std::vector<int>& sites = setup.split.test_ids;
  const int center = sites[sites.size() / 2];
  Request r;
  r.query = NearestOf(positions, sites, center, 6);
  const std::vector<int> down =
      NearestOf(positions, setup.split.train_ids, center, 3);
  for (int id : setup.split.train_ids) {
    if (std::find(down.begin(), down.end(), id) == down.end()) {
      r.observed.push_back(id);
    }
  }
  return r;
}

/// The layout `model` serves `r` with (a cache hit once it has served it).
std::shared_ptr<const SequenceLayout> ServedLayout(
    const SsinInterpolator& model, const Request& r) {
  std::vector<int> ids = r.observed;
  ids.insert(ids.end(), r.query.begin(), r.query.end());
  return model.layout_cache().Lookup(ids, static_cast<int>(r.observed.size()));
}

/// Builds the full plan of request `r` (observed ids, then query ids: the
/// request sequence LayoutFor keys the cache by) and returns its pair
/// count; a served layout resolves the pairs of its cone only.
int64_t CountPlanPairs(const SpatialContext& context, const Request& r,
                       int neighbor_k) {
  std::vector<int> node_ids = r.observed;
  node_ids.insert(node_ids.end(), r.query.begin(), r.query.end());
  std::vector<uint8_t> observed(node_ids.size(), 0);
  std::fill_n(observed.begin(), r.observed.size(), 1);
  SpaFormerConfig config = SpaFormerConfig::Paper();
  config.neighbor_k = neighbor_k;
  return BuildSequencePlan(config, context, node_ids, observed)->num_pairs();
}

/// Times Prepare + serving of `r` for one (L, k) mode over `setup`: the
/// first serve (layout build + predict) and the cached-layout serve.
ScalePoint TimeMode(const RainfallSetup& setup, int neighbor_k,
                    const Request& r, int warm_reps) {
  ScalePoint point;
  point.length = setup.data.num_stations();
  point.num_observed = static_cast<int>(r.observed.size());
  point.neighbor_k = neighbor_k;
  point.timed = true;
  point.num_queries = static_cast<int>(r.query.size());

  SpaFormerConfig config = SpaFormerConfig::Paper();
  config.neighbor_k = neighbor_k;
  SsinInterpolator model(config, ReducedTraining());

  SteadyClock::time_point start = SteadyClock::now();
  model.Prepare(setup.data, setup.split.train_ids);
  point.prepare_ms = MsSince(start);

  const std::vector<double> values = setup.data.Values(0);
  start = SteadyClock::now();
  model.InterpolateTimestamp(values, r.observed, r.query);
  point.cold_ms = MsSince(start);

  start = SteadyClock::now();
  for (int rep = 0; rep < warm_reps; ++rep) {
    model.InterpolateTimestamp(values, r.observed, r.query);
  }
  point.warm_ms = MsSince(start) / warm_reps;

  const std::shared_ptr<const SequenceLayout> layout = ServedLayout(model, r);
  point.cone_rows = layout->length();
  point.resolved_pairs = layout->plan->num_pairs();
  return point;
}

void FillSizes(ScalePoint* point, int64_t pairs, int d_k) {
  point->pairs = pairs;
  point->plan_bytes = PlanBytes(pairs, point->length);
  point->srpe_bytes = SrpeBytes(pairs, d_k);
}

void PrintPoint(const ScalePoint& p) {
  std::printf("%-7d %-5s %-9s %8s %12.1f %10.1f %10.1f %9d %12lld %12lld "
              "%10.1f\n",
              p.length,
              p.neighbor_k > 0 ? std::to_string(p.neighbor_k).c_str()
                               : "full",
              p.catchment ? "catchment" : "all",
              p.timed ? "timed" : "sized", p.prepare_ms, p.cold_ms, p.warm_ms,
              p.cone_rows, static_cast<long long>(p.resolved_pairs),
              static_cast<long long>(p.pairs),
              (p.plan_bytes + p.srpe_bytes) / (1024.0 * 1024.0));
  std::fflush(stdout);
}

void WritePoint(JsonWriter* json, const ScalePoint& p) {
  json->BeginObject();
  json->Key("length");
  json->Int(p.length);
  json->Key("num_observed");
  json->Int(p.num_observed);
  json->Key("neighbor_k");
  json->Int(p.neighbor_k);
  json->Key("request");
  json->String(p.catchment ? "catchment" : "all_held_out");
  json->Key("timed");
  json->Bool(p.timed);
  if (p.timed) {
    json->Key("num_queries");
    json->Int(p.num_queries);
    json->Key("prepare_ms");
    json->Number(p.prepare_ms);
    json->Key("cold_serve_ms");
    json->Number(p.cold_ms);
    json->Key("warm_serve_ms");
    json->Number(p.warm_ms);
    json->Key("cone_rows");
    json->Int(p.cone_rows);
    json->Key("resolved_pairs");
    json->Int(p.resolved_pairs);
  }
  json->Key("pairs");
  json->Int(p.pairs);
  json->Key("plan_bytes");
  json->Int(p.plan_bytes);
  json->Key("srpe_bytes");
  json->Int(p.srpe_bytes);
  json->EndObject();
}

/// One row of the accuracy-vs-k sweep.
struct AccuracyPoint {
  int neighbor_k = 0;
  int64_t pairs = 0;
  Metrics metrics;
  double serve_ms = 0.0;  ///< Mean per-timestamp batched serve.
};

bool AllFinite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  Banner("bench_scaling",
         "neighbor-limited shielding at 1k-10k stations (ROADMAP item 3)");

  const int d_k = SpaFormerConfig::Paper().d_k;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("bench_scaling");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("simd_isa");
  json.String(simd::IsaName());
#ifdef __OPTIMIZE__
  json.Key("ssin_build_type");
  json.String("release");
#else
  json.Key("ssin_build_type");
  json.String("debug");
#endif
  json.Key("dataset");
  json.String("NAT (synthetic national network)");

  if (smoke) {
    // Tier-1 gate: L=1000 end-to-end under k-NN shielding. No timing
    // thresholds beyond a generous wall-clock sanity bound — correctness
    // and the O(L*k) pair bound are the assertions.
    const SteadyClock::time_point wall_start = SteadyClock::now();
    const int kSmokeK = 16;
    RainfallSetup setup(NationalRegionConfig(1000), /*hours=*/3,
                        /*data_seed=*/31);
    const int length = setup.data.num_stations();

    SpatialContext context;
    context.Build(setup.data, setup.split.train_ids);
    const int64_t pairs = CountPlanPairs(context, AllHeldOut(setup.split), kSmokeK);
    // Every query gets at most k observed keys plus self; +2 leaves slack
    // for nothing — the bound is the O(L*k) contract.
    if (pairs > static_cast<int64_t>(length) * (kSmokeK + 2)) {
      std::printf("FAIL: k-NN plan has %lld pairs, above the L*(k+2)=%lld "
                  "bound\n",
                  static_cast<long long>(pairs),
                  static_cast<long long>(length) * (kSmokeK + 2));
      return 1;
    }

    SpaFormerConfig config = SpaFormerConfig::Paper();
    config.neighbor_k = kSmokeK;
    TrainConfig train = ReducedTraining();
    train.epochs = 1;
    train.masks_per_sequence = 1;
    train.batch_size = 8;
    train.warmup_steps = 5;
    SsinInterpolator model(config, train);

    SteadyClock::time_point start = SteadyClock::now();
    model.Fit(setup.data, setup.split.train_ids);
    const double fit_ms = MsSince(start);

    std::vector<const std::vector<double>*> batch;
    std::vector<std::vector<double>> hours;
    for (int t = 0; t < setup.data.num_timestamps(); ++t) {
      hours.push_back(setup.data.Values(t));
    }
    for (const std::vector<double>& h : hours) batch.push_back(&h);
    start = SteadyClock::now();
    const std::vector<std::vector<double>> served = model.InterpolateBatch(
        batch, setup.split.train_ids, setup.split.test_ids,
        /*num_threads=*/2);
    const double serve_ms = MsSince(start);
    for (const std::vector<double>& preds : served) {
      if (preds.size() != setup.split.test_ids.size() || !AllFinite(preds)) {
        std::printf("FAIL: smoke serve produced a malformed prediction "
                    "vector\n");
        return 1;
      }
    }

    // A catchment's layout holds only its cone: fewer rows than the
    // network, and at most k keys plus self for each row of S_1.
    const Request catchment = Catchment(setup);
    const std::vector<double> catchment_preds = model.InterpolateTimestamp(
        hours[0], catchment.observed, catchment.query);
    const std::shared_ptr<const SequenceLayout> cone =
        ServedLayout(model, catchment);
    const int64_t s1_rows = cone->length() - cone->layer_begin[1];
    if (catchment_preds.size() != catchment.query.size() ||
        !AllFinite(catchment_preds) || cone->length() >= length ||
        cone->plan->num_pairs() > s1_rows * (kSmokeK + 1)) {
      std::printf("FAIL: catchment of %zu queries served %zu values, cone "
                  "of %d rows (L=%d), %lld pairs for |S_1|=%lld\n",
                  catchment.query.size(), catchment_preds.size(),
                  cone->length(), length,
                  static_cast<long long>(cone->plan->num_pairs()),
                  static_cast<long long>(s1_rows));
      return 1;
    }

    // k >= num_observed must reproduce full shielding bit for bit, end to
    // end, at this scale too (the L=123 equivalence lives in the tests).
    model.SetNeighborK(length);
    const std::vector<double> capped = model.InterpolateTimestamp(
        hours[0], setup.split.train_ids, setup.split.test_ids);
    model.SetNeighborK(0);
    const std::vector<double> full = model.InterpolateTimestamp(
        hours[0], setup.split.train_ids, setup.split.test_ids);
    if (capped != full) {
      std::printf("FAIL: k=%d serving differs from full shielding at "
                  "L=%d\n", length, length);
      return 1;
    }

    const double wall_s = MsSince(wall_start) / 1000.0;
    if (wall_s > 600.0) {
      std::printf("FAIL: smoke took %.0fs, above the 600s sanity bound\n",
                  wall_s);
      return 1;
    }
    std::printf("smoke: L=%d k=%d fit %.0fms, %d timestamps served in "
                "%.0fms, %lld plan pairs (<= L*(k+2)), catchment cone %d "
                "rows / %lld pairs, k>=m bit-identical to full, wall "
                "%.1fs\n",
                length, kSmokeK, fit_ms, setup.data.num_timestamps(),
                serve_ms, static_cast<long long>(pairs), cone->length(),
                static_cast<long long>(cone->plan->num_pairs()), wall_s);

    json.Key("smoke_result");
    json.BeginObject();
    json.Key("length");
    json.Int(length);
    json.Key("neighbor_k");
    json.Int(kSmokeK);
    json.Key("fit_ms");
    json.Number(fit_ms);
    json.Key("batch_serve_ms");
    json.Number(serve_ms);
    json.Key("pairs");
    json.Int(pairs);
    json.Key("catchment_cone_rows");
    json.Int(cone->length());
    json.Key("catchment_pairs");
    json.Int(cone->plan->num_pairs());
    json.EndObject();
  }

  std::vector<ScalePoint> curve;
  if (!smoke) {
    const int kNeighborK = 32;
    json.Key("neighbor_k");
    json.Int(static_cast<int64_t>(kNeighborK));
    std::printf("%-7s %-5s %-9s %8s %12s %10s %10s %9s %12s %12s %10s\n",
                "L", "k", "request", "mode", "prepare_ms", "cold_ms",
                "warm_ms", "cone_rows", "resolved", "plan_pairs", "mem_mb");
    for (int length : {123, 1000, 5000, 10000}) {
      RainfallSetup setup(NationalRegionConfig(length), /*hours=*/3,
                          /*data_seed=*/41);
      SpatialContext context;
      context.Build(setup.data, setup.split.train_ids);
      const int num_observed =
          static_cast<int>(setup.split.train_ids.size());

      // Full shielding: timed while its packed SRPE tensor is still small
      // enough to be sensible; above that the analytic O(L*m) sizes alone
      // make the case (at L=10k the SRPE tensor would be ~12 GB).
      ScalePoint full;
      if (length <= 1000) {
        full = TimeMode(setup, /*neighbor_k=*/0, AllHeldOut(setup.split),
                        /*warm_reps=*/5);
      } else {
        full.length = length;
        full.num_observed = num_observed;
        full.neighbor_k = 0;
        full.timed = false;
      }
      FillSizes(&full, FullShieldPairs(length, num_observed), d_k);
      PrintPoint(full);
      curve.push_back(full);

      const Request all = AllHeldOut(setup.split);
      ScalePoint knn = TimeMode(setup, kNeighborK, all,
                                /*warm_reps=*/length >= 5000 ? 2 : 5);
      FillSizes(&knn, CountPlanPairs(context, all, kNeighborK), d_k);
      PrintPoint(knn);
      curve.push_back(knn);

      if (length >= 1000) {
        const Request r = Catchment(setup);
        ScalePoint catchment = TimeMode(setup, kNeighborK, r,
                                        /*warm_reps=*/20);
        catchment.catchment = true;
        FillSizes(&catchment, CountPlanPairs(context, r, kNeighborK), d_k);
        PrintPoint(catchment);
        curve.push_back(catchment);
      }
    }
  }
  json.Key("ms_vs_l");
  json.BeginArray();
  for (const ScalePoint& point : curve) WritePoint(&json, point);
  json.EndArray();

  std::vector<AccuracyPoint> accuracy;
  int accuracy_length = 0;
  if (!smoke) {
    // Accuracy-vs-k: one model trained with full shielding at L=1000,
    // then served with the neighbor cap swept at runtime (SetNeighborK
    // changes plan construction only, so the weights are held fixed and
    // the sweep isolates the serving-time approximation).
    const int hours = Scaled(16);
    RainfallSetup setup(NationalRegionConfig(1000), hours, /*data_seed=*/51);
    accuracy_length = setup.data.num_stations();
    SpatialContext context;
    context.Build(setup.data, setup.split.train_ids);

    // At L=1000 each sequence carries ~200x the supervision of a 123-gauge
    // hour, so far fewer sequences and epochs suffice — but the step count
    // is tiny (4 batches/epoch), so the warmup must shrink with it or the
    // learning rate never ramps and the model stays at its clamped-zero
    // initialization (which would make every k look identical).
    TrainConfig train = ReducedTraining();
    train.epochs = Scaled(4);
    train.batch_size = 8;
    train.warmup_steps = 4;
    SsinInterpolator model(SpaFormerConfig::Paper(), train);
    std::printf("training full-shielding reference at L=%d (%d hours, %d "
                "epochs)...\n", accuracy_length, hours, train.epochs);
    std::fflush(stdout);
    model.Fit(setup.data, setup.split.train_ids);

    std::vector<std::vector<double>> hours_values;
    std::vector<const std::vector<double>*> batch;
    for (int t = 0; t < setup.data.num_timestamps(); ++t) {
      hours_values.push_back(setup.data.Values(t));
    }
    for (const std::vector<double>& h : hours_values) batch.push_back(&h);

    std::printf("%-5s %12s %10s %10s %12s\n", "k", "pairs", "rmse", "mae",
                "serve_ms/ts");
    for (int k : {4, 8, 16, 32, 64, 0}) {
      model.SetNeighborK(k);
      const SteadyClock::time_point start = SteadyClock::now();
      const std::vector<std::vector<double>> served = model.InterpolateBatch(
          batch, setup.split.train_ids, setup.split.test_ids,
          /*num_threads=*/2);
      const double total_ms = MsSince(start);
      MetricsAccumulator acc;
      for (size_t t = 0; t < served.size(); ++t) {
        for (size_t q = 0; q < setup.split.test_ids.size(); ++q) {
          acc.Add(hours_values[t][setup.split.test_ids[q]], served[t][q]);
        }
      }
      AccuracyPoint point;
      point.neighbor_k = k;
      point.pairs = CountPlanPairs(context, AllHeldOut(setup.split), k);
      point.metrics = acc.Compute();
      point.serve_ms = total_ms / served.size();
      std::printf("%-5s %12lld %10.4f %10.4f %12.2f\n",
                  k > 0 ? std::to_string(k).c_str() : "full",
                  static_cast<long long>(point.pairs), point.metrics.rmse,
                  point.metrics.mae, point.serve_ms);
      std::fflush(stdout);
      accuracy.push_back(point);
    }
  }
  json.Key("accuracy_vs_k");
  json.BeginObject();
  json.Key("length");
  json.Int(static_cast<int64_t>(accuracy_length));
  json.Key("points");
  json.BeginArray();
  for (const AccuracyPoint& point : accuracy) {
    json.BeginObject();
    json.Key("neighbor_k");
    json.Int(static_cast<int64_t>(point.neighbor_k));
    json.Key("pairs");
    json.Int(point.pairs);
    json.Key("rmse");
    json.Number(point.metrics.rmse);
    json.Key("mae");
    json.Number(point.metrics.mae);
    json.Key("serve_ms_per_timestamp");
    json.Number(point.serve_ms);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();

  const char* json_path = std::getenv("SSIN_BENCH_SCALING_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_scaling.json";
  if (WriteFile(out_path, json.str() + "\n")) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
