#include "core/extensions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>

#include "core/naive.h"
#include "core/topk.h"
#include "geometry/linear.h"
#include "index/rtree.h"
#include "skyline/skyband.h"

namespace utk {

ImmutableRegionResult ImmutableRegion(const Dataset& data, const Vec& w,
                                      int k, bool prune) {
  ImmutableRegionResult out;
  Timer timer;
  out.topk = TopK(data, w, k);
  std::set<int32_t> top_set(out.topk.begin(), out.topk.end());

  // Challenger pool: records that could overtake a top-k member somewhere.
  // Any record q outside the (k+1)-skyband is dominated by more than k
  // others; wherever q would outscore a top-k member t, so would its k+1
  // dominators, and at least one of them lies outside the top-k set — whose
  // pairwise constraint is already part of the intersection. Hence the
  // (k+1)-skyband challengers define the same region.
  std::vector<int32_t> challengers;
  if (prune) {
    const RTree tree = RTree::BulkLoad(data);
    const ColumnStore cols(data);
    for (int32_t id : KSkyband(cols, tree, k + 1, &out.stats)) {
      if (top_set.count(id) == 0) challengers.push_back(id);
    }
  } else {
    for (const Record& q : data) {
      if (top_set.count(q.id) == 0) challengers.push_back(q.id);
    }
  }

  // The region: every member stays >= every challenger. The domain simplex
  // bounds keep the region closed.
  const int pref_dim = DataDim(data) - 1;
  ConvexRegion region = ConvexRegion::FullDomain(pref_dim);
  for (int32_t t : out.topk) {
    for (int32_t q : challengers) {
      Halfspace h = BetterOrEqual(data[t], data[q]);
      if (!IsTrivial(h)) region.AddConstraint(h);
    }
  }
  out.region = std::move(region);
  assert(out.region.Contains(w, 1e-7));
  out.stats.elapsed_ms = timer.ElapsedMs();
  return out;
}

KsprResult MonochromaticReverseTopK(const Dataset& data, int32_t p,
                                    const ConvexRegion& r, int k,
                                    QueryStats* stats) {
  const RTree tree = RTree::BulkLoad(data);
  std::vector<int32_t> cands = KSkyband(ColumnStore(data), tree, k, stats);
  // p itself may be outside the k-skyband (then it can never qualify, and
  // kSPR will correctly report no cells).
  return Kspr(data, p, cands, r, k, /*early_exit=*/false, stats);
}

std::vector<RobustnessEntry> RobustnessScores(const Dataset& data,
                                              const ConvexRegion& region,
                                              int k,
                                              const std::vector<int32_t>& utk1,
                                              int samples, uint64_t seed) {
  std::map<int32_t, int> hits;
  for (int32_t id : utk1) hits[id] = 0;
  auto probes = SampleTopkSets(data, region, k, samples, seed);
  for (const auto& [w, topk] : probes) {
    for (int32_t id : topk) {
      auto it = hits.find(id);
      if (it != hits.end()) ++it->second;
    }
  }
  std::vector<RobustnessEntry> out;
  out.reserve(hits.size());
  const double denom = probes.empty() ? 1.0 : static_cast<double>(probes.size());
  for (const auto& [id, count] : hits)
    out.push_back({id, static_cast<double>(count) / denom});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.fraction != b.fraction) return a.fraction > b.fraction;
    return a.id < b.id;
  });
  return out;
}

Dataset ApplyPowerTransform(const Dataset& data, Scalar exponent) {
  assert(exponent > 0.0);
  Dataset out = data;
  for (Record& rec : out) {
    for (Scalar& v : rec.attrs) {
      assert(v >= 0.0 && "power transform requires non-negative attributes");
      v = std::pow(v, exponent);
    }
  }
  return out;
}

}  // namespace utk
