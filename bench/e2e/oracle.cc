#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>

namespace e2e {
namespace {

// The coordinate-wise extremes of the box: score(w) = a_d + sum c_i w_i
// with c_i = a_i - a_d, so each term is smallest at lo_i or hi_i.
void ScoreRange(const double* a, int dim, const Vec& lo, const Vec& hi,
                double* min_out, double* max_out) {
  const double ad = a[dim - 1];
  double mn = ad, mx = ad;
  for (int i = 0; i + 1 < dim; ++i) {
    const double c = a[i] - ad;
    const double x = c * lo[i], y = c * hi[i];
    mn += std::min(x, y);
    mx += std::max(x, y);
  }
  *min_out = mn;
  *max_out = mx;
}

Vec SamplePoint(const BoxQuery& q, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Vec w(q.lo.size());
  for (size_t i = 0; i < w.size(); ++i)
    w[i] = q.lo[i] + u(rng) * (q.hi[i] - q.lo[i]);
  return w;
}

std::vector<Vec> Corners(const BoxQuery& q) {
  const int d = static_cast<int>(q.lo.size());
  std::vector<Vec> out;
  for (int mask = 0; mask < (1 << d); ++mask) {
    Vec w(d);
    for (int i = 0; i < d; ++i) w[i] = (mask >> i & 1) ? q.hi[i] : q.lo[i];
    out.push_back(w);
  }
  return out;
}

std::string VecText(const Vec& w) {
  std::string s;
  char buf[32];
  for (double x : w) {
    std::snprintf(buf, sizeof buf, "%s%.6f", s.empty() ? "" : ",", x);
    s += buf;
  }
  return s;
}

bool SortedContains(const std::vector<int32_t>& sorted, int32_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

}  // namespace

Mirror::Mirror(const utk::Dataset& data)
    : dim_(data.empty() ? 0 : data.front().Dim()) {
  attrs_.reserve(data.size() * dim_);
  alive_.reserve(data.size());
  for (const utk::Record& r : data) Insert(r.id, r.attrs);
}

void Mirror::Insert(int32_t id, const Vec& attrs) {
  if (id == size()) {
    attrs_.insert(attrs_.end(), attrs.begin(), attrs.end());
    alive_.push_back(0);
  }
  std::copy(attrs.begin(), attrs.end(), attrs_.begin() + size_t(id) * dim_);
  if (!alive_[id]) ++live_;
  alive_[id] = 1;
}

void Mirror::Erase(int32_t id) {
  if (alive_[id]) --live_;
  alive_[id] = 0;
}

double Score(const double* a, int dim, const Vec& w) {
  const double ad = a[dim - 1];
  double s = ad;
  for (int i = 0; i + 1 < dim; ++i) s += w[i] * (a[i] - ad);
  return s;
}

std::vector<int32_t> KSkyband(const Mirror& m, int k) {
  const int d = m.dim();
  std::vector<std::pair<double, int32_t>> order;
  for (int32_t id = 0; id < m.size(); ++id) {
    if (!m.alive(id)) continue;
    double sum = 0.0;
    for (int j = 0; j < d; ++j) sum += m.row(id)[j];
    order.emplace_back(-sum, id);
  }
  std::sort(order.begin(), order.end());
  std::vector<int32_t> band;
  for (const auto& [neg_sum, id] : order) {
    const double* p = m.row(id);
    int dominators = 0;
    for (size_t b = 0; b < band.size() && dominators < k; ++b) {
      const double* q = m.row(band[b]);
      bool ge = true, gt = false;
      for (int j = 0; j < d && ge; ++j) {
        ge = q[j] >= p[j];
        gt = gt || q[j] > p[j];
      }
      if (ge && gt) ++dominators;
    }
    if (dominators < k) band.push_back(id);
  }
  std::sort(band.begin(), band.end());
  return band;
}

std::vector<int32_t> BoxCandidates(const Mirror& m,
                                   const std::vector<int32_t>* rows,
                                   const Vec& lo, const Vec& hi, int k) {
  std::vector<int32_t> all;
  if (rows == nullptr) {
    for (int32_t id = 0; id < m.size(); ++id)
      if (m.alive(id)) all.push_back(id);
    rows = &all;
  }
  // k-th largest box-minimum score: at every w in the box at least k
  // records score this much or more.
  std::priority_queue<double, std::vector<double>, std::greater<double>> top;
  std::vector<double> mx(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    double lo_s, hi_s;
    ScoreRange(m.row((*rows)[i]), m.dim(), lo, hi, &lo_s, &hi_s);
    mx[i] = hi_s;
    if (static_cast<int>(top.size()) < k) {
      top.push(lo_s);
    } else if (lo_s > top.top()) {
      top.pop();
      top.push(lo_s);
    }
  }
  // Slack covers BruteTopK's flip test too: a pruned record stays further
  // below the k-th score than any member-to-non-member gradient (at most
  // 2 sqrt(d - 1) for attributes in [0, 1]) can close within kFlipMargin.
  const double slack =
      kTieTol + 2.0 * std::sqrt(double(m.dim() - 1)) * kFlipMargin;
  const double floor =
      static_cast<int>(top.size()) < k ? -1e300 : top.top() - slack;
  std::vector<int32_t> cand;
  for (size_t i = 0; i < rows->size(); ++i)
    if (mx[i] >= floor) cand.push_back((*rows)[i]);
  return cand;
}

bool BruteTopK(const Mirror& m, const std::vector<int32_t>& cand,
               const Vec& w, int k, std::vector<int32_t>* out) {
  const int d = m.dim();
  std::vector<std::pair<double, int32_t>> scored;
  scored.reserve(cand.size());
  for (int32_t id : cand) scored.emplace_back(Score(m.row(id), d, w), id);
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (scored.size() > size_t(k)) {
    // Gradient of score_a - score_b in the reduced weights:
    // (a_i - a_d) - (b_i - b_d), at most 2 sqrt(d - 1) in norm.
    const double reach = kTieTol + 2.0 * std::sqrt(double(d - 1)) * kFlipMargin;
    const double kth = scored[k - 1].first;
    for (int i = k - 1; i >= 0 && scored[i].first - scored[k].first <= reach; --i) {
      const double* a = m.row(scored[i].second);
      for (size_t j = k; j < scored.size() && kth - scored[j].first <= reach; ++j) {
        const double* b = m.row(scored[j].second);
        double norm2 = 0.0;
        for (int x = 0; x + 1 < d; ++x) {
          const double g = (a[x] - a[d - 1]) - (b[x] - b[d - 1]);
          norm2 += g * g;
        }
        if (scored[i].first - scored[j].first <=
            kTieTol + kFlipMargin * std::sqrt(norm2))
          return false;
      }
    }
  }
  out->clear();
  for (size_t i = 0; i < std::min(scored.size(), size_t(k)); ++i)
    out->push_back(scored[i].second);
  std::sort(out->begin(), out->end());
  return true;
}

BoxQuery MakeBoxQuery(const Mirror& m, const std::vector<int32_t>* rows,
                      const Vec& lo, const Vec& hi, int k) {
  BoxQuery q;
  q.lo = lo;
  q.hi = hi;
  q.k = k;
  q.cand = BoxCandidates(m, rows, lo, hi, k);
  return q;
}

std::string CheckUtk1(const Mirror& m, const BoxQuery& q,
                      const std::vector<int32_t>& ids, int samples,
                      std::mt19937_64& rng, OracleTally* tally) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!m.alive(ids[i])) return "id " + std::to_string(ids[i]) + " not live";
    if (i > 0 && ids[i] <= ids[i - 1]) return "ids not ascending and unique";
  }
  std::vector<Vec> points = Corners(q);
  for (int s = 0; s < samples; ++s) points.push_back(SamplePoint(q, rng));
  std::vector<int32_t> top;
  for (const Vec& w : points) {
    ++tally->points;
    if (!BruteTopK(m, q.cand, w, q.k, &top)) {
      ++tally->ties;
      continue;
    }
    for (int32_t id : top)
      if (!SortedContains(ids, id))
        return "top-k member " + std::to_string(id) + " at w=(" + VecText(w) +
               ") missing from the answer";
  }
  return "";
}

std::string CheckUtk2(const Mirror& m, const BoxQuery& q,
                      const std::vector<utk::Utk2Cell>& cells,
                      const std::vector<int32_t>* union_ids, int samples,
                      std::mt19937_64& rng, OracleTally* tally) {
  if (cells.empty()) return "no cells";
  auto inside = [](const utk::Utk2Cell& cell, const Vec& w) {
    for (const utk::Halfspace& h : cell.bounds) {
      double lhs = 0.0;
      for (size_t i = 0; i < w.size(); ++i) lhs += h.a[i] * w[i];
      if (lhs > h.b + kTieTol) return false;
    }
    return true;
  };
  auto in_box = [&](const Vec& w) {
    for (size_t i = 0; i < w.size(); ++i)
      if (w[i] < q.lo[i] - kTieTol || w[i] > q.hi[i] + kTieTol) return false;
    return true;
  };
  std::vector<std::vector<int32_t>> sets;
  std::vector<int32_t> all;
  std::vector<int32_t> top;
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<int32_t> set = cells[c].topk;
    std::sort(set.begin(), set.end());
    all.insert(all.end(), set.begin(), set.end());
    const Vec& w = cells[c].witness;
    const std::string where = "cell " + std::to_string(c) + " witness (" +
                              VecText(w) + ")";
    if (w.size() != q.lo.size() || !in_box(w) || !inside(cells[c], w))
      return where + " outside its cell or the region";
    ++tally->points;
    if (!BruteTopK(m, q.cand, w, q.k, &top)) {
      ++tally->ties;
    } else if (top != set) {
      return where + ": brute-force top-k differs from the cell's set";
    }
    sets.push_back(std::move(set));
  }
  for (int s = 0; s < samples; ++s) {
    const Vec w = SamplePoint(q, rng);
    ++tally->points;
    if (!BruteTopK(m, q.cand, w, q.k, &top)) {
      ++tally->ties;
      continue;
    }
    bool covered = false, matched = false;
    for (size_t c = 0; c < cells.size() && !matched; ++c) {
      if (!inside(cells[c], w)) continue;
      covered = true;
      matched = sets[c] == top;
    }
    if (!matched)
      return "sample (" + VecText(w) + ") " +
             (covered ? "lies only in cells with another top-k set"
                      : "lies in no cell");
  }
  if (union_ids != nullptr) {
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    if (all != *union_ids)
      return "answer (" + std::to_string(union_ids->size()) +
             " ids) is not the union of the UTK2 cells' sets (" +
             std::to_string(all.size()) + " ids)";
  }
  return "";
}

}  // namespace e2e
