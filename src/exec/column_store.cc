#include "exec/column_store.h"

#include <algorithm>
#include <cassert>

namespace utk {

ColumnStore::ColumnStore(const Dataset& data) {
  if (data.empty()) return;
  dim_ = DataDim(data);
  n_ = static_cast<int32_t>(data.size());
  cols_.resize(dim_);
  for (int d = 0; d < dim_; ++d) {
    cols_[d].resize(data.size());
    Scalar* out = cols_[d].data();
    for (size_t i = 0; i < data.size(); ++i) out[i] = data[i].attrs[d];
  }
  RebuildZonemaps();
}

ColumnStore::ColumnStore(const Dataset& data, std::span<const int32_t> ids) {
  if (data.empty() || ids.empty()) return;
  dim_ = DataDim(data);
  n_ = static_cast<int32_t>(ids.size());
  cols_.resize(dim_);
  for (int d = 0; d < dim_; ++d) {
    cols_[d].resize(ids.size());
    Scalar* out = cols_[d].data();
    for (size_t j = 0; j < ids.size(); ++j) out[j] = data[ids[j]].attrs[d];
  }
  RebuildZonemaps();
}

ColumnStore ColumnStore::Borrow(std::vector<const Scalar*> cols, int dim,
                                int32_t n) {
  assert(static_cast<int>(cols.size()) == dim);
  ColumnStore cs;
  cs.dim_ = dim;
  cs.n_ = n;
  cs.borrowed_ = std::move(cols);
  return cs;
}

ColumnStore ColumnStore::Borrow(std::vector<const Scalar*> cols, int dim,
                                int32_t n,
                                std::vector<ZoneEntry> col_zones) {
  assert(static_cast<int>(col_zones.size()) == dim);
  ColumnStore cs = Borrow(std::move(cols), dim, n);
  if (n > 0) {
    cs.zone_rows_ = n;  // the footer covers the whole segment: one block
    cs.zones_.resize(dim);
    for (int d = 0; d < dim; ++d) cs.zones_[d].assign(1, col_zones[d]);
  }
  return cs;
}

Vec ColumnStore::Row(int32_t row) const {
  Vec attrs(dim_);
  for (int d = 0; d < dim_; ++d) attrs[d] = at(row, d);
  return attrs;
}

void ColumnStore::SetRow(int32_t row, const Vec& attrs) {
  assert(borrowed_.empty() && "borrowed ColumnStore views are read-only");
  if (dim_ == 0) {
    dim_ = static_cast<int>(attrs.size());
    cols_.resize(dim_);
    zones_.resize(dim_);
    zone_rows_ = kZoneRows;
  }
  assert(static_cast<int>(attrs.size()) == dim_);
  assert(row >= 0 && row <= n_);
  const int32_t block = row / kZoneRows;
  if (row == n_) {
    for (int d = 0; d < dim_; ++d) cols_[d].push_back(attrs[d]);
    ++n_;
    for (int d = 0; d < dim_; ++d) {
      if (block == static_cast<int32_t>(zones_[d].size())) {
        zones_[d].push_back(ZoneEntry{attrs[d], attrs[d]});
      } else {
        ZoneEntry& z = zones_[d][block];
        z.min = std::min(z.min, attrs[d]);
        z.max = std::max(z.max, attrs[d]);
      }
    }
  } else {
    // Overwrite: widen-only maintenance. The old value's contribution is
    // not retracted — the bounds stay sound but may be loose until
    // RebuildZonemaps() retightens them.
    for (int d = 0; d < dim_; ++d) {
      cols_[d][row] = attrs[d];
      ZoneEntry& z = zones_[d][block];
      z.min = std::min(z.min, attrs[d]);
      z.max = std::max(z.max, attrs[d]);
    }
  }
}

void ColumnStore::Clear() {
  dim_ = 0;
  n_ = 0;
  zone_rows_ = 0;
  cols_.clear();
  borrowed_.clear();
  zones_.clear();
}

void ColumnStore::RebuildZonemaps() {
  if (!borrowed_.empty()) return;  // borrowed zones come from the footer
  zone_rows_ = kZoneRows;
  zones_.assign(dim_, {});
  for (int d = 0; d < dim_; ++d) {
    const Scalar* c = cols_[d].data();
    const int32_t blocks = (n_ + kZoneRows - 1) / kZoneRows;
    zones_[d].reserve(blocks);
    for (int32_t b = 0; b < blocks; ++b) {
      const int32_t lo = b * kZoneRows;
      const int32_t hi = std::min<int32_t>(lo + kZoneRows, n_);
      ZoneEntry z{c[lo], c[lo]};
      for (int32_t i = lo + 1; i < hi; ++i) {
        z.min = std::min(z.min, c[i]);
        z.max = std::max(z.max, c[i]);
      }
      zones_[d].push_back(z);
    }
  }
}

std::optional<Scalar> ColumnStore::ZoneUpperBound(const Vec& w, int32_t begin,
                                                  int32_t end) const {
  if (zones_.empty() || zone_rows_ <= 0 || begin >= end) return std::nullopt;
  assert(static_cast<int>(w.size()) == dim_ - 1);
  assert(begin >= 0 && end <= n_);
  // The monotonicity argument needs w >= 0 (true for preference weights —
  // every query vector lives in the simplex); bail rather than mis-skip if
  // a caller ever feeds something else.
  for (const Scalar wi : w) {
    if (!(wi >= 0.0)) return std::nullopt;
  }
  const int32_t b0 = begin / zone_rows_;
  const int32_t b1 = (end - 1) / zone_rows_;
  const std::vector<ZoneEntry>& zl = zones_[dim_ - 1];
  if (b1 >= static_cast<int32_t>(zl.size())) return std::nullopt;
  Scalar min_last = zl[b0].min;
  Scalar ub = zl[b0].max;
  for (int32_t b = b0 + 1; b <= b1; ++b) {
    min_last = std::min(min_last, zl[b].min);
    ub = std::max(ub, zl[b].max);
  }
  // Same accumulation order as ScoreRange: init from the last column, one
  // multiply-then-add per preference dimension. Per IEEE rounding
  // monotonicity each partial sum dominates every row's partial sum, so
  // no row in [begin, end) can score above the result.
  for (int i = 0; i < dim_ - 1; ++i) {
    Scalar max_i = zones_[i][b0].max;
    for (int32_t b = b0 + 1; b <= b1; ++b)
      max_i = std::max(max_i, zones_[i][b].max);
    ub += w[i] * (max_i - min_last);
  }
  return ub;
}

}  // namespace utk
