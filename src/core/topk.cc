#include "core/topk.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "exec/kernels.h"
#include "geometry/linear.h"

namespace utk {

std::vector<int32_t> TopK(const Dataset& data, const Vec& w, int k) {
  std::vector<std::pair<Scalar, int32_t>> scored;
  scored.reserve(data.size());
  for (const Record& p : data) scored.emplace_back(Score(p, w), p.id);
  const int kk = std::min<int>(k, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<int32_t> out;
  out.reserve(kk);
  for (int i = 0; i < kk; ++i) out.push_back(scored[i].second);
  return out;
}

std::vector<int32_t> TopKRTree(const ColumnStore& cols, const RTree& tree,
                               const Vec& w, int k, QueryStats* stats) {
  std::vector<int32_t> out;
  if (tree.empty() || k <= 0) return out;
  std::vector<Scalar> leaf_scores;

  struct Entry {
    Scalar key;
    bool is_record;
    int32_t id;
    bool operator<(const Entry& o) const {
      if (key != o.key) return key < o.key;
      // On key ties, expand nodes before emitting records so every
      // tied-score record is in the heap before any one is reported, then
      // report smaller ids first (matches TopK's deterministic tie-break).
      if (is_record != o.is_record) return is_record > o.is_record;
      return id > o.id;
    }
  };
  auto corner_score = [&](const Vec& corner) {
    Record tmp;
    tmp.attrs = corner;
    return Score(tmp, w);
  };

  std::priority_queue<Entry> heap;
  heap.push({corner_score(tree.node(tree.root()).mbb.TopCorner()), false,
             tree.root()});
  while (!heap.empty() && static_cast<int>(out.size()) < k) {
    Entry e = heap.top();
    heap.pop();
    if (stats != nullptr) ++stats->heap_pops;
    if (e.is_record) {
      out.push_back(e.id);
      continue;
    }
    const RTreeNode& node = tree.node(e.id);
    if (node.is_leaf) {
      leaf_scores.resize(node.record_ids.size());
      ScoreBatch(cols, w, node.record_ids, leaf_scores.data());
      for (size_t i = 0; i < node.record_ids.size(); ++i)
        heap.push({leaf_scores[i], true, node.record_ids[i]});
    } else {
      for (int32_t child : node.entries)
        heap.push({corner_score(tree.node(child).mbb.TopCorner()), false,
                   child});
    }
  }
  return out;
}

IncrementalTopK::IncrementalTopK(const Dataset& data, const Vec& w) {
  std::vector<std::pair<Scalar, int32_t>> scored;
  scored.reserve(data.size());
  for (const Record& p : data) scored.emplace_back(Score(p, w), p.id);
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  order_.reserve(scored.size());
  for (const auto& [s, id] : scored) order_.push_back(id);
}

int IncrementalTopK::PrefixCovering(const std::vector<int32_t>& targets) const {
  std::unordered_set<int32_t> want(targets.begin(), targets.end());
  int covered = 0;
  for (int i = 0; i < static_cast<int>(order_.size()); ++i) {
    if (want.count(order_[i]) != 0 &&
        ++covered == static_cast<int>(want.size())) {
      return i + 1;
    }
  }
  return want.empty() ? 0 : -1;
}

}  // namespace utk
