#include "skyline/live_band.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "skyline/dominance.h"

namespace utk {

int CountStrongDominators(const Dataset& data, const RTree& tree,
                          const Record& rec, int cap) {
  if (tree.empty() || cap <= 0) return 0;
  int count = 0;
  std::vector<int32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const RTreeNode& n = tree.node(stack.back());
    stack.pop_back();
    // A strong dominator exceeds rec in every dimension by > kEps, so the
    // subtree is only worth visiting when its top corner does.
    if (!StronglyDominates(n.mbb.TopCorner(), rec.attrs, kEps)) continue;
    if (n.is_leaf) {
      for (int32_t rid : n.record_ids) {
        if (rid == rec.id) continue;
        if (StronglyDominates(data[rid].attrs, rec.attrs, kEps) &&
            ++count >= cap)
          return cap;
      }
    } else {
      for (int32_t child : n.entries) stack.push_back(child);
    }
  }
  return count;
}

LiveSkyband::LiveSkyband(int k, int slack)
    : k_(k), cap_(k + std::max(slack, 1)), slack_(std::max(slack, 1)) {
  assert(k >= 1);
}

void LiveSkyband::Rebuild(const Dataset& data, const RTree& tree) {
  UTK_SPAN_VAL("live.band_rebuild", tree.num_records());
  count_.clear();
  deletes_since_rebuild_ = 0;
  ++rebuilds_;
  if (tree.empty()) return;
  std::vector<int32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const RTreeNode& n = tree.node(stack.back());
    stack.pop_back();
    if (n.is_leaf) {
      for (int32_t rid : n.record_ids) {
        const int c = CountStrongDominators(data, tree, data[rid], cap_);
        if (c < cap_) count_.emplace(rid, c);
      }
    } else {
      for (int32_t child : n.entries) stack.push_back(child);
    }
  }
}

void LiveSkyband::Insert(const Dataset& data, const RTree& tree, int32_t id) {
  const Record& rec = data[id];
  // Demote the tracked records the newcomer strongly dominates.
  for (auto it = count_.begin(); it != count_.end();) {
    if (it->first != id &&
        StronglyDominates(rec.attrs, data[it->first].attrs, kEps) &&
        ++it->second >= cap_) {
      it = count_.erase(it);  // saturated: exactness ends here
    } else {
      ++it;
    }
  }
  const int c = CountStrongDominators(data, tree, rec, cap_);
  if (c < cap_) count_[id] = c;
}

bool LiveSkyband::Erase(const Dataset& data, int32_t id) {
  if (deletes_since_rebuild_ >= slack_) return false;
  ++deletes_since_rebuild_;
  count_.erase(id);
  // Promote the tracked records the deleted one shielded.
  const Record& rec = data[id];
  for (auto& [pid, c] : count_) {
    if (StronglyDominates(rec.attrs, data[pid].attrs, kEps)) --c;
  }
  return true;
}

std::vector<int32_t> LiveSkyband::BandIds() const {
  std::vector<int32_t> ids;
  ids.reserve(count_.size());
  for (const auto& [id, c] : count_)
    if (c < k_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool LiveSkyband::Contains(int32_t id) const {
  auto it = count_.find(id);
  return it != count_.end() && it->second < k_;
}

int64_t LiveSkyband::band_size() const {
  int64_t n = 0;
  for (const auto& [id, c] : count_)
    if (c < k_) ++n;
  return n;
}

}  // namespace utk
