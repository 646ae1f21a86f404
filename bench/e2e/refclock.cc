#include "refclock.h"

#include "common/stats.h"

namespace e2e {
namespace {

constexpr int kChains = 8;
constexpr int kIterations = 200000;

// Seeds and sink live in memory the compiler cannot see through, so the
// loop is neither folded nor removed.
volatile double g_seed = 1.0;
volatile double g_sink = 0.0;

}  // namespace

double TimeRefLoop() {
  double x[kChains];
  const double mul = 0.9999999 * g_seed;
  const double add = 1e-7 * g_seed;
  for (int c = 0; c < kChains; ++c) x[c] = g_seed + c;
  utk::Timer timer;
  // Eight independent multiply-add chains: enough in flight to keep the FP
  // units busy (throughput-bound), no memory traffic beyond registers.
  for (int i = 0; i < kIterations; ++i) {
    for (int c = 0; c < kChains; ++c) x[c] = x[c] * mul + add;
  }
  const double ms = timer.ElapsedMs();
  double sum = 0.0;
  for (int c = 0; c < kChains; ++c) sum += x[c];
  g_sink = sum;
  return ms;
}

RefClock::RefClock() { loops_.push_back(TimeRefLoop()); }

double RefClock::Close() {
  const double before = loops_.back();
  loops_.push_back(TimeRefLoop());
  return kRefLoopNominalMs / (0.5 * (before + loops_.back()));
}

}  // namespace e2e
