// The live band's full rebuild is its own span: with tracing on, every
// increment of LiveCounters::band_rebuilds records exactly one
// live.band_rebuild event, so the rebuild's time shows up in traces instead
// of hiding in live.apply_batch's self time.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "live/live_engine.h"
#include "obs/trace.h"

namespace utk {
namespace {

struct TraceSandbox {
  TraceSandbox() {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
  }
  ~TraceSandbox() {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
  }
};

TEST(LiveBandTrace, OneSpanPerBandRebuild) {
  TraceSandbox sandbox;
  // The deletion-heavy, slack-2 trace of
  // LiveEngine.CounterSaturationTriggersRebuildAndStaysExact.
  LiveConfig config;
  config.band_k = 4;
  config.band_slack = 2;
  LiveEngine live(Generate(Distribution::kIndependent, 100, 3, 23), config);
  UpdateTraceOptions opt;
  opt.seed = 5;
  opt.insert_fraction = 0.3;
  const std::vector<UpdateOp> trace = MakeUpdateTrace(
      Generate(Distribution::kIndependent, 100, 3, 23), 60, opt);

  const int64_t rebuilds_before = live.counters().band_rebuilds;
  obs::SetTracingEnabled(true);
  for (const UpdateOp& op : trace) live.ApplyBatch({&op, 1});
  obs::SetTracingEnabled(false);
  const int64_t rebuilds = live.counters().band_rebuilds - rebuilds_before;

  int64_t spans = 0;
  for (const obs::TraceEvent& e : obs::TraceSnapshot())
    if (std::strcmp(e.name, "live.band_rebuild") == 0) ++spans;
  ASSERT_EQ(obs::TraceDroppedCount(), 0);
  EXPECT_GT(rebuilds, 0) << "a slack-2 band must rebuild on this trace";
  EXPECT_EQ(spans, rebuilds);
}

}  // namespace
}  // namespace utk
