// Envelope parity across every QueryEngine: the immutable Engine, a fresh
// and an updated LiveEngine, a MappedEngine over a segment with tombstones,
// and a 2-shard x 2-tile PartitionedEngine answer the same specs with
//
//   * the identical Validate diagnostic, which Run returns with ok == false;
//   * the same UTK1 ids and UTK2 top-k sets as an Engine built from scratch
//     on the engine's live rows, after mapping through the stable-id map;
//   * planned_algorithm, plan_reason and epoch stamped on every answer;
//   * exactly one history row per top-level Run that answers, none for a
//     rejected spec, each carrying the live count the planner saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/planner.h"
#include "data/generator.h"
#include "data/workload.h"
#include "dist/partitioned_engine.h"
#include "live/live_engine.h"
#include "obs/history.h"
#include "storage/mapped_engine.h"
#include "storage/segment.h"

namespace utk {
namespace {

constexpr int kN = 120;
constexpr int kDim = 3;
constexpr uint64_t kSeed = 61;
constexpr uint64_t kSegmentEpoch = 3;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/utk_envelope_" + name;
}

QuerySpec MakeSpec(QueryMode mode, Algorithm algo, int k,
                   ConvexRegion region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

ConvexRegion Box() { return ConvexRegion::FromBox({0.2, 0.25}, {0.38, 0.42}); }

std::vector<QuerySpec> ValidSpecs() {
  using A = Algorithm;
  using M = QueryMode;
  return {MakeSpec(M::kUtk1, A::kAuto, 4, Box()),
          MakeSpec(M::kUtk1, A::kRsa, 4, Box()),
          MakeSpec(M::kUtk1, A::kJaa, 4, Box()),
          MakeSpec(M::kUtk2, A::kJaa, 4, Box()),
          MakeSpec(M::kUtk1, A::kBaselineSk, 4, Box()),
          MakeSpec(M::kUtk2, A::kBaselineSk, 3, Box()),
          MakeSpec(M::kUtk1, A::kBaselineOn, 4, Box()),
          MakeSpec(M::kUtk1, A::kNaive, 3, Box())};
}

std::vector<QuerySpec> InvalidSpecs() {
  using A = Algorithm;
  using M = QueryMode;
  return {MakeSpec(M::kUtk1, A::kRsa, 0, Box()),
          MakeSpec(M::kUtk1, A::kAuto, 4,
                   ConvexRegion::FromBox({0.2, 0.2, 0.2}, {0.3, 0.3, 0.3})),
          MakeSpec(M::kUtk1, A::kRsa, 4,
                   ConvexRegion::FromBox({0.3, 0.3}, {0.2, 0.2})),
          MakeSpec(M::kUtk2, A::kRsa, 4, Box())};
}

/// One engine under test plus the from-scratch reference over its live
/// rows; stable[i] is the engine's id for reference record i.
struct Subject {
  std::string name;
  std::shared_ptr<const QueryEngine> engine;
  int64_t live = 0;
  std::unique_ptr<Engine> reference;
  std::vector<int32_t> stable;
};

Subject Identity(std::string name, std::shared_ptr<const QueryEngine> engine,
                 const Dataset& data) {
  Subject s;
  s.name = std::move(name);
  s.engine = std::move(engine);
  s.live = static_cast<int64_t>(data.size());
  s.reference = std::make_unique<Engine>(data);
  s.stable.resize(data.size());
  std::iota(s.stable.begin(), s.stable.end(), 0);
  return s;
}

/// Maps reference ids to engine ids (`stable` == nullptr: already engine
/// ids) and sorts them.
std::vector<int32_t> MapIds(const std::vector<int32_t>* stable,
                            std::vector<int32_t> ids) {
  if (stable != nullptr)
    for (int32_t& id : ids) id = (*stable)[id];
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The distinct UTK2 top-k sets, mapped and sorted — tiling may cut cells
/// differently, but the set of top-k sets over R is fixed.
std::vector<std::vector<int32_t>> TopkSets(
    const QueryResult& r, const std::vector<int32_t>* stable) {
  std::vector<std::vector<int32_t>> sets;
  for (const Utk2Cell& cell : r.utk2.cells)
    sets.push_back(MapIds(stable, cell.topk));
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  return sets;
}

std::vector<int32_t> PerRecordIds(const QueryResult& r,
                                  const std::vector<int32_t>* stable) {
  std::vector<int32_t> ids;
  for (const auto& rec : r.per_record.records) ids.push_back(rec.id);
  return MapIds(stable, ids);
}

class EnvelopeParity : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset data = Generate(Distribution::kIndependent, kN, kDim, kSeed);
    auto engine = std::make_shared<const Engine>(data);
    subjects_.push_back(Identity("engine", engine, data));
    subjects_.push_back(
        Identity("live-fresh", std::make_shared<const LiveEngine>(data), data));

    // A live engine after one committed batch: erases, a revival, and
    // appended records.
    auto updated = std::make_shared<LiveEngine>(data);
    const Dataset extra =
        Generate(Distribution::kIndependent, 6, kDim, kSeed + 1);
    std::vector<UpdateOp> ops;
    for (int32_t id : {3, 10, 17, 44, 90}) {
      UpdateOp op;
      op.kind = UpdateKind::kErase;
      op.id = id;
      ops.push_back(op);
    }
    for (size_t i = 0; i < extra.size(); ++i) {
      UpdateOp op;
      op.record = extra[i];
      op.record.id = i == 0 ? 17 : -1;  // revive 17, append the rest
      ops.push_back(op);
    }
    ASSERT_EQ(updated->ApplyBatch(ops), static_cast<int>(ops.size()));
    {
      Subject s;
      s.name = "live-updated";
      s.live = updated->live_size();
      s.reference =
          std::make_unique<Engine>(updated->CompactSnapshot(&s.stable));
      s.engine = updated;
      subjects_.push_back(std::move(s));
    }

    // A mapped segment with every 7th row tombstoned.
    std::vector<char> alive(data.size(), 1);
    for (size_t i = 0; i < data.size(); i += 7) alive[i] = 0;
    segment_ = TempPath("mapped.seg");
    ASSERT_EQ(WriteSegment(segment_, data, alive,
                           RTree::BulkLoad(data, alive), kSegmentEpoch),
              std::nullopt);
    std::shared_ptr<const MappedEngine> mapped = MappedEngine::Open(segment_);
    ASSERT_NE(mapped, nullptr);
    {
      Subject s;
      s.name = "mapped";
      Dataset compact;
      for (size_t i = 0; i < data.size(); ++i) {
        if (!alive[i]) continue;
        Record r = data[i];
        r.id = static_cast<int32_t>(compact.size());
        compact.push_back(std::move(r));
        s.stable.push_back(static_cast<int32_t>(i));
      }
      s.live = static_cast<int64_t>(compact.size());
      s.reference = std::make_unique<Engine>(std::move(compact));
      s.engine = mapped;
      subjects_.push_back(std::move(s));
    }

    DistConfig config;
    config.shards = 2;
    config.tiles = 2;
    subjects_.push_back(Identity(
        "dist", std::make_shared<const PartitionedEngine>(engine, config),
        data));
  }

  void TearDown() override {
    obs::SetQueryHistory(nullptr);
    std::remove(segment_.c_str());
  }

  std::vector<Subject> subjects_;
  std::string segment_;
};

TEST_F(EnvelopeParity, InvalidSpecsGetOneDiagnosticEverywhere) {
  for (const QuerySpec& spec : InvalidSpecs()) {
    const std::optional<std::string> want =
        subjects_.front().engine->Validate(spec);
    ASSERT_TRUE(want.has_value()) << SpecFingerprint(spec);
    for (const Subject& s : subjects_) {
      SCOPED_TRACE(s.name + " " + SpecFingerprint(spec));
      EXPECT_EQ(s.engine->Validate(spec), want);
      const QueryResult r = s.engine->Run(spec);
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error, *want);
    }
  }
}

TEST_F(EnvelopeParity, ValidSpecsMatchAFromScratchEngine) {
  for (const QuerySpec& spec : ValidSpecs()) {
    for (const Subject& s : subjects_) {
      SCOPED_TRACE(s.name + " " + SpecFingerprint(spec));
      EXPECT_EQ(s.engine->Validate(spec), std::nullopt);
      const QueryResult want = s.reference->Run(spec);
      const QueryResult got = s.engine->Run(spec);
      ASSERT_TRUE(want.ok) << want.error;
      ASSERT_TRUE(got.ok) << got.error;
      EXPECT_EQ(got.algorithm, want.algorithm);
      EXPECT_EQ(got.ids, MapIds(&s.stable, want.ids));
      if (spec.mode == QueryMode::kUtk2) {
        EXPECT_EQ(TopkSets(got, nullptr), TopkSets(want, &s.stable));
        EXPECT_EQ(PerRecordIds(got, nullptr), PerRecordIds(want, &s.stable));
      }

      // The envelope's stamps.
      EXPECT_EQ(got.stats.planned_algorithm,
                static_cast<int64_t>(got.algorithm));
      EXPECT_NE(got.stats.plan_reason, static_cast<int64_t>(PlanReason::kNone));
      EXPECT_EQ(got.stats.plan_reason, want.stats.plan_reason);
      EXPECT_EQ(got.stats.epoch, static_cast<int64_t>(s.engine->epoch()));
    }
  }
}

TEST_F(EnvelopeParity, OneHistoryRowPerTopLevelRun) {
  const std::string path = TempPath("history");
  std::remove(path.c_str());
  std::vector<int64_t> want_n;
  {
    std::shared_ptr<obs::HistoryWriter> w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    obs::SetQueryHistory(w);
    for (const Subject& s : subjects_) {
      for (const QuerySpec& spec : ValidSpecs()) {
        SCOPED_TRACE(s.name + " " + SpecFingerprint(spec));
        const int64_t before = w->records();
        ASSERT_TRUE(s.engine->Run(spec).ok);
        EXPECT_EQ(w->records(), before + 1);
        want_n.push_back(s.live);
      }
      for (const QuerySpec& spec : InvalidSpecs()) {
        SCOPED_TRACE(s.name + " " + SpecFingerprint(spec));
        const int64_t before = w->records();
        EXPECT_FALSE(s.engine->Run(spec).ok);
        EXPECT_EQ(w->records(), before);
      }
    }
    obs::SetQueryHistory(nullptr);
  }
  std::optional<obs::HistoryReplay> replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->records.size(), want_n.size());
  for (size_t i = 0; i < want_n.size(); ++i)
    EXPECT_EQ(replay->records[i].n, want_n[i]) << "row " << i;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace utk
