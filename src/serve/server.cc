#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "common/parallel.h"
#include "core/kspr.h"
#include "geometry/linear.h"
#include "geometry/lp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

struct ServeMetrics {
  obs::Counter& queries;
  obs::Counter& exact_hits;
  obs::Counter& semantic_hits;
  obs::Counter& misses;
  obs::Histogram& latency;

  static ServeMetrics& Get() {
    auto& reg = obs::MetricRegistry::Global();
    static ServeMetrics m{
        reg.GetCounter("utk_serve_queries_total"),
        reg.GetCounter("utk_serve_cache_hits_total"),
        reg.GetCounter("utk_serve_cache_semantic_hits_total"),
        reg.GetCounter("utk_serve_cache_misses_total"),
        reg.GetHistogram("utk_serve_query_latency_us")};
    return m;
  }
};

/// H-representation of (cell with `bounds`) intersected with `inner`.
std::vector<Halfspace> ClipBounds(const std::vector<Halfspace>& bounds,
                                  const ConvexRegion& inner) {
  std::vector<Halfspace> clipped = bounds;
  clipped.insert(clipped.end(), inner.constraints().begin(),
                 inner.constraints().end());
  return clipped;
}

/// Minimum normalized slack of `w` against the facets of `region`. A donor
/// cell's cached witness with slack > kInteriorEps is already an interior
/// point of (cell ∩ region) — no LP needed to keep the cell — and the slack
/// bounds the ball around it that survives the clip.
Scalar InteriorSlack(const ConvexRegion& region, const Vec& w) {
  Scalar min_slack = std::numeric_limits<Scalar>::max();
  for (const Halfspace& h : region.constraints()) {
    const Scalar norm = Norm(h.a);
    min_slack = std::min(min_slack, h.Slack(w) / (norm > 0.0 ? norm : 1.0));
  }
  return min_slack;
}

bool StrictlyInside(const ConvexRegion& region, const Vec& w) {
  return InteriorSlack(region, w) > kInteriorEps;
}

void SortUnique(std::vector<int32_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

Server::Server(std::shared_ptr<const QueryEngine> engine, CacheConfig config)
    : engine_(std::move(engine)), cache_(config) {}

Server::Server(Engine engine, CacheConfig config)
    : engine_(std::make_shared<const Engine>(std::move(engine))),
      cache_(config) {}

QueryResult Server::Query(const QuerySpec& spec) {
  UTK_SPAN("serve.query");
  obs::QueryLogScope slow_log("serve.query");
  // One history row per served query, whichever path answers it; the
  // engine's own scope on the miss path nests inside this one and stays
  // silent. Cache-hit rows carry cache_hits=1 in their stats CSV, so the
  // calibration fit (tools/calibrate_planner.py) can filter them out.
  QueryHistoryScope history;
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.queries.Add();
  Timer timer;
  auto record = [&](QueryResult r) {
    metrics.latency.Observe(static_cast<int64_t>(r.stats.elapsed_ms * 1000.0));
    slow_log.Finish(r.stats, [&spec] { return SpecFingerprint(spec); });
    history.Record(spec, r, engine_->size(), engine_->pref_dim());
    return r;
  };
  // Requests the engine would reject bypass the cache entirely so the
  // diagnostic is identical to Engine::Run's, and failures are never cached.
  // A valid spec comes back with its plan from the same decision.
  Algorithm planned = Algorithm::kAuto;
  if (engine_->Validate(spec, &planned).has_value())
    return record(engine_->Run(spec));

  // The dataset epoch is read *before* the query runs: if an update commits
  // mid-flight, the admit below carries the superseded epoch and the cache
  // refuses it — a racing query can never plant a stale answer.
  const uint64_t epoch = engine_->epoch();
  CacheLookup lookup = [&] {
    UTK_SPAN("serve.cache_probe");
    return cache_.Lookup(spec, planned, epoch);
  }();
  if (lookup.outcome == CacheOutcome::kExactHit) {
    metrics.exact_hits.Add();
    QueryResult r = std::move(lookup.result);
    // The stats describe *this* serving, not the donor's original run.
    r.stats = QueryStats{};
    r.stats.cache_hits = 1;
    r.stats.epoch = static_cast<int64_t>(epoch);
    r.stats.elapsed_ms = timer.ElapsedMs();
    return record(std::move(r));
  }
  if (lookup.outcome == CacheOutcome::kSemanticHit) {
    QueryResult r = ServeFromDonor(spec, std::move(lookup));
    cache_.ResolveSemantic(r.ok);
    if (r.ok) {
      metrics.semantic_hits.Add();
      r.stats.cache_semantic_hits = 1;
      r.stats.epoch = static_cast<int64_t>(epoch);
      // The restriction IS the Engine::Run answer for this spec (DESIGN.md
      // §7), so admit it: exact repeats of this sub-region become O(1) hits
      // instead of re-paying the restriction.
      r.stats.cache_evictions = cache_.Admit(spec, planned, r, epoch);
      r.stats.elapsed_ms = timer.ElapsedMs();
      return record(std::move(r));
    }
    // Degenerate restriction (the requested region only grazes the donor's
    // cells): fall through to a full run, counted as a miss everywhere.
  }
  metrics.misses.Add();
  QueryResult r = RunAndAdmit(spec, planned, epoch);
  r.stats.cache_misses = 1;
  return record(std::move(r));
}

PlanNode Server::Explain(const QuerySpec& spec) const {
  PlanNode root;
  root.op = "serve.query";
  PlanNode engine_plan = engine_->Explain(spec);
  if (engine_plan.detail.starts_with("invalid: ")) {
    // Invalid specs bypass the cache; the engine tree carries the
    // diagnostic already (QueryEngine::Explain's "invalid: ..." root).
    root.detail = "cache bypass (invalid spec)";
    root.children.push_back(std::move(engine_plan));
    return root;
  }
  root.detail = "cache-first; miss cost below";
  root.est_ms = engine_plan.est_ms;
  PlanNode probe;
  probe.op = "serve.cache_probe";
  probe.detail = "exact fingerprint, then containment donors";
  root.children.push_back(std::move(probe));
  root.children.push_back(std::move(engine_plan));
  return root;
}

PlanNode Server::ExplainAnalyze(const QuerySpec& spec, QueryResult* result) {
  const PlanNode static_plan = Explain(spec);
  QueryResult local;
  PlanNode analyzed = AnalyzeWithTrace(static_plan, [&]() {
    local = Query(spec);
    return local.stats.elapsed_ms;
  });
  if (result != nullptr) *result = std::move(local);
  return analyzed;
}

QueryResult Server::RunAndAdmit(const QuerySpec& spec, Algorithm planned,
                                uint64_t epoch) {
  // A decomposing engine (dist/partitioned_engine.h) reports each completed
  // region tile — a full answer for its sub-region — and every tile is
  // admitted as a containment donor. The sink may run on the engine's
  // worker threads; the cache is internally synchronized and the eviction
  // tally is atomic.
  std::atomic<int64_t> tile_evictions{0};
  PartialResultSink sink = [&](const QuerySpec& sub, const QueryResult& part) {
    UTK_SPAN("serve.admit");
    if (part.ok)
      tile_evictions.fetch_add(cache_.Admit(sub, planned, part, epoch),
                               std::memory_order_relaxed);
  };
  QueryResult r = engine_->Run(spec, sink);
  if (r.ok) {
    UTK_SPAN("serve.admit");
    r.stats.cache_evictions = tile_evictions.load(std::memory_order_relaxed) +
                              cache_.Admit(spec, planned, r, epoch);
  }
  return r;
}

QueryResult Server::ServeFromDonor(const QuerySpec& spec,
                                   CacheLookup donor) const {
  UTK_SPAN("serve.donor_restrict");
  QueryResult r;
  r.mode = spec.mode;
  r.algorithm = donor.result.algorithm;
  const int64_t lp_before = LpSolveCount();
  QueryStats stats;
  stats.candidates = static_cast<int64_t>(donor.result.ids.size());

  if (spec.mode == QueryMode::kUtk2) {
    if (!donor.result.utk2.cells.empty()) {
      // JAA-shaped donor: clip the common arrangement to the new region. A
      // cell whose cached witness is already strictly inside the new region
      // keeps its witness and skips the interior-point LP.
      for (const Utk2Cell& cell : donor.result.utk2.cells) {
        std::vector<Halfspace> clipped = ClipBounds(cell.bounds, spec.region);
        Utk2Cell out;
        if (StrictlyInside(spec.region, cell.witness)) {
          out.witness = cell.witness;
        } else {
          auto ip = FindInteriorPoint(clipped);
          if (!ip.has_value() || ip->radius <= kInteriorEps) continue;
          out.witness = ip->x;
        }
        out.bounds = std::move(clipped);
        out.topk = cell.topk;
        r.utk2.cells.push_back(std::move(out));
      }
      if (r.utk2.cells.empty()) return r;  // !ok: nothing survived clipping
      r.utk2.Canonicalize();  // clipping visits donor cells in donor order
      r.ids = r.utk2.AllRecords();
    } else {
      // Baseline-shaped donor: clip each record's validity cells.
      for (const auto& rec : donor.result.per_record.records) {
        BaselineUtk2Result::PerRecord out;
        out.id = rec.id;
        for (const Cell& cell : rec.cells) {
          std::vector<Halfspace> clipped = ClipBounds(cell.bounds, spec.region);
          Cell c;
          const Scalar slack = InteriorSlack(spec.region, cell.interior);
          if (slack > kInteriorEps) {
            c.interior = cell.interior;
            c.radius = std::min(cell.radius, slack);
          } else {
            auto ip = FindInteriorPoint(clipped);
            if (!ip.has_value() || ip->radius <= kInteriorEps) continue;
            c.interior = ip->x;
            c.radius = ip->radius;
          }
          c.bounds = std::move(clipped);
          c.covering = cell.covering;
          c.frozen = cell.frozen;
          out.cells.push_back(std::move(c));
        }
        if (!out.cells.empty()) r.per_record.records.push_back(std::move(out));
      }
      if (r.per_record.records.empty()) return r;
      r.ids = r.per_record.AllRecords();
    }
    stats.cells_created = static_cast<int64_t>(r.utk2.cells.size()) +
                          r.per_record.TotalCells();
  } else {
    if (!donor.result.utk2.cells.empty()) {
      // Union of top-k sets over cells that still intersect the new region
      // (witness fast path first, feasibility LP only for straddlers).
      for (const Utk2Cell& cell : donor.result.utk2.cells) {
        if (StrictlyInside(spec.region, cell.witness) ||
            HasInterior(ClipBounds(cell.bounds, spec.region)))
          r.ids.insert(r.ids.end(), cell.topk.begin(), cell.topk.end());
      }
      SortUnique(&r.ids);
    } else if (!donor.result.per_record.records.empty()) {
      for (const auto& rec : donor.result.per_record.records) {
        for (const Cell& cell : rec.cells) {
          if (StrictlyInside(spec.region, cell.interior) ||
              HasInterior(ClipBounds(cell.bounds, spec.region))) {
            r.ids.push_back(rec.id);
            break;
          }
        }
      }
      SortUnique(&r.ids);
    } else {
      // Id-only donor. Drill-style accept screen first: any record in the
      // top-k at a probe weight of the new region is in UTK1 by definition,
      // so only the leftovers need a kSPR re-decision — with the cached ids
      // as the only competitors (exact; see the class comment).
      const std::vector<int32_t>& ids = donor.result.ids;
      std::vector<Vec> probes;
      if (auto pivot = spec.region.Pivot()) probes.push_back(std::move(*pivot));
      if (spec.region.is_box()) {
        std::vector<Vec> verts = spec.region.BoxVertices();
        probes.insert(probes.end(), std::make_move_iterator(verts.begin()),
                      std::make_move_iterator(verts.end()));
      }
      std::vector<char> accepted(ids.size(), 0);
      for (const Vec& w : probes) {
        ++stats.drills;
        for (int32_t id : engine_->TopK(w, spec.k)) {
          auto it = std::lower_bound(ids.begin(), ids.end(), id);
          if (it != ids.end() && *it == id) accepted[it - ids.begin()] = 1;
        }
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        if (!accepted[i] &&
            !Kspr(engine_->data(), ids[i], ids, spec.region, spec.k,
                  /*early_exit=*/true, &stats)
                 .qualifies)
          continue;
        r.ids.push_back(ids[i]);
      }
    }
    if (r.ids.empty()) return r;  // !ok: degenerate, redo as a miss
  }

  r.stats = stats;
  r.stats.lp_calls = LpSolveCount() - lp_before;
  r.ok = true;
  return r;
}

BatchQueryResult Server::QueryBatch(std::span<const QuerySpec> specs,
                                    int threads) {
  UTK_SPAN_VAL("serve.batch", static_cast<int64_t>(specs.size()));
  BatchQueryResult batch;
  batch.results.resize(specs.size());
  ParallelFor(static_cast<int>(specs.size()),
              threads <= 0 ? DefaultThreads() : threads,
              [&](int i) { batch.results[i] = Query(specs[i]); });
  std::vector<QueryStats> stats;
  stats.reserve(batch.results.size());
  for (const QueryResult& r : batch.results) {
    stats.push_back(r.stats);
    if (!r.ok) ++batch.failed;
  }
  batch.total = QueryStats::Merge(stats);
  return batch;
}

}  // namespace utk
