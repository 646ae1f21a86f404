#include "api/execute.h"

#include <utility>

#include "core/baseline.h"
#include "core/jaa.h"
#include "core/naive.h"
#include "core/rsa.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

/// Validate's rules with the plan they need: `decision` is filled once the
/// structural checks pass, so a query decides exactly once.
std::optional<std::string> Admit(const Snapshot& snap, const QuerySpec& spec,
                                 PlanDecision* decision) {
  if (snap.live == 0) return "engine holds an empty dataset";
  if (spec.k < 1) return "k must be >= 1";
  if (spec.region.dim() != snap.pref_dim())
    return "region has " + std::to_string(spec.region.dim()) +
           " preference dims, dataset needs " +
           std::to_string(snap.pref_dim());
  if (!spec.region.HasInteriorPoint())
    return "query region has empty interior";
  *decision = Decide(snap, spec);
  const Algorithm algo = decision->algorithm;
  if (spec.mode == QueryMode::kUtk2 &&
      (algo == Algorithm::kRsa || algo == Algorithm::kNaive))
    return std::string(AlgorithmName(algo)) +
           " answers UTK1 only; use JAA or a baseline for UTK2";
  return std::nullopt;
}

/// The snapshot's own filter + refine: the band pool when it covers k,
/// otherwise the live R-tree. The filter reads only the columns, whatever
/// the region shape. `gathered` accumulates materialized rows.
QueryResult FilterAndRefine(const Snapshot& snap, const QuerySpec& spec,
                            Algorithm algo, int64_t* gathered) {
  QueryStats filter_stats;
  const RSkybandResult band =
      snap.band != nullptr && spec.k <= snap.band->k()
          ? ComputeRSkybandFromPool(snap.cols, snap.band->BandIds(),
                                    spec.region, spec.k, &filter_stats)
          : ComputeRSkyband(snap.cols, *snap.tree, spec.region, spec.k,
                            &filter_stats);
  // Refinement (and its drill probes) touch exactly the band rows.
  if (snap.materialize) *gathered += snap.materialize(&band.ids);
  QueryResult r = RefineBand(*snap.data, band, spec, algo);
  const int64_t candidates = r.stats.candidates;
  r.stats += filter_stats;
  r.stats.candidates = candidates;  // the refinement input
  return r;
}

/// The naive oracle scans every row, so over a tombstoned snapshot it runs
/// on a compacted copy of the live rows and maps the ids back.
std::vector<int32_t> NaiveOverLiveRows(const Snapshot& snap,
                                       const QuerySpec& spec) {
  if (snap.alive.empty()) return NaiveUtk1(*snap.data, spec.region, spec.k);
  std::vector<int32_t> stable_ids;
  const Dataset compact = CompactRows(*snap.data, snap.alive, &stable_ids);
  std::vector<int32_t> ids = NaiveUtk1(compact, spec.region, spec.k);
  for (int32_t& id : ids) id = stable_ids[id];  // monotonic: stays sorted
  return ids;
}

/// SK/ON baselines and the naive oracle: outside the band pipeline.
QueryResult RunOutsideBand(const Snapshot& snap, const QuerySpec& spec,
                           Algorithm algo, int64_t* gathered) {
  if (snap.materialize) *gathered += snap.materialize(nullptr);
  QueryResult r;
  if (algo == Algorithm::kNaive) {
    r.ids = NaiveOverLiveRows(snap, spec);
    r.stats.candidates = snap.live;
    return r;
  }
  Baseline b(algo == Algorithm::kBaselineSk ? BaselineFilter::kSkyband
                                            : BaselineFilter::kOnion);
  if (spec.mode == QueryMode::kUtk1) {
    Utk1Result res =
        b.RunUtk1(*snap.data, snap.cols, *snap.tree, spec.region, spec.k);
    r.ids = std::move(res.ids);
    r.stats = res.stats;
  } else {
    r.per_record =
        b.RunUtk2(*snap.data, snap.cols, *snap.tree, spec.region, spec.k);
    r.ids = r.per_record.AllRecords();
    r.stats = r.per_record.stats;
  }
  return r;
}

}  // namespace

std::optional<std::string> Validate(const Snapshot& snap,
                                    const QuerySpec& spec,
                                    Algorithm* planned) {
  PlanDecision decision;
  std::optional<std::string> error = Admit(snap, spec, &decision);
  if (!error.has_value() && planned != nullptr) *planned = decision.algorithm;
  return error;
}

PlanDecision Decide(const Snapshot& snap, const QuerySpec& spec) {
  return DecidePlan(snap.model, spec, snap.live, snap.pref_dim());
}

PlanNode Explain(const Snapshot& snap, const QuerySpec& spec,
                 PlanDecision* decision) {
  PlanNode root;
  root.op = snap.op;
  PlanDecision d;
  if (std::optional<std::string> error = Admit(snap, spec, &d)) {
    root.detail = "invalid: " + *error;
    return root;
  }
  root.detail = std::string("algo=") + AlgorithmName(d.algorithm) +
                " reason=" + PlanReasonName(d.reason) +
                " k=" + std::to_string(spec.k) +
                " n=" + std::to_string(snap.live);
  root.est_ms = d.est_ms;
  // The filter operator feeding the refine operator, in span vocabulary,
  // with cardinalities from the k-skyband expectation.
  const int64_t band = EstimateBandSize(snap.live, spec.k, snap.pref_dim());
  auto add = [](PlanNode* parent, const char* op,
                int64_t est_rows) -> PlanNode& {
    PlanNode& p = parent->children.emplace_back();
    p.op = op;
    p.est_rows = est_rows;
    return p;
  };
  switch (d.algorithm) {
    case Algorithm::kAuto:
      break;  // unresolved plans have no operator structure
    case Algorithm::kRsa:
    case Algorithm::kJaa:
      add(&root, "filter.rskyband", band);
      add(&root, d.algorithm == Algorithm::kRsa ? "rsa.refine" : "jaa.refine",
          band);
      break;
    case Algorithm::kBaselineSk:
    case Algorithm::kBaselineOn: {
      add(&root,
          d.algorithm == Algorithm::kBaselineSk ? "filter.skyband"
                                                : "filter.onion",
          band);
      PlanNode& refine = add(&root, "baseline.refine", band);
      if (spec.mode == QueryMode::kUtk2) refine.detail = "per-record cells";
      add(&refine, "kspr.decide", band);
      break;
    }
    case Algorithm::kNaive:
      add(&root, "naive.enumerate", snap.live);
      break;
  }
  if (decision != nullptr) *decision = d;
  return root;
}

QueryResult RefineBand(const Dataset& data, const RSkybandResult& band,
                       const QuerySpec& spec, Algorithm algo) {
  QueryResult r;
  if (algo == Algorithm::kRsa) {
    Rsa::Options opt;
    opt.use_drill = spec.use_drill;
    opt.use_lemma1 = spec.use_lemma1;
    opt.wave_cap = spec.wave_cap;
    opt.refine_threads = spec.refine_threads;
    Utk1Result res = Rsa(opt).RunFiltered(data, band, spec.region, spec.k);
    r.ids = std::move(res.ids);
    r.stats = res.stats;
  } else {
    Jaa::Options opt;
    opt.use_lemma1 = spec.use_lemma1;
    opt.wave_cap = spec.wave_cap;
    opt.refine_threads = spec.refine_threads;
    r.utk2 = Jaa(opt).RunFiltered(data, band, spec.region, spec.k);
    r.ids = r.utk2.AllRecords();
    r.stats = r.utk2.stats;
  }
  r.ok = true;
  r.mode = spec.mode;
  r.algorithm = algo;
  return r;
}

QueryResult Execute(const Snapshot& snap, const QuerySpec& spec,
                    const BandRunner& band_runner) {
  UTK_SPAN(snap.op);
  obs::QueryLogScope slow_log(snap.op);
  QueryHistoryScope history;
  PlanDecision decision;
  if (std::optional<std::string> error = Admit(snap, spec, &decision)) {
    QueryResult r;
    r.error = std::move(*error);
    r.mode = spec.mode;
    r.algorithm = spec.algorithm;
    return r;
  }

  const Algorithm algo = decision.algorithm;
  Timer timer;
  int64_t gathered = 0;
  QueryResult r = !UsesBand(algo) ? RunOutsideBand(snap, spec, algo, &gathered)
                  : band_runner   ? band_runner(spec, algo)
                                  : FilterAndRefine(snap, spec, algo, &gathered);
  r.ok = true;
  r.mode = spec.mode;
  r.algorithm = algo;
  r.stats.elapsed_ms = timer.ElapsedMs();
  r.stats.epoch = static_cast<int64_t>(snap.epoch);
  r.stats.rows_materialized = gathered;
  r.stats.mapped_bytes = snap.mapped_bytes;
  r.stats.planned_algorithm = static_cast<int64_t>(algo);
  r.stats.plan_reason = static_cast<int64_t>(decision.reason);

  // The mispredict rate over a workload is the planner's live quality
  // signal (gated in tools/check_bench.py).
  NotePlanOutcome(decision, r.stats.elapsed_ms);
  static obs::Counter& queries =
      obs::MetricRegistry::Global().GetCounter("utk_engine_queries_total");
  static obs::Histogram& latency = obs::MetricRegistry::Global().GetHistogram(
      "utk_engine_query_latency_us");
  queries.Add();
  latency.Observe(static_cast<int64_t>(r.stats.elapsed_ms * 1000.0));
  slow_log.Finish(r.stats, [&spec] { return SpecFingerprint(spec); });
  history.Record(spec, r, snap.live, snap.pref_dim());
  return r;
}

Dataset CompactRows(const Dataset& data, std::span<const char> alive,
                    std::vector<int32_t>* stable_ids) {
  Dataset compact;
  if (stable_ids != nullptr) stable_ids->clear();
  for (size_t i = 0; i < data.size(); ++i) {
    if (!alive.empty() && !alive[i]) continue;
    Record rec = data[i];
    rec.id = static_cast<int32_t>(compact.size());
    compact.push_back(std::move(rec));
    if (stable_ids != nullptr) stable_ids->push_back(static_cast<int32_t>(i));
  }
  return compact;
}

}  // namespace utk
