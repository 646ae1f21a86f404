// utk_e2e — the end-to-end UTK benchmark (see README.md).
//
//   utk_e2e --workload utk1_filter|utk2_arrangement|live_updates
//           --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// One single-threaded workload per process, driven through the public API
// (Engine, Server, LiveEngine, Catalog) in a closed loop with one client.
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// traces half of its work and prints the per-layer table. Either way every
// answer is checked by the brute-force oracle in oracle.cc after the timed
// pass, the oracle's self-test must reject each corrupted answer, and the
// last line of stdout is the JSON result. Exit status is 0 only when every
// operation succeeded and every check held.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/planner.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "data/generator.h"
#include "data/workload.h"
#include "exec/column_store.h"
#include "exec/simd.h"
#include "index/rtree.h"
#include "live/live_engine.h"
#include "oracle.h"
#include "refclock.h"
#include "report.h"
#include "serve/server.h"
#include "storage/catalog.h"

namespace e2e {
namespace {

using utk::Algorithm;
using utk::Dataset;
using utk::QueryMode;
using utk::QueryResult;
using utk::QuerySpec;
using utk::Timer;

constexpr int kDim = 4;
constexpr int kPrefDim = kDim - 1;
constexpr int kK = 10;
constexpr int kUtk1Block = 16;       // sub-millisecond queries per timed block
constexpr int kUtk1Samples = 8;      // interior points per UTK1 check
constexpr int kUtk2Samples = 16;     // interior points per UTK2 check
constexpr int kUnionEvery = 100;     // UTK2-union check on every 100th region
constexpr int kLiveOps = 10;         // update operations per batch
constexpr int kLiveQueries = 10;     // queries between two batches
constexpr int kLiveUtk2Every = 20;   // a UTK2 sample every 20th round

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

// Every run of a workload reads the same corpus. The corpus draw moves query
// time by more than a run can average away (README.md, "Seeds"), so --seed
// picks the query regions and the update trace, not the data.
constexpr uint64_t kCorpusSeed = 1;

// Seeds of the seeded input streams of one run.
uint64_t QuerySeed(uint64_t seed) { return seed * 7919 + 101; }
uint64_t UpdateSeed(uint64_t seed) { return seed * 104729 + 3; }

// Per-run accounting of operations attempted and failed.
class Ledger {
 public:
  explicit Ledger(uint64_t seed) : seed_(seed) {}
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& op, const std::string& why, int64_t n = 1) {
    failed_ += n;
    std::fprintf(stderr, "FAILED seed=%" PRIu64 " op=%s: %s\n", seed_,
                 op.c_str(), why.c_str());
  }
  // One corrupted answer of the oracle self-test; `verdict` is what the
  // oracle said about it and must be a rejection.
  void SelfTest(const char* kind, const std::string& verdict) {
    ++selftests_;
    if (verdict.empty()) {
      selftest_ok_ = false;
      std::fprintf(stderr, "SELF-TEST seed=%" PRIu64 ": corrupted answer (%s) "
                   "was accepted\n", seed_, kind);
    } else {
      std::fprintf(stderr, "self-test: %s rejected (%s)\n", kind,
                   verdict.c_str());
    }
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && selftest_ok_ && selftests_ > 0; }

 private:
  uint64_t seed_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int selftests_ = 0;
  bool selftest_ok_ = true;
};

std::string RegionText(const utk::ConvexRegion& r) {
  std::string s;
  char buf[48];
  for (int i = 0; i < r.dim(); ++i) {
    std::snprintf(buf, sizeof buf, "%s[%.6f,%.6f]", i ? "x" : "",
                  r.box_lo()[i], r.box_hi()[i]);
    s += buf;
  }
  return s;
}

QuerySpec Spec(QueryMode mode, const utk::ConvexRegion& region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = Algorithm::kAuto;
  spec.k = kK;
  spec.region = region;
  return spec;
}

// Wall-clock progress through a run's phases, on stderr.
Timer g_since_start;

void Phase(const char* name) {
  const Timer& since_start = g_since_start;
  std::fprintf(stderr, "phase: %s done at %.1f s\n", name,
               since_start.ElapsedMs() / 1000.0);
}

// Which algorithm and plan reason the planner used, printed once per run.
void NotePlan(const QueryResult& r, bool* noted) {
  if (*noted || !r.ok) return;
  *noted = true;
  std::fprintf(stderr, "plan: algorithm=%s reason=%s\n",
               utk::AlgorithmName(r.algorithm),
               utk::PlanReasonName(
                   static_cast<utk::PlanReason>(r.stats.plan_reason)));
}

// FNV-1a over a result's UTK1 ids and every cell's set and witness: equal
// answers, bit for bit, have equal fingerprints.
uint64_t Fingerprint(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  mix(r.ids.data(), r.ids.size() * sizeof(int32_t));
  for (const utk::Utk2Cell& c : r.utk2.cells) {
    mix(c.topk.data(), c.topk.size() * sizeof(int32_t));
    mix(c.witness.data(), c.witness.size() * sizeof(double));
  }
  return h;
}

// Boxes of side `sigma` whose lower corners follow Roberts' additive
// recurrence x_n = frac(shift + n * alpha) over [0, 1 - sigma]^dim, kept when
// the box fits inside the weight simplex. The low-discrepancy sequence
// spreads one run's regions evenly over the domain, so runs with different
// seeds (shifts) sample it alike; a uniform random batch leaves clusters and
// gaps that move a run's percentiles by several per cent.
std::vector<utk::ConvexRegion> StratifiedBoxes(int dim, double sigma,
                                               int count, uint64_t seed) {
  double phi = 2.0;  // the real root of x^(dim+1) = x + 1
  for (int it = 0; it < 64; ++it)
    phi -= (std::pow(phi, dim + 1) - phi - 1.0) /
           ((dim + 1) * std::pow(phi, dim) - 1.0);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Vec alpha(dim), shift(dim);
  for (int j = 0; j < dim; ++j) {
    alpha[j] = 1.0 / std::pow(phi, j + 1);
    shift[j] = u(rng);
  }
  std::vector<utk::ConvexRegion> out;
  for (int64_t n = 1; static_cast<int>(out.size()) < count; ++n) {
    Vec lo(dim), hi(dim);
    double top = 0.0;
    for (int j = 0; j < dim; ++j) {
      const double x = shift[j] + double(n) * alpha[j];
      lo[j] = (x - std::floor(x)) * (1.0 - sigma);
      hi[j] = lo[j] + sigma;
      top += hi[j];
    }
    if (top <= 1.0) out.push_back(utk::ConvexRegion::FromBox(lo, hi));
  }
  return out;
}

// Runs `count` set-ups, each bracketed by reference loops. A set-up does
// its untimed preparation (copying the input, dropping the previous
// instance) itself and returns the milliseconds of its timed part. Returns
// the scaled times (s) and appends the raw ones; setup_s is their median.
template <typename Fn>
std::vector<double> TimeSetups(int count, Fn&& setup,
                               std::vector<double>* raw_s) {
  std::vector<double> scaled;
  for (int i = 0; i < count; ++i) {
    RefClock clock;
    const double ms = setup(i);
    const double f = clock.Close();
    raw_s->push_back(ms / 1000.0);
    scaled.push_back(ms * f / 1000.0);
  }
  return scaled;
}

// Whole passes over a fixed pool keep every region's weight in the
// percentiles equal however many passes fit. Another pass starts only if it
// would end within the run's seconds, judged by the one just finished; the
// first pass always runs.
bool AnotherPass(const Timer& wall, const Timer& pass, int seconds) {
  return wall.ElapsedMs() + pass.ElapsedMs() <= seconds * 1000.0;
}

// Query/batch timings of one run, reference-scaled and raw (ms).
struct Timings {
  // Every untimed-pass operation in execution order: scaled ms and the
  // operations it carried (1 per query, the applied ops per batch).
  struct Op {
    double ms;
    int64_t ops;
    bool query;
  };
  std::vector<Op> log;
  std::vector<double> query, query_raw;
  std::vector<double> batch, batch_raw;
  std::vector<double> setup_s, setup_raw_s;
  std::vector<double> loops;  // raw reference-loop timings
  double rss_mb = 0.0;
};

// Operations per second as the median over kRateChunks contiguous chunks
// of the run of (operations / summed time), the median-of-means estimator.
// A whole-run mean is dominated by a handful of pathological UTK2 regions
// and by slow phases of the host: it spread 25-30 % between seeds. The
// chunk median moves with any change that moves most chunks' throughput.
constexpr int kRateChunks = 16;

double ChunkedRate(const std::vector<Timings::Op>& log, bool queries_only) {
  std::vector<Timings::Op> ops;
  for (const Timings::Op& op : log)
    if (op.query || !queries_only) ops.push_back(op);
  std::vector<double> rates;
  for (int c = 0; c < kRateChunks; ++c) {
    const size_t b = ops.size() * c / kRateChunks;
    const size_t e = ops.size() * (c + 1) / kRateChunks;
    double ms = 0.0;
    int64_t n = 0;
    for (size_t i = b; i < e; ++i) {
      ms += ops[i].ms;
      n += ops[i].ops;
    }
    if (ms > 0.0) rates.push_back(1000.0 * double(n) / ms);
  }
  return Median(rates);
}

void AddEndToEnd(const Timings& t, Report* r) {
  r->Add("setup_s", Median(t.setup_s), "s");
  r->Add("query_p50_ms", Quantile(t.query, 0.5), "ms");
  r->Add("query_p90_ms", Quantile(t.query, 0.9), "ms");
  r->Add("queries_per_s", ChunkedRate(t.log, true), "1/s");
  r->Add("ops_per_s", ChunkedRate(t.log, false), "1/s");
  r->Add("peak_rss_mb", t.rss_mb, "MiB");
}

void PrintRaw(const Timings& t) {
  std::fprintf(stderr,
               "raw: setup_s=%.4f query_p50_ms=%.4f query_p90_ms=%.4f "
               "query_p99_ms=%.4f queries=%zu ref_loop_ms=%.4f "
               "(min %.4f max %.4f, %zu loops)\n",
               Median(t.setup_raw_s), Quantile(t.query_raw, 0.5),
               Quantile(t.query_raw, 0.9), Quantile(t.query_raw, 0.99),
               t.query_raw.size(), Median(t.loops), Quantile(t.loops, 0.0),
               Quantile(t.loops, 1.0), t.loops.size());
  std::fprintf(stderr,
               "scaled: setup_s=%.4f query_p50_ms=%.4f query_p90_ms=%.4f "
               "query_p99_ms=%.4f\n",
               Median(t.setup_s), Quantile(t.query, 0.5),
               Quantile(t.query, 0.9), Quantile(t.query, 0.99));
  if (!t.batch.empty())
    std::fprintf(stderr,
                 "updates: batches=%zu p50_ms=%.4f p90_ms=%.4f raw_p50_ms=%.4f "
                 "raw_p90_ms=%.4f\n",
                 t.batch.size(), Quantile(t.batch, 0.5), Quantile(t.batch, 0.9),
                 Quantile(t.batch_raw, 0.5), Quantile(t.batch_raw, 0.9));
}

// ---------------------------------------------------------------------------
// Per-layer table. Every workload prints every name; a layer a workload does
// not reach reads 0. Unless a name says otherwise, values are per query
// (per batch for live.* / storage.wal_*) over the traced half of the run.
// ---------------------------------------------------------------------------
struct Layers {
  TraceWindow trace;
  utk::QueryStats stats;       // summed over traced queries
  int64_t queries = 0;         // traced queries
  int64_t answer_ids = 0;      // summed UTK1 answer sizes of traced queries
  int64_t batches = 0;         // traced update batches
  int64_t batch_ops = 0;
  double traced_ms = 0.0, untraced_ms = 0.0;  // raw query time of both halves
  int64_t untraced_queries = 0;
  std::vector<double> hit_ms, miss_ms;         // Server::Query, raw
  std::vector<double> rebuild_ms, plain_ms;    // ApplyBatch, raw
  int64_t rebuilds = 0, band_size = 0;
  int64_t pool_q = 0, direct_q = 0, fallback_q = 0;
  int64_t evictions = 0, invalidated = 0;
  double rtree_ms = 0.0, colstore_ms = 0.0, create_ms = 0.0, open_ms = 0.0;
  double segment_mb = 0.0;
  int64_t compactions = 0;
  // Registry counters summed over traced windows.
  int64_t scan_rows = 0, blocks_skipped = 0, dom_rows = 0, wal_bytes = 0;
  std::vector<double> update_ms;  // all batches, scaled
  int64_t update_ops = 0;
  double update_total_ms = 0.0;

  // Brackets one traced window and the registry counters it moves.
  void Begin() {
    c0_[0] = CounterValue("utk_exec_topk_scan_rows_total");
    c0_[1] = CounterValue("utk_exec_topk_blocks_skipped_total");
    c0_[2] = CounterValue("utk_exec_dominated_count_rows_total");
    c0_[3] = CounterValue("utk_wal_bytes_total");
    trace.Begin();
  }
  void End() {
    trace.End();
    scan_rows += CounterValue("utk_exec_topk_scan_rows_total") - c0_[0];
    blocks_skipped += CounterValue("utk_exec_topk_blocks_skipped_total") - c0_[1];
    dom_rows += CounterValue("utk_exec_dominated_count_rows_total") - c0_[2];
    wal_bytes += CounterValue("utk_wal_bytes_total") - c0_[3];
  }

  void Print(const std::vector<double>& loops, double raw_query_p50,
             Report* r) const {
    const double q = queries > 0 ? double(queries) : 1.0;
    const double b = batches > 0 ? double(batches) : 1.0;
    auto per_q = [&](double v) { return v / q; };
    auto self_q = [&](const char* n) { return trace.Get(n).self_ms / q; };
    auto self_b = [&](const char* n) { return trace.Get(n).self_ms / b; };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const SpanTotals engine_run = trace.Get("engine.run");
    const SpanTotals live_run = trace.Get("live.run");
    const SpanTotals build = trace.Get("arrangement.build");
    const int64_t hits = stats.cache_hits + stats.cache_semantic_hits;
    r->Add("api.run_ms", per_q(engine_run.total_ms + live_run.total_ms), "ms");
    r->Add("api.envelope_ms", per_q(engine_run.self_ms + live_run.self_ms), "ms");
    r->Add("skyline.rskyband_ms", self_q("filter.rskyband"), "ms");
    r->Add("skyline.pool_ms", self_q("filter.pool"), "ms");
    r->Add("skyline.candidates", per_q(double(stats.candidates)), "count");
    r->Add("skyline.rdom_tests", per_q(double(stats.rdom_tests)), "count");
    r->Add("skyline.candidates_per_answer",
           ratio(double(stats.candidates), double(answer_ids)), "ratio");
    r->Add("index.heap_pops", per_q(double(stats.heap_pops)), "count");
    r->Add("index.rtree_build_ms", rtree_ms, "ms");
    r->Add("exec.colstore_build_ms", colstore_ms, "ms");
    r->Add("exec.topk_scan_rows", per_q(double(scan_rows)), "count");
    r->Add("exec.topk_blocks_skipped", per_q(double(blocks_skipped)), "count");
    r->Add("exec.dominated_count_rows", per_q(double(dom_rows)), "count");
    r->Add("core.jaa_refine_ms", self_q("jaa.refine"), "ms");
    r->Add("core.verify_calls", per_q(double(stats.verify_calls)), "count");
    r->Add("core.rsa_refine_ms", self_q("rsa.refine"), "ms");
    r->Add("core.rsa_candidates",
           per_q(double(trace.Get("rsa.candidate").count)), "count");
    r->Add("core.drills", per_q(double(stats.drills)), "count");
    r->Add("arrangement.build_ms", per_q(build.total_ms), "ms");
    r->Add("arrangement.builds", per_q(double(build.count)), "count");
    r->Add("arrangement.cells", per_q(double(stats.cells_created)), "count");
    r->Add("arrangement.halfspaces",
           per_q(double(stats.halfspaces_inserted)), "count");
    r->Add("arrangement.peak_kb", double(stats.peak_bytes) / 1024.0, "KiB");
    r->Add("geometry.lp_calls", per_q(double(stats.lp_calls)), "count");
    r->Add("geometry.lp_us_per_call",
           ratio(build.total_ms * 1000.0, double(stats.lp_calls)), "us");
    r->Add("serve.hit_ratio", ratio(double(hits), double(queries)), "ratio");
    r->Add("serve.exact_hits", per_q(double(stats.cache_hits)), "count");
    r->Add("serve.semantic_hits", per_q(double(stats.cache_semantic_hits)),
           "count");
    r->Add("serve.misses", per_q(double(stats.cache_misses)), "count");
    r->Add("serve.evictions", per_q(double(evictions)), "count");
    r->Add("serve.invalidated", per_q(double(invalidated)), "count");
    r->Add("serve.hit_ms", Median(hit_ms), "ms");
    r->Add("serve.miss_ms", Median(miss_ms), "ms");
    r->Add("serve.cache_probe_ms", self_q("serve.cache_probe"), "ms");
    r->Add("serve.donor_restrict_ms", self_q("serve.donor_restrict"), "ms");
    r->Add("live.apply_batch_ms", self_b("live.apply_batch"), "ms");
    r->Add("live.commit_ms", self_b("live.commit"), "ms");
    r->Add("live.cache_sweep_ms", self_b("live.cache_sweep"), "ms");
    r->Add("live.band_rebuilds", double(rebuilds) / b, "count");
    r->Add("live.band_size", double(band_size), "count");
    r->Add("live.rebuild_batch_ms", Median(rebuild_ms), "ms");
    r->Add("live.plain_batch_ms", Median(plain_ms), "ms");
    r->Add("live.rebuild_share",
           ratio(double(rebuild_ms.size()),
                 double(rebuild_ms.size() + plain_ms.size())), "ratio");
    r->Add("live.update_p50_ms", Quantile(update_ms, 0.5), "ms");
    r->Add("live.update_p90_ms", Quantile(update_ms, 0.9), "ms");
    r->Add("live.updates_per_s",
           ratio(1000.0 * double(update_ops), update_total_ms), "1/s");
    r->Add("live.pool_queries", per_q(double(pool_q)), "count");
    r->Add("live.direct_queries", per_q(double(direct_q)), "count");
    r->Add("live.fallback_queries", per_q(double(fallback_q)), "count");
    r->Add("storage.wal_append_ms", self_b("wal.append"), "ms");
    r->Add("storage.wal_fsync_ms", self_b("wal.fsync"), "ms");
    r->Add("storage.wal_bytes_per_op",
           ratio(double(wal_bytes), double(batch_ops)), "bytes");
    r->Add("storage.create_ms", create_ms, "ms");
    r->Add("storage.open_ms", open_ms, "ms");
    r->Add("storage.segment_mb", segment_mb, "MiB");
    r->Add("storage.compactions", double(compactions), "count");
    r->Add("obs.trace_overhead",
           ratio(traced_ms / q, untraced_ms / double(untraced_queries)),
           "ratio");
    r->Add("obs.trace_dropped", double(trace.dropped()), "count");
    r->Add("bench.ref_loop_us", Median(loops) * 1000.0, "us");
    r->Add("bench.raw_query_p50_ms", raw_query_p50, "ms");
  }

 private:
  int64_t c0_[4] = {0, 0, 0, 0};
};

void NoteQuery(const QueryResult& r, Layers* layers) {
  layers->stats += r.stats;
  // candidates_per_answer relates the filter's output to the answers of
  // the queries that ran it; cache hits run no filter.
  if (r.stats.cache_hits + r.stats.cache_semantic_hits == 0)
    layers->answer_ids += static_cast<int64_t>(r.ids.size());
  ++layers->queries;
}

// ---------------------------------------------------------------------------
// utk1_filter: UTK1 over 1M IND records, sigma = 0.01 boxes.
// ---------------------------------------------------------------------------
constexpr int kUtk1N = 1000000;
constexpr int kUtk1Regions = 10000;
constexpr double kUtk1Sigma = 0.01;

int RunUtk1Filter(const Args& a) {
  Ledger ledger(a.seed);
  Timings t;
  Layers layers;
  const Dataset data = utk::Generate(utk::Distribution::kIndependent, kUtk1N,
                                     kDim, kCorpusSeed);
  std::optional<utk::Engine> engine;
  t.setup_s = TimeSetups(
      3,
      [&](int) {
        engine.reset();
        Dataset copy = data;
        Timer timer;
        engine.emplace(std::move(copy));
        return timer.ElapsedMs();
      },
      &t.setup_raw_s);
  Phase("setup");
  if (a.trace) {
    Timer rt;
    utk::RTree tree = utk::RTree::BulkLoad(data);
    layers.rtree_ms = rt.ElapsedMs();
    Timer ct;
    utk::ColumnStore cols(data);
    layers.colstore_ms = ct.ElapsedMs();
  }

  const std::vector<utk::ConvexRegion> regions =
      utk::QueryBatch(kPrefDim, kUtk1Sigma, kUtk1Regions + 32, QuerySeed(a.seed));
  std::vector<QuerySpec> specs;
  for (const auto& r : regions) specs.push_back(Spec(QueryMode::kUtk1, r));

  // Distinct answers per region; each is checked once by the oracle, and
  // `runs` of them count as failed if it does not hold.
  struct Variant {
    std::vector<int32_t> ids;
    int64_t runs = 0;
  };
  std::vector<std::vector<Variant>> variants(kUtk1Regions);
  auto record = [&](int i, QueryResult& r) {
    ledger.Attempt();
    if (!r.ok) {
      ledger.Fail("utk1 region " + RegionText(regions[i]), r.error);
      return;
    }
    for (Variant& v : variants[i])
      if (v.ids == r.ids) {
        ++v.runs;
        return;
      }
    variants[i].push_back({std::move(r.ids), 1});
  };
  bool noted = false;
  // Warm-up on regions outside the pool, so lazy set-up (planner, SIMD
  // dispatch, allocator) is not charged to the first timed query.
  for (int i = kUtk1Regions; i < static_cast<int>(specs.size()); ++i)
    NotePlan(engine->Run(specs[i]), &noted);

  RefClock clock;
  Timer wall;
  std::vector<double> raw(kUtk1Block);
  std::vector<QueryResult> results(kUtk1Block);
  const int n = kUtk1Regions;
  for (Timer pass;; pass.Reset()) {
    for (int b = 0; b < n; b += kUtk1Block) {
      const int e = std::min(n, b + kUtk1Block);
      for (int pass = 0; pass < (a.trace ? 2 : 1); ++pass) {
        const bool traced = pass == 1;
        if (traced) layers.Begin();
        for (int i = b; i < e; ++i) {
          Timer qt;
          results[i - b] = engine->Run(specs[i]);
          raw[i - b] = qt.ElapsedMs();
        }
        if (traced) layers.End();
        const double f = clock.Close();
        for (int i = b; i < e; ++i) {
          if (traced) {
            layers.traced_ms += raw[i - b];
            NoteQuery(results[i - b], &layers);
          } else {
            t.query.push_back(raw[i - b] * f);
            t.query_raw.push_back(raw[i - b]);
            t.log.push_back({raw[i - b] * f, 1, true});
            layers.untraced_ms += raw[i - b];
            ++layers.untraced_queries;
          }
          record(i, results[i - b]);
        }
      }
    }
    if (!AnotherPass(wall, pass, a.seconds)) break;
  }
  Phase("measure");
  t.loops = clock.loops();
  t.rss_mb = PeakRssMb();

  // Oracle, outside every timed section.
  Mirror mirror(data);
  Timer band_timer;
  const std::vector<int32_t> band = KSkyband(mirror, kK);
  std::fprintf(stderr, "oracle: %zu-record %d-skyband in %.0f ms\n",
               band.size(), kK, band_timer.ElapsedMs());
  OracleTally tally;
  std::mt19937_64 rng(a.seed);
  bool selftested = false;
  for (int i = 0; i < n; ++i) {
    if (variants[i].empty()) continue;
    const BoxQuery q =
        MakeBoxQuery(mirror, &band, regions[i].box_lo(), regions[i].box_hi(), kK);
    for (const Variant& v : variants[i]) {
      const std::string why = CheckUtk1(mirror, q, v.ids, kUtk1Samples, rng, &tally);
      if (!why.empty()) ledger.Fail("utk1 region " + RegionText(regions[i]), why, v.runs);
    }
    if (i % kUnionEvery != 0) continue;
    QueryResult u2 = engine->Run(Spec(QueryMode::kUtk2, regions[i]));
    if (!u2.ok) {
      ledger.Fail("utk2 (union check) region " + RegionText(regions[i]), u2.error);
      continue;
    }
    for (const Variant& v : variants[i]) {
      const std::string why = CheckUtk2(mirror, q, u2.utk2.cells, &v.ids,
                                        kUtk2Samples, rng, &tally);
      if (!why.empty())
        ledger.Fail("utk1 union check region " + RegionText(regions[i]), why, v.runs);
    }
    if (selftested) continue;
    // Self-test: drop a brute-force top-k member; add a non-member.
    std::vector<int32_t> top;
    if (!BruteTopK(mirror, q.cand, q.lo, kK, &top)) continue;
    selftested = true;
    const std::vector<int32_t>& ids = variants[i][0].ids;
    std::vector<int32_t> dropped;
    for (int32_t id : ids)
      if (id != top[0]) dropped.push_back(id);
    ledger.SelfTest("utk1 dropped id",
                    CheckUtk1(mirror, q, dropped, kUtk1Samples, rng, &tally));
    std::vector<int32_t> added = ids;
    int32_t extra = 0;
    while (std::binary_search(ids.begin(), ids.end(), extra)) ++extra;
    added.insert(std::lower_bound(added.begin(), added.end(), extra), extra);
    ledger.SelfTest("utk1 added id (union check)",
                    CheckUtk2(mirror, q, u2.utk2.cells, &added, kUtk2Samples,
                              rng, &tally));
  }
  std::fprintf(stderr, "oracle: %" PRId64 " weight vectors, %" PRId64
               " skipped (top-k not unique within 1e-6)\n", tally.points,
               tally.ties);
  Phase("oracle");
  PrintRaw(t);
  Report report;
  if (a.trace) {
    layers.Print(t.loops, Quantile(t.query_raw, 0.5), &report);
  } else {
    AddEndToEnd(t, &report);
  }
  std::printf("%s\n", report.Json(ledger.correct(), ledger.attempted(),
                                  ledger.failed()).c_str());
  return ledger.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// utk2_arrangement: UTK2 over 100k ANTI records.
// ---------------------------------------------------------------------------
constexpr int kUtk2N = 100000;
constexpr int kUtk2Regions = 4000;  // distinct regions per run
constexpr double kUtk2Sigma = 0.01;

int RunUtk2Arrangement(const Args& a) {
  Ledger ledger(a.seed);
  Timings t;
  Layers layers;
  const Dataset data = utk::Generate(utk::Distribution::kAnticorrelated,
                                     kUtk2N, kDim, kCorpusSeed);
  std::optional<utk::Engine> engine;
  t.setup_s = TimeSetups(
      9,
      [&](int) {
        engine.reset();
        Dataset copy = data;
        Timer timer;
        engine.emplace(std::move(copy));
        return timer.ElapsedMs();
      },
      &t.setup_raw_s);
  Phase("setup");
  if (a.trace) {
    Timer rt;
    utk::RTree tree = utk::RTree::BulkLoad(data);
    layers.rtree_ms = rt.ElapsedMs();
    Timer ct;
    utk::ColumnStore cols(data);
    layers.colstore_ms = ct.ElapsedMs();
  }
  // The pool plus eight warm-up regions the timed passes do not use.
  const std::vector<utk::ConvexRegion> regions = StratifiedBoxes(
      kPrefDim, kUtk2Sigma, kUtk2Regions + 8, QuerySeed(a.seed));

  // The first answer per region is kept for the oracle; later executions
  // must reproduce its fingerprint or are kept and checked as well.
  struct Answer {
    int region;
    std::vector<utk::Utk2Cell> cells;
    std::vector<int32_t> ids;
  };
  std::vector<Answer> answers;
  answers.reserve(kUtk2Regions);
  std::vector<uint64_t> fingerprints(kUtk2Regions, 0);
  bool noted = false;
  for (int i = kUtk2Regions; i < static_cast<int>(regions.size()); ++i)
    NotePlan(engine->Run(Spec(QueryMode::kUtk2, regions[i])), &noted);

  RefClock clock;
  Timer wall;
  for (int round = 0;; ++round) {
    Timer pass;
    for (int region = 0; region < kUtk2Regions; ++region) {
      const QuerySpec spec = Spec(QueryMode::kUtk2, regions[region]);
      for (int pass = 0; pass < (a.trace ? 2 : 1); ++pass) {
        const bool traced = pass == 1;
        if (traced) layers.Begin();
        Timer qt;
        QueryResult r = engine->Run(spec);
        const double raw = qt.ElapsedMs();
        if (traced) layers.End();
        const double f = clock.Close();
        if (traced) {
          layers.traced_ms += raw;
          NoteQuery(r, &layers);
        } else {
          t.query.push_back(raw * f);
          t.query_raw.push_back(raw);
          t.log.push_back({raw * f, 1, true});
          layers.untraced_ms += raw;
          ++layers.untraced_queries;
        }
        ledger.Attempt();
        if (!r.ok) {
          ledger.Fail("utk2 region " + RegionText(regions[region]), r.error);
          continue;
        }
        const uint64_t fp = Fingerprint(r);
        if (round == 0 && pass == 0) {
          fingerprints[region] = fp;
        } else if (fp == fingerprints[region]) {
          continue;
        }
        answers.push_back({region, std::move(r.utk2.cells), std::move(r.ids)});
      }
    }
    if (!AnotherPass(wall, pass, a.seconds)) break;
  }
  Phase("measure");
  t.loops = clock.loops();
  t.rss_mb = PeakRssMb();

  Mirror mirror(data);
  OracleTally tally;
  std::mt19937_64 rng(a.seed);
  int selftests = 0;
  for (const Answer& ans : answers) {
    const utk::ConvexRegion& region = regions[ans.region];
    const BoxQuery q =
        MakeBoxQuery(mirror, nullptr, region.box_lo(), region.box_hi(), kK);
    const std::string why =
        CheckUtk2(mirror, q, ans.cells, &ans.ids, kUtk2Samples, rng, &tally);
    if (!why.empty()) ledger.Fail("utk2 region " + RegionText(region), why);
    if (selftests > 0 || !why.empty()) continue;
    // Self-test: swap the sets of two cells that differ; drop one id from
    // a cell's set.
    for (size_t c = 1; c < ans.cells.size() && selftests == 0; ++c) {
      if (ans.cells[c].topk == ans.cells[0].topk) continue;
      std::vector<utk::Utk2Cell> swapped = ans.cells;
      std::swap(swapped[0].topk, swapped[c].topk);
      ledger.SelfTest("utk2 swapped cell sets",
                      CheckUtk2(mirror, q, swapped, &ans.ids, kUtk2Samples,
                                rng, &tally));
      std::vector<utk::Utk2Cell> dropped = ans.cells;
      dropped[0].topk.pop_back();
      ledger.SelfTest("utk2 dropped id",
                      CheckUtk2(mirror, q, dropped, nullptr, kUtk2Samples,
                                rng, &tally));
      selftests = 2;
    }
  }
  std::fprintf(stderr, "oracle: %" PRId64 " weight vectors, %" PRId64
               " skipped (top-k not unique within 1e-6)\n", tally.points,
               tally.ties);
  Phase("oracle");
  PrintRaw(t);
  Report report;
  if (a.trace) {
    layers.Print(t.loops, Quantile(t.query_raw, 0.5), &report);
  } else {
    AddEndToEnd(t, &report);
  }
  std::printf("%s\n", report.Json(ledger.correct(), ledger.attempted(),
                                  ledger.failed()).c_str());
  return ledger.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// live_updates: a Catalog over 100k IND records with a caching Server,
// alternating 10-op update batches with 10 UTK1 queries.
// ---------------------------------------------------------------------------
constexpr int kLiveN = 100000;
constexpr int kLiveMaxRounds = 4000;
constexpr int kLiveBlockRounds = 10;  // rounds per serving-trace block

int RunLiveUpdates(const Args& a) {
  namespace fs = std::filesystem;
  Ledger ledger(a.seed);
  Timings t;
  Layers layers;
  const Dataset data = utk::Generate(utk::Distribution::kIndependent, kLiveN,
                                     kDim, kCorpusSeed);
  utk::UpdateTraceOptions uopt;
  uopt.seed = UpdateSeed(a.seed);
  const std::vector<utk::UpdateOp> ops =
      utk::MakeUpdateTrace(data, kLiveMaxRounds * kLiveOps, uopt);
  // The serving trace is a sequence of MakeServeTrace blocks, one per
  // kLiveBlockRounds rounds, each with its own four hot regions: the hot set
  // drifts, so one run samples many hot regions rather than four.
  utk::ServeTraceOptions sopt;
  sopt.pref_dim = kPrefDim;
  sopt.sigma = 0.05;
  sopt.hot_regions = 4;
  sopt.repeat_fraction = 0.4;
  sopt.subregion_fraction = 0.3;
  std::vector<utk::ConvexRegion> queries;
  for (int b = 0; b < kLiveMaxRounds / kLiveBlockRounds; ++b) {
    sopt.seed = QuerySeed(a.seed) + uint64_t(b);
    const utk::ServeTrace block =
        utk::MakeServeTrace(kLiveBlockRounds * kLiveQueries, sopt);
    queries.insert(queries.end(), block.queries.begin(), block.queries.end());
  }

  const fs::path root = fs::path(a.workdir) / ("live-" + std::to_string(a.seed));
  fs::remove_all(root);
  fs::create_directories(root);
  std::unique_ptr<utk::Catalog> catalog;
  std::string dir;
  std::vector<double> create_ms, open_ms;
  t.setup_s = TimeSetups(
      5,
      [&](int i) {
        catalog.reset();
        dir = (root / ("cat" + std::to_string(i))).string();
        Dataset copy = data;
        std::string err;
        Timer ct;
        auto created = utk::Catalog::Create(dir, std::move(copy), {}, &err);
        create_ms.push_back(ct.ElapsedMs());
        if (!created) {
          ledger.Fail("Catalog::Create", err);
          return create_ms.back();
        }
        created.reset();  // closing is not part of set-up
        Timer ot;
        catalog = utk::Catalog::Open(dir, {}, &err);
        open_ms.push_back(ot.ElapsedMs());
        if (!catalog) ledger.Fail("Catalog::Open", err);
        return create_ms.back() + open_ms.back();
      },
      &t.setup_raw_s);
  Phase("setup");
  if (!catalog) {
    std::printf("%s\n", Report().Json(false, 1, 1).c_str());
    return 1;
  }
  layers.create_ms = Median(create_ms);
  layers.open_ms = Median(open_ms);

  utk::LiveEngine& live = catalog->live();
  auto server = std::make_unique<utk::Server>(catalog->engine());
  auto attachment =
      std::make_unique<utk::CacheAttachment>(live, server->cache());
  bool noted = false;
  // Warm-up straight on the engine with regions outside the serving trace,
  // so the cache starts cold for the timed pass.
  const std::vector<utk::ConvexRegion> warm =
      utk::QueryBatch(kPrefDim, sopt.sigma, 8, UpdateSeed(a.seed) + 1);
  for (const utk::ConvexRegion& region : warm)
    NotePlan(live.Run(Spec(QueryMode::kUtk1, region)), &noted);

  struct Asked {
    int round;
    int query;  // index into queries
    std::vector<int32_t> ids;
  };
  struct Utk2Sample {
    int round;
    int query;
    std::vector<utk::Utk2Cell> cells;
    std::vector<int32_t> ids;  // the round's UTK1 answer for that region
  };
  std::vector<Asked> asked;
  std::vector<Utk2Sample> utk2_samples;
  std::vector<int> applied_per_round;

  RefClock clock;
  Timer wall;
  int rounds = 0;
  double sample_ms = 0.0;  // untimed UTK2 samples, kept out of the budget
  std::vector<double> exact_ms, semantic_ms, miss_ms;  // scaled, by outcome
  for (; rounds < kLiveMaxRounds &&
         wall.ElapsedMs() - sample_ms < a.seconds * 1000.0;
       ++rounds) {
    const bool traced = a.trace && rounds % 2 == 1;
    const std::span<const utk::UpdateOp> batch(&ops[size_t(rounds) * kLiveOps],
                                               kLiveOps);
    const int64_t rebuilds_before = live.counters().band_rebuilds;
    if (traced) layers.Begin();
    Timer bt;
    const int applied = live.ApplyBatch(batch);
    const double braw = bt.ElapsedMs();
    if (traced) layers.End();
    const double bf = clock.Close();
    applied_per_round.push_back(applied);
    ledger.Attempt();
    if (applied != kLiveOps)
      ledger.Fail("ApplyBatch round " + std::to_string(rounds),
                  std::to_string(applied) + " of 10 ops applied");
    t.batch.push_back(braw * bf);
    t.batch_raw.push_back(braw);
    if (!traced) t.log.push_back({braw * bf, applied, false});
    layers.update_ms.push_back(braw * bf);
    layers.update_ops += applied;
    layers.update_total_ms += braw * bf;
    const bool rebuilt = live.counters().band_rebuilds != rebuilds_before;
    if (traced) {
      ++layers.batches;
      layers.batch_ops += applied;
      layers.rebuilds += rebuilt ? 1 : 0;
    }
    (rebuilt ? layers.rebuild_ms : layers.plain_ms).push_back(braw);

    double raw[kLiveQueries];
    QueryResult results[kLiveQueries];
    const utk::CacheCounters cc0 = server->cache_counters();
    const utk::LiveCounters lc0 = live.counters();
    if (traced) layers.Begin();
    for (int j = 0; j < kLiveQueries; ++j) {
      const int qi = rounds * kLiveQueries + j;
      Timer qt;
      results[j] = server->Query(Spec(QueryMode::kUtk1, queries[qi]));
      raw[j] = qt.ElapsedMs();
    }
    if (traced) layers.End();
    const double qf = clock.Close();
    if (traced) {
      const utk::CacheCounters cc1 = server->cache_counters();
      const utk::LiveCounters lc1 = live.counters();
      layers.evictions += cc1.evictions - cc0.evictions;
      layers.pool_q += lc1.pool_queries - lc0.pool_queries;
      layers.direct_q += lc1.direct_queries - lc0.direct_queries;
      layers.fallback_q += lc1.fallback_queries - lc0.fallback_queries;
    }
    for (int j = 0; j < kLiveQueries; ++j) {
      const int qi = rounds * kLiveQueries + j;
      if (traced) {
        layers.traced_ms += raw[j];
        NoteQuery(results[j], &layers);
        const bool hit = results[j].stats.cache_hits +
                             results[j].stats.cache_semantic_hits > 0;
        (hit ? layers.hit_ms : layers.miss_ms).push_back(raw[j]);
      } else {
        t.query.push_back(raw[j] * qf);
        t.query_raw.push_back(raw[j]);
        t.log.push_back({raw[j] * qf, 1, true});
        layers.untraced_ms += raw[j];
        ++layers.untraced_queries;
        const utk::QueryStats& qs = results[j].stats;
        (qs.cache_hits ? exact_ms : qs.cache_semantic_hits ? semantic_ms : miss_ms)
            .push_back(raw[j] * qf);
      }
      ledger.Attempt();
      if (!results[j].ok) {
        ledger.Fail("live query " + std::to_string(qi), results[j].error);
        continue;
      }
      asked.push_back({rounds, qi, std::move(results[j].ids)});
    }
    if (rounds % kLiveUtk2Every == 0 && !asked.empty() &&
        asked.back().round == rounds) {
      // Untimed: the UTK2 answer for the round's last region, for the
      // union check against its UTK1 answer.
      const Asked& last = asked.back();
      Timer st;
      QueryResult u2 = live.Run(Spec(QueryMode::kUtk2, queries[last.query]));
      sample_ms += st.ElapsedMs();
      if (!u2.ok)
        ledger.Fail("live utk2 query " + std::to_string(last.query), u2.error);
      else
        utk2_samples.push_back(
            {rounds, last.query, std::move(u2.utk2.cells), last.ids});
    }
  }
  Phase("measure");
  std::fprintf(stderr,
               "live: %.1f s of untimed UTK2 samples; queries by outcome: "
               "exact %zu (p50 %.4f ms), semantic %zu (p50 %.4f ms), "
               "miss %zu (p50 %.4f ms)\n",
               sample_ms / 1000.0, exact_ms.size(), Median(exact_ms),
               semantic_ms.size(), Median(semantic_ms), miss_ms.size(),
               Median(miss_ms));
  t.loops = clock.loops();
  t.rss_mb = PeakRssMb();
  const utk::CacheCounters cc = server->cache_counters();
  layers.invalidated = cc.invalidated;
  const utk::LiveCounters lc = live.counters();
  layers.band_size = lc.band;
  const utk::CatalogStats cs = catalog->stats();
  layers.segment_mb = double(cs.segment_bytes) / (1024.0 * 1024.0);
  layers.compactions = cs.compactions;
  const uint64_t epoch = live.epoch();
  std::fprintf(stderr,
               "live: rounds=%d epoch=%" PRIu64 " live=%" PRId64 " band=%" PRId64
               " rebuilds=%" PRId64 " rebuild_share=%.3f cache hit_rate=%.3f "
               "invalidated=%" PRId64 " wal_bytes=%" PRIu64 "\n",
               rounds, epoch, lc.live, lc.band, lc.band_rebuilds,
               double(layers.rebuild_ms.size()) /
                   double(layers.rebuild_ms.size() + layers.plain_ms.size()),
               cc.HitRate(), cc.invalidated, cs.wal_bytes);

  // Oracle: replay the trace onto the mirror, checking each round's answers
  // at that round's state.
  Mirror mirror(data);
  OracleTally tally;
  std::mt19937_64 rng(a.seed);
  int32_t next_id = static_cast<int32_t>(data.size());
  size_t ai = 0, ui = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int o = 0; o < kLiveOps; ++o) {
      const utk::UpdateOp& op = ops[size_t(r) * kLiveOps + o];
      if (op.kind == utk::UpdateKind::kErase) {
        mirror.Erase(op.id);
      } else {
        mirror.Insert(op.record.id >= 0 ? op.record.id : next_id++,
                      op.record.attrs);
      }
    }
    for (; ai < asked.size() && asked[ai].round == r; ++ai) {
      const utk::ConvexRegion& region = queries[asked[ai].query];
      const BoxQuery q =
          MakeBoxQuery(mirror, nullptr, region.box_lo(), region.box_hi(), kK);
      const std::string why =
          CheckUtk1(mirror, q, asked[ai].ids, kUtk1Samples, rng, &tally);
      if (!why.empty())
        ledger.Fail("live query " + std::to_string(asked[ai].query) + " region " +
                        RegionText(region), why);
    }
    for (; ui < utk2_samples.size() && utk2_samples[ui].round == r; ++ui) {
      const Utk2Sample& s = utk2_samples[ui];
      const utk::ConvexRegion& region = queries[s.query];
      const BoxQuery q =
          MakeBoxQuery(mirror, nullptr, region.box_lo(), region.box_hi(), kK);
      const std::string why =
          CheckUtk2(mirror, q, s.cells, &s.ids, kUtk2Samples, rng, &tally);
      if (!why.empty())
        ledger.Fail("live utk2 query " + std::to_string(s.query), why);
    }
  }
  Phase("oracle replay");
  // Self-test: the last answer checked against a state it missed — one more
  // insert of a record that beats every other everywhere.
  if (!asked.empty()) {
    const utk::ConvexRegion& region = queries[asked.back().query];
    const int32_t ghost = mirror.size();
    mirror.Insert(ghost, Vec(kDim, 1.0));
    const BoxQuery q = MakeBoxQuery(mirror, nullptr, region.box_lo(), region.box_hi(), kK);
    ledger.SelfTest("live missed update",
                    CheckUtk1(mirror, q, asked.back().ids, kUtk1Samples, rng,
                              &tally));
    mirror.Erase(ghost);
  }

  // Durability: after closing, a reopened catalog carries the mirror's epoch
  // and live count.
  attachment.reset();
  server.reset();
  catalog.reset();
  {
    std::string err;
    Timer rt;
    auto reopened = utk::Catalog::Open(dir, {}, &err);
    std::fprintf(stderr, "reopen: Catalog::Open replayed %d batches in %.0f ms\n",
                 rounds, rt.ElapsedMs());
    ledger.Attempt();
    if (!reopened) {
      ledger.Fail("Catalog::Open after close", err);
    } else if (reopened->live().epoch() != uint64_t(rounds) ||
               reopened->live().live_size() != mirror.live()) {
      ledger.Fail("Catalog::Open after close",
                  "epoch " + std::to_string(reopened->live().epoch()) +
                      " live " + std::to_string(reopened->live().live_size()) +
                      ", mirror has epoch " + std::to_string(rounds) +
                      " live " + std::to_string(mirror.live()));
    }
  }
  fs::remove_all(root);
  std::fprintf(stderr, "oracle: %" PRId64 " weight vectors, %" PRId64
               " skipped (top-k not unique within 1e-6)\n", tally.points,
               tally.ties);
  Phase("oracle");
  PrintRaw(t);
  Report report;
  if (a.trace) {
    layers.Print(t.loops, Quantile(t.query_raw, 0.5), &report);
  } else {
    AddEndToEnd(t, &report);
  }
  std::printf("%s\n", report.Json(ledger.correct(), ledger.attempted(),
                                  ledger.failed()).c_str());
  return ledger.correct() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") a->workload = value;
    else if (flag == "--seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atoi(value.c_str());
    else if (flag == "--trace") a->trace = value == "1";
    else if (flag == "--workdir") a->workdir = value;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args a;
  if (!e2e::ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: utk_e2e --workload utk1_filter|utk2_arrangement|"
                 "live_updates --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n");
    return 2;
  }
  for (const char* var : {"UTK_THREADS", "UTK_SIMD", "UTK_PLANNER_MODEL"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "%s is set; the benchmark runs with it unset\n", var);
      return 2;
    }
  }
  std::fprintf(stderr,
               "workload=%s seed=%" PRIu64 " seconds=%d trace=%d simd=%s "
               "pool_threads=%d ref_loop_nominal_ms=%.3f\n",
               a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
               utk::SimdTierName(utk::ActiveSimdTier()), utk::DefaultThreads(),
               e2e::kRefLoopNominalMs);
  if (a.workload == "utk1_filter") return e2e::RunUtk1Filter(a);
  if (a.workload == "utk2_arrangement") return e2e::RunUtk2Arrangement(a);
  if (a.workload == "live_updates") return e2e::RunLiveUpdates(a);
  std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
  return 2;
}
