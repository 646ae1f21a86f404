// Brute-force oracle for the end-to-end benchmark.
//
// Shares no code with the library under test beyond its plain data types:
// its own scorer a_d + sum_i w_i (a_i - a_d), its own partial sort, its own
// candidate bound and its own half-space test. Every check runs outside the
// timed sections.
#ifndef UTK_BENCH_E2E_ORACLE_H_
#define UTK_BENCH_E2E_ORACLE_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/utk.h"

namespace e2e {

using utk::Vec;

/// Score gap under which the k-th and (k+1)-th records count as tied; a
/// weight vector with such a tie has no unique top-k and is skipped.
inline constexpr double kTieTol = 1e-9;

/// Distance in the preference domain within which a change of the top-k
/// makes a weight vector unfit to check an answer at. The library resolves
/// that domain to 1e-7: arrangement cells with a smaller Chebyshev radius
/// are measure-zero tie boundaries and are dropped (DESIGN.md, "Numerical
/// policy"), so a record that is in the top-k only on a thinner sliver of
/// the region is absent from the answer by design. Ten times that keeps
/// the oracle clear of such slivers; vectors inside the margin are skipped
/// and counted like ties.
inline constexpr double kFlipMargin = 1e-6;

/// The benchmark's own copy of the data: row-major attributes addressed by
/// record id, plus liveness for the update workload.
class Mirror {
 public:
  explicit Mirror(const utk::Dataset& data);

  int dim() const { return dim_; }
  int32_t size() const { return static_cast<int32_t>(alive_.size()); }
  int64_t live() const { return live_; }
  bool alive(int32_t id) const {
    return id >= 0 && id < size() && alive_[id] != 0;
  }
  const double* row(int32_t id) const { return &attrs_[size_t(id) * dim_]; }

  /// Revives `id` (or appends it when id == size()) with `attrs`.
  void Insert(int32_t id, const Vec& attrs);
  void Erase(int32_t id);

 private:
  int dim_;
  int64_t live_ = 0;
  std::vector<double> attrs_;
  std::vector<char> alive_;
};

/// Score of one record under reduced weight vector w (w_d = 1 - sum w_i).
double Score(const double* a, int dim, const Vec& w);

/// The live records dominated (>= in every attribute, > in one) by fewer
/// than k others. For non-negative weights nothing else can be in a top-k.
/// Brute force in descending attribute-sum order: every dominator of a
/// record comes before it, and a record with k dominators has k among the
/// band, so counting against the band decides it.
std::vector<int32_t> KSkyband(const Mirror& m, int k);

/// Ids among `rows` (every live id when null) that can be in the top-k
/// somewhere in the box [lo, hi]: every other record scores below the k-th
/// best box-minimum score by more than kTieTol everywhere in the box. The
/// score is affine in w, so its range over the box is closed-form.
std::vector<int32_t> BoxCandidates(const Mirror& m,
                                   const std::vector<int32_t>* rows,
                                   const Vec& lo, const Vec& hi, int k);

/// The top-k of `cand` at w, ascending ids. False (and `out` untouched) when
/// the top-k is not unique at w or changes within kFlipMargin of w: some
/// member and non-member scores are closer than kTieTol plus kFlipMargin
/// times the norm of the gradient of their difference.
bool BruteTopK(const Mirror& m, const std::vector<int32_t>& cand,
               const Vec& w, int k, std::vector<int32_t>* out);

/// One query's check context: the box, k, its candidates and a sampler.
struct BoxQuery {
  Vec lo, hi;
  int k = 10;
  std::vector<int32_t> cand;
};
BoxQuery MakeBoxQuery(const Mirror& m, const std::vector<int32_t>* rows,
                      const Vec& lo, const Vec& hi, int k);

/// Running totals over all checks of a run.
struct OracleTally {
  int64_t points = 0;  ///< weight vectors brute-forced
  int64_t ties = 0;    ///< of those, skipped: top-k not unique within kFlipMargin
};

/// UTK1: ids valid, live, ascending and unique; at every box corner and at
/// `samples` interior points drawn from `rng`, the brute-force top-k is a
/// subset of `ids`. Returns "" when it holds, else what failed.
std::string CheckUtk1(const Mirror& m, const BoxQuery& q,
                      const std::vector<int32_t>& ids, int samples,
                      std::mt19937_64& rng, OracleTally* tally);

/// UTK2: every cell's witness lies in the box and in its cell and its
/// brute-force top-k equals the cell's set; each of `samples` points of the
/// box lies, by the oracle's own half-space test, in a cell whose set equals
/// the brute-force top-k there. `union_ids`, when non-null, must equal the
/// union of the cells' sets.
std::string CheckUtk2(const Mirror& m, const BoxQuery& q,
                      const std::vector<utk::Utk2Cell>& cells,
                      const std::vector<int32_t>* union_ids, int samples,
                      std::mt19937_64& rng, OracleTally* tally);

}  // namespace e2e

#endif  // UTK_BENCH_E2E_ORACLE_H_
