// Reference-speed timing for the end-to-end benchmark.
//
// The machine this benchmark runs on changes speed in phases that last tens
// of seconds: throughput-bound code slows by up to 1.6x and back (README.md,
// "Why reference-speed timing"). A fixed, single-threaded, L1-resident,
// throughput-bound floating-point loop timed next to the work slows with it,
// so every interval is reported in reference-speed units: its raw length
// times kRefLoopNominalMs divided by the mean of the two loop timings that
// bracket it.
#ifndef UTK_BENCH_E2E_REFCLOCK_H_
#define UTK_BENCH_E2E_REFCLOCK_H_

#include <vector>

namespace e2e {

/// Nominal length of one reference loop in ms: the loop's median on the
/// machine the README's reference figures come from. Scaled times equal raw
/// times whenever the machine runs the loop at exactly this speed.
inline constexpr double kRefLoopNominalMs = 0.64;

/// Runs the reference loop once and returns its raw duration in ms.
double TimeRefLoop();

/// Brackets timed blocks with reference loops. The constructor runs the
/// first loop; each Close() runs the next one and returns the factor that
/// converts the raw times of the block just finished into reference-speed
/// times.
class RefClock {
 public:
  RefClock();

  /// Ends the current block: runs a loop and returns
  /// kRefLoopNominalMs / mean(previous loop, this loop).
  double Close();

  /// Every raw loop timing so far, in ms.
  const std::vector<double>& loops() const { return loops_; }

 private:
  std::vector<double> loops_;
};

}  // namespace e2e

#endif  // UTK_BENCH_E2E_REFCLOCK_H_
