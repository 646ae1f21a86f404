// Result plumbing for the end-to-end benchmark: order statistics, the
// metric list printed as the run's last line, and the per-span totals a
// traced run folds out of the library's span buffers.
#ifndef UTK_BENCH_E2E_REPORT_H_
#define UTK_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Sum(const std::vector<double>& v);

/// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMb();

/// Metrics in insertion order, printed as the run's one-line JSON result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Totals of one span name over every traced window.
struct SpanTotals {
  double total_ms = 0.0;  ///< summed duration
  double self_ms = 0.0;   ///< summed duration minus direct children's
  int64_t count = 0;      ///< spans closed
};

/// Turns the library's tracer on for a window of work and folds what it
/// recorded into per-name totals. Windows must not nest.
class TraceWindow {
 public:
  void Begin();
  void End();

  /// Totals for `name` (zeros when it never fired).
  SpanTotals Get(const std::string& name) const;
  /// Events the tracer dropped at its buffer cap, over all windows.
  int64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, SpanTotals> spans_;
  int64_t dropped_ = 0;
};

/// Current value of a registry counter (0 when never registered).
int64_t CounterValue(const char* name);

}  // namespace e2e

#endif  // UTK_BENCH_E2E_REPORT_H_
