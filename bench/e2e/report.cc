#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace e2e {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - double(i)) * (v[i + 1] - v[i]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Report::Json(bool correct, int64_t attempted,
                         int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
    out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void TraceWindow::Begin() {
  utk::obs::ClearTrace();
  utk::obs::SetTracingEnabled(true);
}

void TraceWindow::End() {
  utk::obs::SetTracingEnabled(false);
  std::vector<utk::obs::TraceEvent> events = utk::obs::TraceSnapshot();
  dropped_ += utk::obs::TraceDroppedCount();
  utk::obs::ClearTrace();
  // A span's parent is the innermost earlier-opened span of the same thread
  // one level up; opening order within a thread is (ts, depth).
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.depth < b.depth;
  });
  std::vector<const utk::obs::TraceEvent*> stack;
  for (const utk::obs::TraceEvent& e : events) {
    while (!stack.empty() &&
           (stack.back()->tid != e.tid || stack.back()->depth >= e.depth))
      stack.pop_back();
    SpanTotals& t = spans_[e.name];
    t.total_ms += e.dur_us / 1000.0;
    t.self_ms += e.dur_us / 1000.0;
    ++t.count;
    if (!stack.empty() && stack.back()->depth == e.depth - 1)
      spans_[stack.back()->name].self_ms -= e.dur_us / 1000.0;
    stack.push_back(&e);
  }
}

SpanTotals TraceWindow::Get(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? SpanTotals{} : it->second;
}

int64_t CounterValue(const char* name) {
  return utk::obs::MetricRegistry::Global().GetCounter(name).Value();
}

}  // namespace e2e
