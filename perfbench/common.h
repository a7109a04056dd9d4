// Shared helpers of the end-to-end benchmark: clock, order
// statistics, match-set digests, and the metric report that becomes
// the benchmark's output.
#ifndef XPRED_PERFBENCH_COMMON_H_
#define XPRED_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/predicate.h"

namespace xpred::perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Order-sensitive 64-bit digest of a sorted match set; delivered and
/// oracle sets are compared by (size, digest).
inline uint64_t DigestIds(std::span<const core::ExprId> ids) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ ids.size();
  for (core::ExprId id : ids) {
    h ^= id + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
  }
  return h;
}

/// Which output a metric belongs to: the end-to-end set (printed in
/// the untraced run's result), the per-layer set (the traced run's
/// result), or a metric that only some workloads have, which is
/// printed but kept out of the result object.
enum class Scope { kEndToEnd, kLayer, kExtra };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Scope scope = Scope::kExtra;
};

/// Ordered metric list; Print() writes one human-readable line per
/// metric, ResultJson() the result object's "metrics" member for one
/// scope.
class Report {
 public:
  void Add(std::string name, double value, std::string unit, Scope scope) {
    metrics_.push_back({std::move(name), value, std::move(unit), scope});
  }

  void Print(FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-34s %16.6f %s%s\n", m.name.c_str(), m.value,
                   m.unit.c_str(),
                   m.scope == Scope::kExtra ? "  (not in result)" : "");
    }
  }

  std::string ResultJson(Scope scope) const {
    std::string out = "{";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.scope != scope) continue;
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", first ? "" : ", ", m.name.c_str(),
                    m.value, m.unit.c_str());
      out += buf;
      first = false;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace xpred::perfbench

#endif  // XPRED_PERFBENCH_COMMON_H_
