#include "gammaflow/obs/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <tuple>

namespace gammaflow::obs {

void write_report(std::ostream& os, const MetricsSnapshot& metrics) {
  if (!metrics.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : metrics.counters) {
      os << "  " << std::left << std::setw(36) << name << std::right
         << std::setw(14) << value << '\n';
    }
  }
  if (!metrics.histograms.empty()) {
    os << "histograms:\n";
    for (const auto& [name, h] : metrics.histograms) {
      os << "  " << std::left << std::setw(36) << name << std::right
         << " n=" << h.count << " mean=" << h.mean()
         << " p50=" << h.quantile(0.5) << " p90=" << h.quantile(0.9)
         << " p99=" << h.quantile(0.99) << " max=" << h.max << '\n';
    }
  }
  if (metrics.empty()) os << "(no metrics recorded)\n";
}

void write_report(std::ostream& os, const Telemetry& telemetry) {
  write_report(os, telemetry.metrics());
  auto threads = telemetry.threads();
  if (threads.empty()) return;
  // Registration order depends on which worker started first; name order
  // (then tid) does not.
  std::sort(threads.begin(), threads.end(), [](const auto& a, const auto& b) {
    return std::forward_as_tuple(a.name, a.recorder->tid()) <
           std::forward_as_tuple(b.name, b.recorder->tid());
  });
  os << "threads:\n";
  for (const auto& t : threads) {
    os << "  " << std::left << std::setw(36) << t.name << std::right
       << " events=" << t.recorder->recorded()
       << " dropped=" << t.recorder->dropped() << '\n';
  }
}

}  // namespace gammaflow::obs
