// Human-readable run report: the `--metrics` view. Counters and
// histogram quantiles in aligned text, plus per-thread span accounting when
// a full Telemetry is at hand.
#pragma once

#include <iosfwd>

#include "gammaflow/common/stats.hpp"
#include "gammaflow/obs/telemetry.hpp"

namespace gammaflow::obs {

/// Prints a metrics snapshot grouped as counters / histograms.
void write_report(std::ostream& os, const MetricsSnapshot& metrics);

/// Full report: metrics plus one line per registered thread (events
/// recorded, events dropped by ring overflow).
void write_report(std::ostream& os, const Telemetry& telemetry);

}  // namespace gammaflow::obs
