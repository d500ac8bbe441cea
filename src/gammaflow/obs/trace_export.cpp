#include "gammaflow/obs/trace_export.hpp"

#include <ostream>
#include <string>

#include "gammaflow/common/json.hpp"

namespace gammaflow::obs {
namespace {

constexpr int kPid = 1;  // single-process tool; Chrome requires some pid

void write_event(std::ostream& os, const TraceEvent& ev, std::uint32_t tid,
                 bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":" << json_quote(ev.name) << ",\"ph\":\"" << ev.phase
     << "\",\"ts\":" << ev.ts_us << ",\"pid\":" << kPid << ",\"tid\":" << tid;
  if (ev.phase == 'X') os << ",\"dur\":" << ev.dur_us;
  if (ev.phase == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
  if (ev.phase == 'C' || ev.has_arg) {
    os << ",\"args\":{\"value\":" << ev.arg << '}';
  }
  os << '}';
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Telemetry& telemetry) {
  os << "[\n";
  bool first = true;
  const auto threads = telemetry.threads();
  for (const auto& t : threads) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << kPid
       << ",\"tid\":" << t.recorder->tid()
       << ",\"args\":{\"name\":" << json_quote(t.name) << "}}";
  }
  for (const auto& t : threads) {
    for (const TraceEvent& ev : t.recorder->events()) {
      write_event(os, ev, t.recorder->tid(), first);
    }
  }
  os << "\n]\n";
}

}  // namespace gammaflow::obs
