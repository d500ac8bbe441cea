// Telemetry subsystem: histograms and snapshots, ring-buffer recorders,
// Chrome trace-event export shape, and end-to-end metrics through the
// engines of both runtimes.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gammaflow/common/stats.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/report.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/obs/trace_export.hpp"
#include "gammaflow/paper/figures.hpp"

namespace gammaflow {
namespace {

// --- Histogram -----------------------------------------------------------

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 1u);   // [1,2)
  EXPECT_EQ(Histogram::bucket_of(1.9), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 2u);   // [2,4)
  EXPECT_EQ(Histogram::bucket_of(3.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(4.0), 3u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 11u);
  EXPECT_EQ(Histogram::bucket_of(1e300), HistogramSnapshot::kBuckets - 1);
}

TEST(Histogram, SnapshotCountsSumMinMax) {
  Histogram h;
  for (const double x : {1.0, 2.0, 3.0, 100.0}) h.observe(x);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 106.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 26.5);
  EXPECT_EQ(s.buckets[1], 1u);  // 1.0
  EXPECT_EQ(s.buckets[2], 2u);  // 2.0, 3.0
  EXPECT_EQ(s.buckets[7], 1u);  // 100.0 in [64,128)
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileIsBucketUpperBoundCappedAtMax) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(10.0);  // bucket [8,16)
  h.observe(1000.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 16.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);  // capped at observed max
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(static_cast<double>(i));
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, kPerThread - 1);
}

TEST(HistogramSnapshot, MergeAddsBucketsAndExtremes) {
  Histogram a;
  Histogram b;
  a.observe(1.0);
  a.observe(2.0);
  b.observe(500.0);
  HistogramSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 500.0);
  s.merge(HistogramSnapshot{});  // empty merge is a no-op
  EXPECT_EQ(s.count, 3u);
}

// --- MetricsSnapshot -----------------------------------------------------

TEST(MetricsSnapshot, RegistrySnapshotRoundTrip) {
  StatsRegistry reg;
  reg.count("fires", 41);
  reg.count("fires");
  reg.hist("depth").observe(7.0);
  const MetricsSnapshot m = reg.snapshot();
  EXPECT_EQ(m.counters.at("fires"), 42u);
  EXPECT_EQ(m.histograms.at("depth").count, 1u);
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(MetricsSnapshot{}.empty());
}

TEST(MetricsSnapshot, MergeCombinesByName) {
  MetricsSnapshot a;
  a.counters["x"] = 1;
  MetricsSnapshot b;
  b.counters["x"] = 2;
  b.counters["y"] = 3;
  a.merge(b);
  EXPECT_EQ(a.counters["x"], 3u);
  EXPECT_EQ(a.counters["y"], 3u);
}

// --- ThreadRecorder / Telemetry ------------------------------------------

TEST(ThreadRecorder, RingKeepsNewestEventsOnOverflow) {
  obs::ThreadRecorder rec(1, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(obs::TraceEvent{"e", 'i', i, 0, 0, false});
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().ts_us, 6u);  // oldest surviving
  EXPECT_EQ(events.back().ts_us, 9u);   // newest
}

TEST(Telemetry, RegisterInternAndSpans) {
  obs::Telemetry tel;
  obs::ThreadRecorder& rec = tel.register_thread("t0");
  const char* name = tel.intern("my-span");
  EXPECT_STREQ(tel.intern("my-span"), name);  // stable on re-intern
  {
    obs::Span span(&tel, &rec, name);
    span.set_arg(7);
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_STREQ(events[0].name, "my-span");
  EXPECT_EQ(events[0].arg, 7u);
  const auto threads = tel.threads();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].name, "t0");
}

TEST(Telemetry, ReportListsThreadsByNameThenTid) {
  obs::Telemetry tel;
  tel.register_thread("gamma-part-1");
  tel.register_thread("gamma-part-0");
  tel.register_thread("gamma-part-1");
  std::ostringstream report;
  obs::write_report(report, tel);
  const std::string text = report.str();
  const auto block = text.find("threads:\n");
  ASSERT_NE(block, std::string::npos);
  std::istringstream lines(text.substr(block));
  std::string line;
  std::vector<std::string> names;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    if (line.rfind("  ", 0) == 0 && fields >> name) names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"gamma-part-0", "gamma-part-1",
                                             "gamma-part-1"}));
}

TEST(Telemetry, NullSpanIsANoOp) {
  obs::Span span(nullptr, nullptr, "ignored");  // must not crash in dtor
}

// --- Chrome trace exporter -----------------------------------------------

/// Minimal structural check of the trace-event JSON: one event object per
/// line, each carrying at least name/ph/ts/pid/tid, inside one array.
void check_trace_shape(const std::string& json, std::size_t expected_events) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  std::size_t objects = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find('{') == std::string::npos) continue;
    ++objects;
    for (const char* key : {"\"name\":", "\"ph\":", "\"ts\":", "\"pid\":",
                            "\"tid\":"}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "missing " << key << " in: " << line;
    }
  }
  EXPECT_EQ(objects, expected_events);
}

TEST(TraceExport, EmitsMetadataAndEventsWithRequiredKeys) {
  obs::Telemetry tel;
  obs::ThreadRecorder& r0 = tel.register_thread("alpha");
  obs::ThreadRecorder& r1 = tel.register_thread("beta");
  { obs::Span s(&tel, &r0, "work"); }
  r0.instant("mark", tel.now_us());
  r1.counter("depth", tel.now_us(), 5);
  std::ostringstream out;
  obs::write_chrome_trace(out, tel);
  // 2 thread_name metadata + 3 events.
  check_trace_shape(out.str(), 5);
  EXPECT_NE(out.str().find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.str().find("\"dur\":"), std::string::npos);
  EXPECT_NE(out.str().find("\"args\":{\"value\":5}"), std::string::npos);
}

TEST(TraceExport, EscapesNamesWithSpecials) {
  obs::Telemetry tel;
  obs::ThreadRecorder& rec = tel.register_thread("t\"quoted\"");
  rec.instant(tel.intern("a\\b\nc"), 0);
  std::ostringstream out;
  obs::write_chrome_trace(out, tel);
  EXPECT_NE(out.str().find("t\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.str().find("a\\\\b\\nc"), std::string::npos);
}

// --- end-to-end through the Gamma parallel engine ------------------------

TEST(TelemetryEndToEnd, ParallelGammaRunFillsTraceAndMetrics) {
  const gamma::Program p =
      gamma::dsl::parse_program("Rsum = replace x, y by x + y");
  gamma::Multiset m;
  for (int i = 1; i <= 256; ++i) m.add(gamma::Element{Value(i)});

  obs::Telemetry tel;
  gamma::RunOptions opts;
  opts.workers = 4;
  opts.telemetry = &tel;
  const auto result = gamma::ParallelEngine().run(p, m, opts);

  EXPECT_EQ(result.steps, 255u);
  EXPECT_GT(result.metrics.counters.at("gamma.match_attempts"), 0u);
  EXPECT_EQ(result.metrics.counters.at("gamma.fires"), 255u);
  EXPECT_GT(result.metrics.counters.at("gamma.passes"), 0u);
  EXPECT_EQ(result.metrics.histograms.at("gamma.fire_us.Rsum").count, 255u);

  // Spans from at least two distinct worker threads in the exported trace.
  std::ostringstream out;
  obs::write_chrome_trace(out, tel);
  const std::string json = out.str();
  std::set<std::string> span_tids;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto pos = line.find("\"tid\":");
    ASSERT_NE(pos, std::string::npos);
    span_tids.insert(line.substr(pos, line.find_first_of(",}", pos) - pos));
  }
  EXPECT_GE(span_tids.size(), 2u);

  // The report renders without blowing up and mentions the counters.
  std::ostringstream report;
  obs::write_report(report, tel);
  EXPECT_NE(report.str().find("gamma.match_attempts"), std::string::npos);
  EXPECT_NE(report.str().find("threads:"), std::string::npos);
}

TEST(TelemetryEndToEnd, InterpreterCountsFiresByOpcode) {
  obs::Telemetry tel;
  dataflow::DfRunOptions opts;
  opts.telemetry = &tel;
  const auto result =
      dataflow::Interpreter().run(paper::fig2_graph(4, 5, 100, true), opts);
  EXPECT_EQ(result.metrics.counters.at("df.fires"), result.fires);
  EXPECT_GT(result.metrics.counters.at("df.fires.steer"), 0u);
  // The loop runs 4 iterations: 4 TRUE steerings per steer gate, then FALSE.
  EXPECT_GT(result.metrics.counters.at("df.steer_true"), 0u);
  EXPECT_GT(result.metrics.counters.at("df.steer_false"), 0u);
  EXPECT_GT(result.metrics.histograms.at("df.inctag_depth").count, 0u);
  EXPECT_GT(result.metrics.histograms.at("df.wavefront_width").count, 0u);
}

TEST(TelemetryEndToEnd, ParallelDataflowCountsAbsorbedTokens) {
  obs::Telemetry tel;
  dataflow::DfRunOptions opts;
  opts.workers = 3;
  opts.telemetry = &tel;
  const auto result = dataflow::ParallelEngine().run(
      paper::fig2_graph(4, 5, 100, true), opts);
  EXPECT_EQ(result.metrics.counters.at("df.fires"), result.fires);
  EXPECT_GT(result.metrics.counters.at("df.tokens_absorbed"), 0u);
  EXPECT_GT(result.metrics.counters.at("df.fires.arith"), 0u);
}

TEST(TelemetryEndToEnd, ParallelEnginesRegisterTraceThreadsInWorkerOrder) {
  // Tids number registrations, so each parallel engine registers its
  // workers before any starts, in worker order: a traced run gets the same
  // tid map every time.
  const auto names = [](const obs::Telemetry& tel) {
    std::vector<std::string> out;
    for (const auto& t : tel.threads()) out.push_back(t.name);
    return out;
  };
  for (int run = 0; run < 3; ++run) {
    obs::Telemetry gamma_tel;
    gamma::RunOptions gopts;
    gopts.workers = 4;
    gopts.telemetry = &gamma_tel;
    gamma::Multiset m;
    for (int i = 1; i <= 64; ++i) m.add(gamma::Element{Value(i)});
    (void)gamma::ParallelEngine().run(
        gamma::dsl::parse_program("Rsum = replace x, y by x + y"), m, gopts);
    // Level 0 runs parts 0-3; the merges rerun parts 0 and 2, then 0.
    EXPECT_EQ(names(gamma_tel),
              (std::vector<std::string>{"gamma-part-0", "gamma-part-1",
                                        "gamma-part-2", "gamma-part-3",
                                        "gamma-part-0", "gamma-part-2",
                                        "gamma-part-0"}));

    obs::Telemetry df_tel;
    dataflow::DfRunOptions dopts;
    dopts.workers = 4;
    dopts.telemetry = &df_tel;
    (void)dataflow::ParallelEngine().run(paper::fig2_graph(4, 5, 100, true),
                                         dopts);
    EXPECT_EQ(names(df_tel),
              (std::vector<std::string>{"df-worker-0", "df-worker-1",
                                        "df-worker-2", "df-worker-3"}));
  }
}

TEST(TelemetryEndToEnd, DisabledTelemetryLeavesMetricsEmpty) {
  const gamma::Program p =
      gamma::dsl::parse_program("Rsum = replace x, y by x + y");
  gamma::Multiset m;
  for (int i = 1; i <= 8; ++i) m.add(gamma::Element{Value(i)});
  const auto result = gamma::IndexedEngine().run(p, m);
  EXPECT_TRUE(result.metrics.empty());
}

}  // namespace
}  // namespace gammaflow
