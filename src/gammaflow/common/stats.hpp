// Lightweight execution statistics shared by both runtimes and the benches:
// monotonically increasing counters (thread-safe), log-bucketed latency
// histograms (count/sum/min/max plus buckets), and a named-metric registry
// with plain-value snapshots that travel inside RunResult/DfRunResult.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <mutex>
#include <string>

namespace gammaflow {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Plain-value view of a Histogram; copyable, lives inside RunResult.
/// Bucket b counts observations x with 2^(b-1) <= x < 2^b (bucket 0: x < 1).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  /// Estimated value at quantile q in [0,1]: the upper bound of the bucket
  /// containing the q-th observation (exact for min/max extremes).
  [[nodiscard]] double quantile(double q) const noexcept;
  void merge(const HistogramSnapshot& other) noexcept;
};

/// Log-bucketed (powers of two) histogram; lock-free multi-writer recording
/// through relaxed atomics, so engines can observe from worker threads
/// without serializing on a mutex.
class Histogram {
 public:
  void observe(double x) noexcept;
  /// Bulk form: records `n` observations of value x in O(1) — the shape
  /// engines use to replay a per-process bucket tally (e.g. batch widths)
  /// into a run-scoped histogram without n individual observes.
  void observe_n(double x, std::uint64_t n) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;
  /// Bucket index for value x (shared with HistogramSnapshot::quantile).
  [[nodiscard]] static std::size_t bucket_of(double x) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Everything a StatsRegistry held, as plain values: the form in which a
/// run's metrics are returned to callers and serialized by the benches.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && histograms.empty();
  }
  /// Adds counters and merges histograms name-by-name.
  void merge(const MetricsSnapshot& other);

  friend std::ostream& operator<<(std::ostream& os, const MetricsSnapshot& m);
};

/// Named-metric registry a run can fill and a bench can print uniformly.
class StatsRegistry {
 public:
  void count(const std::string& name, std::uint64_t n = 1);
  /// Named histogram; created on first use. The returned reference stays
  /// valid for the registry's lifetime (node-based map) and is safe to
  /// observe from multiple threads without further locking.
  Histogram& hist(const std::string& name);
  void observe_hist(const std::string& name, double x) { hist(name).observe(x); }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] MetricsSnapshot snapshot() const;
  void clear();

  friend std::ostream& operator<<(std::ostream& os, const StatsRegistry& reg);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace gammaflow
