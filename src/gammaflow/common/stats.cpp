#include "gammaflow/common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

namespace gammaflow {

std::size_t Histogram::bucket_of(double x) noexcept {
  if (!(x >= 1.0)) return 0;  // also catches NaN
  const double capped = std::min(x, 0x1p62);
  const auto n = static_cast<std::uint64_t>(capped);
  const auto b = static_cast<std::size_t>(std::bit_width(n));
  return std::min(b, HistogramSnapshot::kBuckets - 1);
}

void Histogram::observe(double x) noexcept {
  buckets_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  double cur = min_.load(std::memory_order_relaxed);
  while (x < cur &&
         !min_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {}
  cur = max_.load(std::memory_order_relaxed);
  while (x > cur &&
         !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {}
}

void Histogram::observe_n(double x, std::uint64_t n) noexcept {
  if (n == 0) return;
  buckets_[bucket_of(x)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(x * static_cast<double>(n), std::memory_order_relaxed);
  double cur = min_.load(std::memory_order_relaxed);
  while (x < cur &&
         !min_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {}
  cur = max_.load(std::memory_order_relaxed);
  while (x > cur &&
         !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {}
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count ? min_.load(std::memory_order_relaxed) : 0.0;
  s.max = s.count ? max_.load(std::memory_order_relaxed) : 0.0;
  return s;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen > rank) {
      if (b == 0) return std::min(1.0, max);
      const double hi = std::ldexp(1.0, static_cast<int>(b));
      return std::min(hi, max);
    }
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) noexcept {
  if (other.count == 0) return;
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  if (count == 0 || other.min < min) min = other.min;
  if (count == 0 || other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, n] : other.counters) counters[name] += n;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

std::ostream& operator<<(std::ostream& os, const MetricsSnapshot& m) {
  for (const auto& [name, value] : m.counters) {
    os << name << " = " << value << '\n';
  }
  for (const auto& [name, h] : m.histograms) {
    os << name << ": n=" << h.count << " mean=" << h.mean()
       << " p50=" << h.quantile(0.5) << " p99=" << h.quantile(0.99)
       << " max=" << h.max << '\n';
  }
  return os;
}

void StatsRegistry::count(const std::string& name, std::uint64_t n) {
  std::lock_guard lock(mutex_);
  counters_[name] += n;
}

Histogram& StatsRegistry::hist(const std::string& name) {
  std::lock_guard lock(mutex_);
  return histograms_[name];
}

std::uint64_t StatsRegistry::counter(const std::string& name) const {
  std::lock_guard lock(mutex_);
  if (auto it = counters_.find(name); it != counters_.end()) return it->second;
  return 0;
}

MetricsSnapshot StatsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot s;
  s.counters = counters_;
  for (const auto& [name, h] : histograms_) s.histograms[name] = h.snapshot();
  return s;
}

void StatsRegistry::clear() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  histograms_.clear();
}

std::ostream& operator<<(std::ostream& os, const StatsRegistry& reg) {
  return os << reg.snapshot();
}

}  // namespace gammaflow
