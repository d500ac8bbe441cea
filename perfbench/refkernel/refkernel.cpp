// Reference kernel for perfbench: a fixed mix of hashing, allocation,
// branching and sorting that no gammaflow change touches. Each line read on
// stdin runs it once and prints the elapsed nanoseconds, so the benchmark can
// express its timings in units of this CPU's current speed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

std::uint64_t kernel() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::vector<std::string> names;
  std::vector<std::uint64_t> batch;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const std::uint64_t k = next() % 4096;
    auto it = map.find(k);
    if (it == map.end()) {
      map.emplace(k, i);
    } else if ((it->second & 3) == 0) {
      map.erase(it);
    } else {
      it->second += k;
    }
    if (i % 8 == 0) names.push_back("k" + std::to_string(k));
    batch.push_back(next() % 100000);
    if (batch.size() == 64) {
      std::sort(batch.begin(), batch.end());
      acc += batch[32];
      batch.clear();
    }
  }
  for (const std::string& s : names) acc += s.size();
  return acc + map.size();
}

}  // namespace

int main() {
  std::string line;
  std::uint64_t sink = 0;
  while (std::getline(std::cin, line)) {
    const auto t0 = std::chrono::steady_clock::now();
    sink += kernel();
    const auto t1 = std::chrono::steady_clock::now();
    // Printing the checksum bit keeps the kernel from being optimized away.
    std::cout << std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()
              << ' ' << (sink & 1) << std::endl;
  }
  return 0;
}
