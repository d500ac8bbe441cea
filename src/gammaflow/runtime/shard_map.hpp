// Label routing of the multiset for the distributed cluster (a cluster
// node IS a shard with a network between it and its peers):
//
//   ShardMap      — label -> shard routing: the cluster's placement and
//                   stirring hint, built from the interference analysis's
//                   label affinity (`distrib --affinity`).
//   EpochShardMap — the rendezvous-hashed form the elastic cluster
//                   rebalances with, one map per membership epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/multiset.hpp"

namespace gammaflow::runtime {

/// Label -> shard routing: `home()` is the hint, nullopt when the element
/// carries no mapped label. The cluster builds one from label_affinity with
/// shards = nodes.
class ShardMap {
 public:
  ShardMap(std::unordered_map<std::string, std::size_t> label_shard,
           std::size_t shards) noexcept
      : label_shard_(std::move(label_shard)), shards_(shards ? shards : 1) {}

  /// The shard of the element's label: nullopt when there is no map, the
  /// element has no string label at field 1, or the label is unmapped.
  [[nodiscard]] std::optional<std::size_t> home(const gamma::Element& e) const;

 private:
  std::unordered_map<std::string, std::size_t> label_shard_;
  std::size_t shards_;
};

/// Label -> node routing over an EXPLICIT member set, the consistent-hash
/// extension of ShardMap the elastic cluster rebalances with. ShardMap
/// routes `key % shards`, so adding a shard reshuffles almost every label;
/// EpochShardMap uses rendezvous (highest-random-weight)
/// hashing instead: each (key, member) pair gets a deterministic weight and
/// the key lives on the member with the highest weight. Membership changes
/// therefore move exactly the keys the new member wins (join) or the leaver
/// owned (leave) — everything else keeps its owner, which is what makes the
/// cluster's rebalance incremental (the cluster builds one per membership
/// epoch). `moved()` is the delta predicate the rebalance (and the
/// epoch-delta tests) are built on.
class EpochShardMap {
 public:
  EpochShardMap() = default;
  explicit EpochShardMap(std::vector<std::size_t> members)
      : members_(std::move(members)) {}

  [[nodiscard]] const std::vector<std::size_t>& members() const noexcept {
    return members_;
  }

  /// The stable routing key of an element: FNV-1a of the field-1 string
  /// label when present (all elements of one label co-route, the repo-wide
  /// [value, 'label', ...] convention), else the element's tuple hash.
  /// FNV-1a is spelled out here so the key — and therefore which labels a
  /// rebalance moves — is identical on every platform and every run.
  [[nodiscard]] static std::uint64_t key_of(const gamma::Element& e) {
    if (e.arity() >= 2 && e.field(1).is_str()) {
      const std::string& label = e.field(1).as_str();
      std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit
      for (const char c : label) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
      }
      return h;
    }
    return e.hash();
  }

  /// Rendezvous weight of placing `key` on `member` (pure mixing, no state:
  /// splitmix64 advances a stream, so the member id and the combined value
  /// each get a throwaway one-step stream of their own).
  [[nodiscard]] static std::uint64_t weight(std::uint64_t key,
                                            std::size_t member) noexcept {
    std::uint64_t m = static_cast<std::uint64_t>(member);
    std::uint64_t x = key ^ (0x9e3779b97f4a7c15ULL + splitmix64(m));
    return splitmix64(x);
  }

  /// HRW argmax over the members. Requires a non-empty member set.
  [[nodiscard]] std::size_t owner_of(std::uint64_t key) const {
    std::size_t best = members_.front();
    std::uint64_t best_w = weight(key, best);
    for (std::size_t i = 1; i < members_.size(); ++i) {
      const std::uint64_t w = weight(key, members_[i]);
      if (w > best_w || (w == best_w && members_[i] < best)) {
        best = members_[i];
        best_w = w;
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t owner(const gamma::Element& e) const {
    return owner_of(key_of(e));
  }

  /// Did `key` change owner between two maps? The incremental-rebalance
  /// contract: under HRW this is true exactly for keys won by a joiner or
  /// orphaned by a leaver.
  [[nodiscard]] static bool moved(std::uint64_t key, const EpochShardMap& a,
                                  const EpochShardMap& b) {
    return a.owner_of(key) != b.owner_of(key);
  }

 private:
  std::vector<std::size_t> members_;
};

}  // namespace gammaflow::runtime
