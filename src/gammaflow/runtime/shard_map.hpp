// Conflict-class sharding of the multiset. PR 3's interference analysis
// proves that reactions in different conflict classes touch disjoint element
// populations (compete AND feed edges stay inside a class); this module
// turns that proof into a routing of elements to shards:
//
//   plan_shards   — decides whether a stage may be sharded, and assigns
//                   every reaction and every label to a shard. The plan is
//                   accepted only when it is STATICALLY sound (see below).
//                   `gammaflow viz --graph shards` draws it.
//   ShardMap      — label -> shard routing: the distributed cluster's
//                   placement and stirring hint (a cluster node IS a shard
//                   with a network between it and its peers).
//   EpochShardMap — the rendezvous-hashed form the elastic cluster
//                   rebalances with, one map per membership epoch.
//
// Soundness rules enforced by plan_shards (any failure => not sharded):
//   1. every reaction of the stage has a conflict class;
//   2. every pattern has >= 2 fields with a literal STRING label at field 1
//      (the repo-wide [value, 'label', ...] convention) — so element routing
//      by label is total over matchable elements;
//   3. a label consumed by reactions of two different classes is a
//      contradiction of rule-disjointness — refuse (defense against
//      hand-written class maps; analysis-produced maps cannot do this);
//   4. every output tuple's field-1 expression is a string literal, and a
//      produced label that some reaction consumes must map to the producing
//      reaction's own shard (feed edges stay in-class — analysis guarantees
//      it, the planner re-checks it).
// Under these rules an element either carries a mapped label (all reactions
// that can consume it live on its one shard) or can never match any pattern
// at all (inert: it parks on its hash shard and survives to the result).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::runtime {

struct ShardPlan {
  /// False => the stage has no sound shard plan.
  bool sharded = false;
  std::size_t shard_count = 1;
  /// Shard of each reaction, indexed by stage position.
  std::vector<std::size_t> reaction_shard;
  /// Shard of each consumed/produced label.
  std::unordered_map<std::string, std::size_t> label_shard;
};

/// Plans sharding for one stage from conflict classes (reaction name ->
/// class id, normally InterferenceReport::engine_classes()). Returns an
/// unsharded plan unless every soundness rule above holds and at least two
/// shards result. Class ids are renumbered densely into shard ids.
[[nodiscard]] ShardPlan plan_shards(
    const std::vector<gamma::Reaction>& stage,
    const std::map<std::string, std::size_t>& conflict_classes);

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
