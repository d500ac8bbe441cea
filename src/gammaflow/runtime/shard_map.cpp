#include "gammaflow/runtime/shard_map.hpp"

namespace gammaflow::runtime {

std::optional<std::size_t> ShardMap::home(const gamma::Element& e) const {
  if (label_shard_.empty()) return std::nullopt;
  if (e.arity() < 2 || !e.field(1).is_str()) return std::nullopt;
  const auto it = label_shard_.find(e.field(1).as_str());
  if (it == label_shard_.end()) return std::nullopt;
  return it->second % shards_;
}

}  // namespace gammaflow::runtime
