#include "gammaflow/dataflow/match_store.hpp"

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

namespace gammaflow::dataflow {

MatchStore::MatchStore(const Graph& graph)
    : tables_(graph.node_count()), arity_(graph.node_count()) {
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    arity_[n] = static_cast<std::uint8_t>(input_arity(graph.node(n)));
  }
}

MatchStore::Put MatchStore::put(NodeId node, PortId port, Tag tag,
                                Value&& value, OperandFrame& ready) {
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << port);
  if (arity_[node] == 1) {
    ready.values[0] = std::move(value);
    ready.filled = bit;
    return Put::Ready;
  }
  Table& t = tables_[node];
  Slot& slot = find_or_insert(t, tag);
  if ((slot.frame.filled & bit) != 0) return Put::Duplicate;
  slot.frame.values[port] = std::move(value);
  slot.frame.filled |= bit;
  if (slot.frame.filled != (1u << arity_[node]) - 1) return Put::Waiting;
  ready = std::move(slot.frame);
  erase(t, static_cast<std::size_t>(&slot - t.slots.data()));
  return Put::Ready;
}

void MatchStore::park(NodeId node, Tag tag, OperandFrame frame) {
  find_or_insert(tables_[node], tag).frame = std::move(frame);
}

void MatchStore::append_to(std::vector<PendingOperand>& out) const {
  for (NodeId node = 0; node < tables_.size(); ++node) {
    for (const Slot& s : tables_[node].slots) {
      for (PortId p = 0; p < kMaxInputs; ++p) {
        if ((s.frame.filled & (1u << p)) != 0) {
          out.push_back(PendingOperand{node, p, s.tag, s.frame.values[p]});
        }
      }
    }
  }
}

std::size_t MatchStore::home(const Table& t, Tag tag) noexcept {
  return static_cast<std::size_t>((tag * 0x9e3779b97f4a7c15ULL) >> t.shift);
}

MatchStore::Slot& MatchStore::find_or_insert(Table& t, Tag tag) {
  if (2 * (t.size + 1) > t.slots.size()) grow(t);
  const std::size_t mask = t.slots.size() - 1;
  std::size_t i = home(t, tag);
  while (t.slots[i].frame.filled != 0) {
    if (t.slots[i].tag == tag) return t.slots[i];
    i = (i + 1) & mask;
  }
  // The caller fills a port at once, which is what marks the slot taken.
  ++t.size;
  t.slots[i].tag = tag;
  return t.slots[i];
}

void MatchStore::grow(Table& t) {
  std::vector<Slot> old = std::move(t.slots);
  const std::size_t capacity = old.empty() ? 8 : 2 * old.size();
  t.slots.assign(capacity, Slot{});
  t.shift = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (Slot& s : old) {
    if (s.frame.filled == 0) continue;
    std::size_t i = home(t, s.tag);
    while (t.slots[i].frame.filled != 0) i = (i + 1) & mask;
    t.slots[i] = std::move(s);
  }
}

void MatchStore::erase(Table& t, std::size_t index) {
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically after the hole, so every remaining
  // entry stays reachable from its home without tombstones.
  const std::size_t mask = t.slots.size() - 1;
  std::size_t hole = index;
  for (std::size_t j = (hole + 1) & mask; t.slots[j].frame.filled != 0;
       j = (j + 1) & mask) {
    if (((j - home(t, t.slots[j].tag)) & mask) >= ((j - hole) & mask)) {
      t.slots[hole] = std::move(t.slots[j]);
      hole = j;
    }
  }
  t.slots[hole].frame.filled = 0;  // its values were moved out
  --t.size;
}

void sort_leftovers(std::vector<PendingOperand>& leftovers) {
  std::stable_sort(leftovers.begin(), leftovers.end(),
                   [](const PendingOperand& a, const PendingOperand& b) {
                     return std::tie(a.node, a.tag, a.port) <
                            std::tie(b.node, b.tag, b.port);
                   });
}

obs::StoreCounts journal_store(
    const Graph& graph,
    const Outputs& outputs,
    const std::vector<PendingOperand>& parked) {
  obs::StoreCounts counts;
  for (const auto& [name, tokens] : outputs) {
    for (const auto& [tag, value] : tokens) {
      ++counts[journal_output_str(name, tag, value)];
    }
  }
  for (const PendingOperand& p : parked) {
    ++counts[journal_token_str(graph, p.node, p.port, p.tag, p.value)];
  }
  return counts;
}

}  // namespace gammaflow::dataflow
