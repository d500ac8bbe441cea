// MatchStore: the tag-matching store both dataflow engines park operands in
// (the TALM firing rule of the paper's §II-A). An instance (node, tag) waits
// here until every input port holds an operand with that tag.
//
// Every NodeKind takes at most two inputs (node.hpp), so an instance's
// operands fit an inline OperandFrame. Each node has its own open-addressing
// table keyed by tag (linear probing, load ≤ 1/2, backward-shift erase, no
// tombstones), so parking and matching allocate nothing once a table has
// grown to the node's peak number of waiting instances.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"

namespace gammaflow::dataflow {

inline constexpr std::size_t kMaxInputs = 2;

/// The operands of one node instance; bit p of `filled` is set once port p
/// holds an operand.
struct OperandFrame {
  std::array<Value, kMaxInputs> values;
  std::uint8_t filled = 0;

  [[nodiscard]] std::span<const Value> operands(std::size_t arity) const {
    return {values.data(), arity};
  }
};

class MatchStore {
 public:
  enum class Put : std::uint8_t { Waiting, Ready, Duplicate };

  MatchStore() = default;
  /// One empty table per node of `graph`, with each node's input arity.
  explicit MatchStore(const Graph& graph);

  [[nodiscard]] std::size_t arity(NodeId node) const { return arity_[node]; }

  /// Parks `value` on (node, port) under `tag`. Ready: the instance is
  /// complete, its operands moved into `ready` and its entry erased (a
  /// one-input node is complete at once and never touches its table).
  /// Duplicate: the port already holds an operand with this tag, a
  /// single-assignment violation; nothing changes.
  Put put(NodeId node, PortId port, Tag tag, Value&& value,
          OperandFrame& ready);

  /// Parks a whole frame back under (node, tag), which must not be waiting.
  void park(NodeId node, Tag tag, OperandFrame frame);

  /// Appends every parked operand to `out`.
  void append_to(std::vector<PendingOperand>& out) const;

 private:
  struct Slot {
    Tag tag = 0;
    OperandFrame frame;  // empty slot iff frame.filled == 0
  };
  struct Table {
    std::vector<Slot> slots;  // power-of-two size, or empty
    std::size_t size = 0;
    unsigned shift = 64;  // home(tag) = (tag * golden) >> shift
  };

  [[nodiscard]] static std::size_t home(const Table& t, Tag tag) noexcept;
  static Slot& find_or_insert(Table& t, Tag tag);
  static void grow(Table& t);
  static void erase(Table& t, std::size_t index);

  std::vector<Table> tables_;
  std::vector<std::uint8_t> arity_;
};

/// Sorts leftovers into the order both engines report them: by node, then
/// tag, then port (stable, so equal keys keep their collection order).
void sort_leftovers(std::vector<PendingOperand>& leftovers);

/// The journal's view of a dataflow store: every captured output plus every
/// parked operand, in the shared canonical renderings.
[[nodiscard]] obs::StoreCounts journal_store(
    const Graph& graph,
    const Outputs& outputs, const std::vector<PendingOperand>& parked);

}  // namespace gammaflow::dataflow
