// Dataflow execution: tagged-token firing rule. A node instance (node, tag)
// fires once all its input ports hold an operand with that tag — operands of
// different iterations never meet, which is what lets dynamic dataflow run
// loop iterations concurrently.
//
// Two engines with identical observable results:
//   Interpreter     — single-threaded, FIFO wavefronts; also measures the
//                     graph's intrinsic parallelism profile.
//   ParallelEngine  — PEs (worker threads) own hash-partitioned nodes, route
//                     tokens via MPSC inboxes, and terminate by in-flight
//                     token counting.
// Both park waiting operands in a MatchStore (match_store.hpp): per-node
// tag tables with inline two-operand frames, so matching allocates nothing
// once the tables have grown. Both fire a ready instance through one
// FireStep (fire_step.hpp), which counts, applies, journals and routes it,
// and seeds the Const roots. Both report leftovers sorted by
// (node, tag, port).
// Both are thin policies over runtime::StepLoop / StopFlag / InFlight; the
// deadline/cancel/budget/telemetry scaffolding is shared with the Gamma
// engines and the distributed cluster.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/common/value.hpp"
#include "gammaflow/dataflow/graph.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::dataflow {

/// Iteration tag (the "instance number" of the paper's §II-A).
using Tag = std::uint64_t;

struct Token {
  Value value;
  Tag tag = 0;
};

struct DfRunOptions : runtime::RunOptions {
  /// Firing budget; exceeded => EngineError (guards divergent loop graphs).
  std::uint64_t max_fires = 50'000'000;
  /// Instruction-level trace reuse (DF-DTM, the paper's ref [3] and one of
  /// the §I benefits the equivalence unlocks for Gamma programs): memoize
  /// (node, operand values) -> result for pure Arith/Cmp nodes and reuse
  /// instead of recomputing. Interpreter only; hit/miss counts land in
  /// DfRunResult. Observable results are unchanged (tested).
  bool memoize = false;
};

/// An operand parked in a matching store with no partner when the machine
/// quiesced. Converted programs leave these exactly where the equivalent
/// Gamma program leaves unreacted elements.
struct PendingOperand {
  NodeId node = 0;
  PortId port = 0;
  Tag tag = 0;
  Value value;

  friend bool operator==(const PendingOperand&,
                         const PendingOperand&) = default;
};

/// Output-node results keyed by node name, as (tag, value) in arrival order.
using Outputs = std::map<std::string, std::vector<std::pair<Tag, Value>>>;

struct DfRunResult {
  /// output_values("m") gives just the values of output "m" sorted by tag.
  Outputs outputs;
  /// Why the run returned. Anything but Completed means outputs/leftovers
  /// are the valid PARTIAL state at the stop point (tokens still queued at
  /// the stop are reported as leftovers, not lost silently).
  Outcome outcome = Outcome::Completed;
  std::uint64_t fires = 0;
  std::vector<std::uint64_t> fires_by_node;  // indexed by NodeId
  /// Interpreter only: number of simultaneously fireable node instances per
  /// wavefront — the graph's exposed parallelism over time.
  std::vector<std::size_t> wavefronts;
  /// Sorted by (node, tag, port) on both engines.
  std::vector<PendingOperand> leftovers;
  /// Trace-reuse statistics (only meaningful when options.memoize).
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// Engine-internal metrics (firings by opcode, steer branches, queue
  /// depths, ...); empty unless DfRunOptions::telemetry was set.
  MetricsSnapshot metrics;
  double wall_seconds = 0.0;

  /// Values of one output sorted by tag; throws if the name is unknown.
  [[nodiscard]] std::vector<Value> output_values(const std::string& name) const;
  /// The single value of output `name`; throws unless exactly one token
  /// arrived (the common case for expression graphs like Fig. 1).
  [[nodiscard]] Value single_output(const std::string& name) const;
};

class DfEngine {
 public:
  virtual ~DfEngine() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Runs the graph: every Const node emits its value with tag 0.
  [[nodiscard]] virtual DfRunResult run(const Graph& graph,
                                        const DfRunOptions& options) const = 0;

  [[nodiscard]] DfRunResult run(const Graph& graph) const {
    return run(graph, DfRunOptions{});
  }
};

class Interpreter final : public DfEngine {
 public:
  using DfEngine::run;
  [[nodiscard]] std::string name() const override { return "interpreter"; }
  [[nodiscard]] DfRunResult run(const Graph& graph,
                                const DfRunOptions& options) const override;
};

class ParallelEngine final : public DfEngine {
 public:
  using DfEngine::run;
  [[nodiscard]] std::string name() const override { return "parallel"; }
  [[nodiscard]] DfRunResult run(const Graph& graph,
                                const DfRunOptions& options) const override;
};

/// Computes the token a node emits when firing with `inputs` (tag-matched,
/// indexed by input port). Applied by the FireStep and by the optimizer's
/// constant folding, and unit-testable in isolation; fewer inputs than the
/// node's arity throw EngineError. For Steer the result is (value, port):
/// port 0=true, 1=false. IncTag/DecTag adjust the tag. Output nodes return
/// no emission.
struct Firing {
  bool emits = false;
  Value value;
  Tag tag = 0;
  PortId port = 0;
};
[[nodiscard]] Firing fire_node(const Node& node, std::span<const Value> inputs,
                               Tag tag);

/// Canonical run-journal rendering of a token parked at (dst, port) with
/// `tag`: producers (emissions onto an in-edge) and consumers (firings)
/// render the same token identically, which is what makes journal
/// fire-replay exact. Used by the FireStep and the round-trip tests.
[[nodiscard]] std::string journal_token_str(const Graph& graph, NodeId dst,
                                            PortId port, Tag tag,
                                            const Value& value);
/// Journal rendering of a captured output (persists in the final store).
[[nodiscard]] std::string journal_output_str(const std::string& name, Tag tag,
                                             const Value& value);

/// The error both engines raise when a second operand reaches an occupied
/// (tag, port) slot: the graph violates the single-assignment discipline
/// for that iteration.
[[nodiscard]] EngineError duplicate_operand(NodeId node, PortId port, Tag tag);

}  // namespace gammaflow::dataflow
