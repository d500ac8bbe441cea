// Dataflow-graph verifier — the graph-side counterpart of lint.hpp and the
// translation-validation oracle for Algorithm 1/2 outputs. Structure is not
// its job: every Graph comes from GraphBuilder::build(), which throws
// GraphError on a dangling endpoint, an out-of-range port, an unfed input,
// a duplicate edge label or an operator of the wrong kind. This pass
// verifies the semantic discipline the TALM model relies on:
//
//   df-untagged-cycle  E  a cycle that passes no IncTag/DecTag: every trip
//                         re-uses the same iteration tag, so loop waves
//                         collide (the Fig. 2 discipline violated)
//   df-steer-control   E/W control input fed by a Const whose value can
//                         never satisfy truthy() (error), or by an Arith
//                         (warning — Cmp is the idiomatic producer)
//   df-tag-mismatch    W  a join node whose input ports can only carry
//                         provably different iteration tags: it can never
//                         fire (tag-offset abstract interpretation)
//   df-unreachable     W  node not reachable from any Const root: it never
//                         receives a token
//   df-dead-node       W  node from which no Output is reachable (only
//                         checked when the graph has Output nodes)
//   df-deadlock        E  acyclic graphs only: a join node one of whose
//                         input ports provably never receives a token while
//                         another does — it starves forever
//   df-token-imbalance I  acyclic graphs only: input ports with provably
//                         unequal token counts (leftover tokens linger)
//   df-discarded-port  I  output port with no consumer (legal — Fig. 2's
//                         unused steer FALSE ports — but worth surfacing)
//
// Findings reuse the LintReport machinery so the CLI `check` subcommand
// reports both representations uniformly; `Finding::reaction` carries the
// node's name (or "#<id>" when unnamed).
#pragma once

#include "gammaflow/analysis/lint.hpp"
#include "gammaflow/dataflow/graph.hpp"

namespace gammaflow::analysis {

/// Verifies `graph`. Pure: collects every finding instead of throwing on
/// the first.
[[nodiscard]] LintReport verify_graph(const dataflow::Graph& graph);

}  // namespace gammaflow::analysis
