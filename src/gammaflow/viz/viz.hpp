// Visualization: the renderer half of ROADMAP item 5 (`gammaflow viz`).
// Consumes the structures the rest of the system already computes — dataflow
// graphs (dataflow/graph.hpp), interference reports and conflict classes
// (analysis/interference.hpp), and run journals (obs/run_recorder.hpp) —
// and renders them as:
//
//   * DOT, one writer per graph kind, and
//   * one SELF-CONTAINED interactive HTML file: embedded JSON, inline CSS
//     and JS, no network dependencies — a pan/zoom node graph colored by
//     conflict class, a per-round & per-fire store-evolution
//     scrubber over the journal, and a provenance view (click a fired
//     reaction, see what it consumed and produced).
//
// Everything here is a pure function of its inputs writing to a stream; the
// CLI (`gammaflow viz`, `gammaflow dot`) owns file handling.
#pragma once

#include <iosfwd>
#include <string>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/dataflow/graph.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/obs/run_recorder.hpp"

namespace gammaflow::viz {

/// Dataflow graph in the paper's shape conventions: squares for roots
/// (Const), circles for operators, triangles for Steer, diamonds (lozenges)
/// for IncTag/DecTag, double circles for Output. Names, edge labels and the
/// title are DOT-escaped.
void write_dot(std::ostream& os, const dataflow::Graph& graph,
               const std::string& title = "dataflow");
[[nodiscard]] std::string to_dot(const dataflow::Graph& graph,
                                 const std::string& title = "dataflow");

/// Interference graph: one node per reaction (labelled with its footprint),
/// clustered by conflict class. Edge styles carry the relation kind:
/// compete = solid red, feed-only = dashed blue, both = bold purple.
void write_interference_dot(std::ostream& os, const gamma::Program& program,
                            const analysis::InterferenceReport& report,
                            const std::string& title = "interference");

/// Conflict-class partition: one box per class listing its reactions —
/// reactions in different boxes touch provably disjoint elements.
void write_classes_dot(std::ostream& os, const gamma::Program& program,
                       const analysis::InterferenceReport& report,
                       const std::string& title = "classes");

/// Inputs for the HTML renderer; null members simply omit that panel.
/// Exactly one of `graph` (dataflow view) / `program` (Gamma view) should
/// be set — when both are, the dataflow graph is the main panel.
struct HtmlInputs {
  std::string title;
  const dataflow::Graph* graph = nullptr;
  const gamma::Program* program = nullptr;
  const analysis::InterferenceReport* interference = nullptr;
  const obs::Journal* journal = nullptr;
};

/// One self-contained HTML document (no external fetches; see module note).
/// The embedded JSON lives in <script id="gf-data" type="application/json">;
/// the DOM anchors #gf-graph, #gf-scrubber, #gf-store and #gf-provenance are
/// stable (smoke-tested).
void write_html(std::ostream& os, const HtmlInputs& inputs);

}  // namespace gammaflow::viz
