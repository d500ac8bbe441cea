// Plain-text (de)serialization for dataflow graphs — the exchange format the
// examples and round-trip tests use. Line oriented, key=value fields:
//
//   dataflow v1
//   node kind=const value=5 name='x'
//   node kind=arith op=+ name='R1'
//   edge src=0 sport=0 dst=1 dport=0 label='A1'
//
// Nodes are implicitly numbered in declaration order. parse(print(g)) is a
// structurally identical graph (tested property).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "gammaflow/dataflow/graph.hpp"

namespace gammaflow::dataflow {

void write_text(std::ostream& os, const Graph& graph);

/// Throws ParseError (with line info) on malformed input and GraphError on
/// structurally invalid graphs.
[[nodiscard]] Graph parse_text(std::string_view text);

}  // namespace gammaflow::dataflow
