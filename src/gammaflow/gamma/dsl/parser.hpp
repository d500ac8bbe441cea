// Parser for the Gamma surface syntax of Fig. 3, exactly as the paper's
// listings write it (case-insensitive keywords, single-quoted labels):
//
//   program  := stmt ( ('|' | ';')? stmt )*        -- '|' joins the current
//                                                  -- stage, ';' starts a new
//                                                  -- sequential stage
//   stmt     := IDENT '=' 'replace' patterns branch+
//   patterns := pattern (',' pattern)*
//   pattern  := '[' pfield (',' pfield)* ']' | IDENT
//   pfield   := IDENT | literal                    -- IDENT binds, literal
//                                                  -- constrains
//   branch   := 'by' outputs ('if' expr | 'else' | 'where' expr)?
//   outputs  := '0' | otuple (',' otuple)*         -- 'by 0' produces nothing
//   otuple   := '[' expr (',' expr)* ']' | expr    -- bare expr = 1-tuple
//
// Reactions separated by nothing (juxtaposition) compose in parallel, same
// as '|' — matching the paper's convention R1|R2|...|Rn.
#pragma once

#include <string>
#include <string_view>

#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::gamma::dsl {

/// Parses a whole program. Throws ParseError with location on bad syntax and
/// ProgramError on semantically invalid reactions (unbound output variables,
/// misplaced else, duplicate reaction names).
[[nodiscard]] Program parse_program(std::string_view source);

/// Parses exactly one reaction definition.
[[nodiscard]] Reaction parse_reaction(std::string_view source);

/// Reads a comma-separated multiset literal — the CLI `--init` syntax and
/// the serve protocol's `elements`/`init` fields: tuples in brackets
/// ("[3,'a'], [1,'b',0]") or bare literals as 1-tuples ("7, 9"). Fields must
/// fold to literals (constant expressions allowed); throws Error otherwise.
/// `out` is cleared first and holds the elements in reading order; after a
/// throw it holds an unspecified prefix, so a caller reads the whole text
/// before it uses any of it.
void read_elements(std::string_view source, FlatElements& out);

/// The same elements, read by the same grammar, as a Multiset.
[[nodiscard]] Multiset parse_elements(std::string_view source);

/// Renders a program in the surface syntax; parse_program(print(p)) yields a
/// structurally identical program (round-trip property, tested).
[[nodiscard]] std::string print(const Program& program);
[[nodiscard]] std::string print(const Reaction& reaction);

}  // namespace gammaflow::gamma::dsl
