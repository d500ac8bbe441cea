// The one match→validate→commit pipeline every Gamma runtime calls — the
// executable core of Eq. (1)'s "let x1..xn ∈ M such that Ri(x1..xn)". The
// backtracking candidate search used to live in gamma/store.cpp with each
// engine re-wrapping it; now the sequential/indexed/parallel engines, the
// distributed cluster, and the static-analysis passes all drive this type.
//
//   find      — one enabled match (first in bucket order, or randomized via
//               a cyclic start offset when given an Rng). Read-only: the
//               store's buckets are exact, so there is nothing to prune and
//               concurrent searchers may call it under a shared lock. Under
//               EvalMode::Batch the innermost candidate bucket is evaluated
//               as one column batch (a match bitmap from the compiled
//               condition) instead of per-element probes, falling back to
//               the scalar path whenever the reaction is not batchable.
//   enumerate — every enabled match up to a limit (the SequentialEngine's
//               Eq. (1)-literal uniform choice, and match counting).
//   validate  — re-check a proposal against CURRENT slot contents; the
//               optimistic commit path's guard (ids may have died or been
//               recycled between a shared-lock search and the commit).
//   commit    — apply a match: remove consumed ids, insert produced
//               elements. One step of (M - {x..}) + A(x..).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::obs {
class Telemetry;
}
namespace gammaflow::gamma {
class Program;
}

namespace gammaflow::runtime {

struct MatchPipeline {
  /// One enabled match of `reaction` (patterns match AND a branch fires),
  /// or nullopt after an EXHAUSTIVE failed search (the fixed-point proof the
  /// engines' termination detection rests on). `mode` selects the evaluator
  /// for conditions/outputs (RunOptions::eval_mode()).
  [[nodiscard]] static std::optional<gamma::Match> find(
      const gamma::Store& store, const gamma::Reaction& reaction,
      Rng* rng = nullptr, expr::EvalMode mode = expr::EvalMode::Ast);

  /// Invokes `fn` for every enabled match (ordered tuples of distinct
  /// elements), stopping early when fn returns false or `limit` matches were
  /// visited. Returns the number visited. Exponential in reaction arity —
  /// meant for small multisets (semantics tests) and match counting.
  static std::size_t enumerate(const gamma::Store& store,
                               const gamma::Reaction& reaction,
                               std::size_t limit,
                               const std::function<bool(const gamma::Match&)>& fn,
                               expr::EvalMode mode = expr::EvalMode::Ast);

  /// Revalidates `match` against the store's CURRENT slot contents: all ids
  /// alive, patterns still match, a branch still fires. On success the
  /// match's env/produced are recomputed from the current occupants and the
  /// commit may proceed; false means another thread invalidated the proposal
  /// (the optimistic engines re-search — progress happened elsewhere).
  [[nodiscard]] static bool validate(const gamma::Store& store,
                                     gamma::Match& match, expr::EvalMode mode);

  /// Applies a match: removes the consumed ids, inserts the produced
  /// elements. Precondition: all ids alive (fresh find, or validate passed,
  /// or the caller owns every reaction that could consume them).
  ///
  /// With a RecordCtx whose recorder is set, emits the firing's provenance
  /// (reaction, consumed elements rendered BEFORE removal, produced) to the
  /// run journal — this being the one commit point is what makes every
  /// Gamma path (sequential / indexed / parallel / cluster) recordable.
  static void commit(gamma::Store& store, const gamma::Match& match,
                     const RecordCtx* rec = nullptr);
};

/// Feeds every reaction's one-time bytecode compile cost into the
/// "expr.compile_ms" histogram — the shared tail of every Gamma engine's
/// telemetry block. Null-safe.
void observe_reaction_compile(obs::Telemetry* tel,
                              const gamma::Program& program);

}  // namespace gammaflow::runtime
