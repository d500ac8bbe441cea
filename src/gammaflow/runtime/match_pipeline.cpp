#include "gammaflow/runtime/match_pipeline.hpp"

#include <algorithm>

#include "gammaflow/gamma/program.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/batch_matcher.hpp"

namespace gammaflow::runtime {
namespace {

using gamma::Element;
using gamma::Match;
using gamma::Reaction;
using gamma::Store;

// The shared backtracking core. Visits enabled matches of `reaction`; for
// each, builds a Match and calls `fn`; stops when fn returns false or
// `limit` is reached. `rng` randomizes the probe order inside each candidate
// bucket (cyclic start offset — cheap fairness without shuffling). Buckets
// are exact (only live ids, insertion order), so the search never mutates
// the store and every probed id is alive.
std::size_t search(const Store& store, const Reaction& reaction,
                   std::size_t limit, Rng* rng, expr::EvalMode mode,
                   const std::function<bool(Match&)>& fn) {
  const auto& patterns = reaction.patterns();
  const std::size_t k = patterns.size();

  std::vector<const Store::Bucket*> buckets(k);
  for (std::size_t i = 0; i < k; ++i) {
    buckets[i] = store.bucket(patterns[i]);
    if (buckets[i] == nullptr || buckets[i]->empty()) return 0;
  }

  std::vector<expr::Env> envs(k + 1);
  std::vector<Store::Id> chosen(k);
  std::size_t visited = 0;
  bool stop = false;

  auto dfs = [&](auto&& self, std::size_t depth) -> void {
    if (stop) return;
    if (depth == k) {
      auto produced = reaction.apply(envs[k], mode);
      if (!produced) return;  // patterns matched but no branch fires
      Match m;
      m.reaction = &reaction;
      m.ids = chosen;
      m.env = envs[k];
      m.produced = std::move(*produced);
      ++visited;
      if (!fn(m) || visited >= limit) stop = true;
      return;
    }
    const Store::Bucket& bucket = *buckets[depth];
    const std::size_t n = bucket.size();
    const std::size_t start = rng ? rng->bounded(n) : 0;
    auto probe = [&](const Store::Id id) {
      bool dup = false;
      for (std::size_t d = 0; d < depth; ++d) {
        if (chosen[d] == id) {
          dup = true;
          break;
        }
      }
      if (dup) return;
      envs[depth + 1] = envs[depth];
      if (!store.match_pattern(patterns[depth], id, envs[depth + 1])) return;
      chosen[depth] = id;
      self(self, depth + 1);
    };
    std::size_t t = 0;
    if (mode == expr::EvalMode::Batch && depth + 1 == k) {
      // Innermost bucket: sweep chunks of the scan as column batches and
      // probe only the lanes the fire bitmap keeps. The start offset draw
      // above is the SAME single rng->bounded(n) the scalar scan consumes,
      // and cleared lanes are exactly scalar rejections, so the rng stream
      // and the chosen match are identical to the scalar path.
      thread_local BatchMatcher matcher;
      if (matcher.begin(store, reaction, bucket, envs[depth])) {
        std::size_t width = BatchMatcher::kMinChunk;
        while (t < n && !stop) {
          const std::size_t w = std::min(width, n - t);
          if (!matcher.chunk(start, t, w)) break;  // fault: resume scalar
          const std::uint8_t* fire = matcher.fire();
          for (std::size_t j = 0; j < w && !stop; ++j) {
            if (fire[j] != 0) probe(bucket[(start + t + j) % n]);
          }
          t += w;
          width = std::min(width * 2, BatchMatcher::kMaxChunk);
        }
      }
    }
    for (; t < n && !stop; ++t) probe(bucket[(start + t) % n]);
  };
  dfs(dfs, 0);
  return visited;
}

}  // namespace

std::optional<Match> MatchPipeline::find(const Store& store,
                                         const Reaction& reaction, Rng* rng,
                                         expr::EvalMode mode) {
  std::optional<Match> found;
  search(store, reaction, 1, rng, mode, [&](Match& m) {
    found = std::move(m);
    return false;
  });
  return found;
}

std::size_t MatchPipeline::enumerate(const Store& store,
                                     const Reaction& reaction,
                                     std::size_t limit,
                                     const std::function<bool(const Match&)>& fn,
                                     expr::EvalMode mode) {
  return search(store, reaction, limit, nullptr, mode,
                [&](Match& m) { return fn(m); });
}

bool MatchPipeline::validate(const Store& store, Match& match,
                             expr::EvalMode mode) {
  const auto& patterns = match.reaction->patterns();
  if (match.ids.size() != patterns.size()) return false;
  expr::Env env;
  for (std::size_t i = 0; i < match.ids.size(); ++i) {
    // alive() alone is not enough — a recycled slot is alive with different
    // content — but re-running the pattern match on the current occupants
    // catches that too, so the pair of checks is exact.
    if (!store.alive(match.ids[i])) return false;
    if (!store.match_pattern(patterns[i], match.ids[i], env)) return false;
  }
  auto produced = match.reaction->apply(env, mode);
  if (!produced) return false;
  match.env = std::move(env);
  match.produced = std::move(*produced);
  return true;
}

void MatchPipeline::commit(Store& store, const Match& match,
                           const RecordCtx* rec) {
  if (rec != nullptr && rec->recorder != nullptr) {
    // Render consumed occupants while their ids are still alive.
    obs::FireRecord fire;
    fire.reaction = match.reaction->name();
    fire.stage = rec->stage;
    fire.shard = rec->shard;
    fire.node = rec->node;
    fire.consumed.reserve(match.ids.size());
    for (const Store::Id id : match.ids) {
      fire.consumed.push_back(store.element(id).to_string());
    }
    fire.produced.reserve(match.produced.size());
    for (const Element& e : match.produced) {
      fire.produced.push_back(e.to_string());
    }
    rec->recorder->fire(std::move(fire));
  }
  for (const Store::Id id : match.ids) store.remove(id);
  for (const Element& e : match.produced) store.insert(e);
}

void observe_reaction_compile(obs::Telemetry* tel,
                              const gamma::Program& program) {
  if (tel == nullptr) return;
  Histogram& compile_hist = tel->stats().hist("expr.compile_ms");
  for (const auto& stage : program.stages()) {
    for (const Reaction& r : stage) {
      compile_hist.observe(r.compiled().compile_ms());
    }
  }
}

}  // namespace gammaflow::runtime

namespace gammaflow::gamma {

// Legacy entry points (declared in gamma/store.hpp), kept as thin delegates
// so existing callers and tests stay source-compatible. New code calls
// runtime::MatchPipeline directly.

std::optional<Match> find_match(const Store& store, const Reaction& reaction,
                                Rng* rng, expr::EvalMode mode) {
  return runtime::MatchPipeline::find(store, reaction, rng, mode);
}

std::size_t enumerate_matches(const Store& store, const Reaction& reaction,
                              std::size_t limit,
                              const std::function<bool(const Match&)>& fn,
                              expr::EvalMode mode) {
  return runtime::MatchPipeline::enumerate(store, reaction, limit, fn, mode);
}

void commit(Store& store, const Match& match) {
  runtime::MatchPipeline::commit(store, match);
}

}  // namespace gammaflow::gamma
