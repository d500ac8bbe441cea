#include "gammaflow/runtime/match_pipeline.hpp"

#include <algorithm>

#include "gammaflow/gamma/program.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/batch_matcher.hpp"

namespace gammaflow::runtime {
namespace {

using gamma::CompiledReaction;
using gamma::Frame;
using gamma::Match;
using gamma::Reaction;
using gamma::Store;
using Cell = Store::Cell;

/// This thread's bytecode Vm for conditions and outputs.
expr::Vm& thread_vm() {
  thread_local expr::Vm vm;
  return vm;
}

// The shared backtracking core. Visits enabled matches of `reaction`; for
// each, fills in a Match and calls `fn`; stops when fn returns false or
// `limit` is reached. `rng` randomizes the probe order inside each candidate
// bucket (cyclic start offset — cheap fairness without shuffling). Buckets
// are exact (only live ids, insertion order), so the search never mutates
// the store and every probed id is alive.
//
// One Frame carries the bindings of every depth: a probe at depth d runs
// pattern d's field ops on the candidate's columns, writing only the slots
// pattern d binds first, so backtracking needs no copy (DESIGN.md §15.6).
// The Match is likewise filled in place, and the visitor sees it complete.
// Both are the caller's. `literals` are the reaction's literals as cells of
// `store` (a kTextTag cell for a string the store does not hold): the Lit
// field checks compare them, a literal key probes by its cell, and a
// literal output is its cell unless it is a kTextTag one. A copied binder
// output is its slot's cell; only a computed output runs the Vm. `keys`,
// when not empty, caches each pattern's literal-key bucket handle.
//
// Each depth's BASE bucket is the pattern's literal-key bucket or its arity
// bucket. A depth with join fields (CompiledReaction::joins) probes the
// smallest of its base and (field, bound value) buckets instead, still
// drawing rng->bounded(base size) and starting where the base scan's start
// id falls in insertion order. Every id the pattern can match is in both
// buckets, so the matches, the rng stream and the chosen match are those
// of a base-bucket scan (DESIGN.md §15.1).
//
// With a memo (two-pattern reactions only), each anchor's inner visit
// scans just the suffix of the probed bucket stamped at or after the
// anchor's watermark, in the same cyclic order, and is skipped when that
// suffix is empty. The skipped candidates failed before and still fail, so
// the first fire or error of the scan is the one a full scan meets
// (DESIGN.md §15.5). A visit that completes with no fire records a new
// watermark, and the handle of its join bucket when it has one join; a
// throwing one records nothing. A later visit of a proved anchor reads
// that bucket through the handle while it is valid: the same bucket the
// lookup would return, with no hash.
template <typename Visit>
std::size_t search(const Store& store, const Reaction& reaction,
                   std::size_t limit, Rng* rng, AnchorMemo* memo,
                   std::span<const Cell> literals,
                   std::span<Store::BucketHandle> keys, Frame& frame,
                   Match& m, Visit&& fn) {
  const CompiledReaction& compiled = reaction.compiled();
  const auto& patterns = reaction.patterns();
  const auto& joins = compiled.joins();
  const auto& ops = compiled.field_ops();
  const std::size_t k = patterns.size();
  if (k != 2) memo = nullptr;

  InlineVec<Store::Candidates, 4> buckets;
  for (std::size_t i = 0; i < k; ++i) {
    Store::Candidates b = store.arity_bucket(patterns[i].arity());
    if (const auto key = patterns[i].key_field()) {
      const Store::Bucket* ids =
          keys.empty() ? nullptr : store.field_bucket(keys[i]);
      if (ids == nullptr) {
        const Store::BucketHandle handle =
            store.field_handle(*key, literals[ops[i][*key].index]);
        if (!keys.empty()) keys[i] = handle;
        ids = store.field_bucket(handle);
      }
      b = Store::Candidates{ids, nullptr};
    }
    if (b.empty()) return 0;
    buckets.push_back(b);
  }

  m.reaction = &reaction;
  m.ids.resize(k);
  expr::Vm& vm = thread_vm();
  std::size_t visited = 0;
  bool stop = false;

  // A string output that is no symbol of the store goes to m.texts.
  const auto push_text = [&m](Value text) {
    m.outputs.push_back(
        Cell{Store::kTextTag, static_cast<std::int64_t>(m.texts.size())});
    m.texts.push_back(std::move(text));
  };
  const auto fill_outputs = [&](const CompiledReaction::BranchCode& bc) {
    m.outputs.clear();
    m.texts.clear();
    for (const CompiledReaction::OutputField& out : bc.fields) {
      switch (out.kind) {
        case CompiledReaction::OutputField::Kind::Slot: {
          const Value& v = *frame.slot(out.index);
          if (!v.is_str()) {
            m.outputs.push_back(Store::inline_cell(v));
          } else if (const auto cell = store.symbol_cell(v)) {
            m.outputs.push_back(*cell);
          } else {
            push_text(v);
          }
          break;
        }
        case CompiledReaction::OutputField::Kind::Literal:
          if (literals[out.index].tag == Store::kTextTag) {
            push_text(compiled.literals()[out.index]);
          } else {
            m.outputs.push_back(literals[out.index]);
          }
          break;
        case CompiledReaction::OutputField::Kind::Computed: {
          Value v = vm.run(bc.chunks[out.index], frame.slots());
          if (v.is_str()) {
            push_text(std::move(v));
          } else {
            m.outputs.push_back(Store::inline_cell(v));
          }
          break;
        }
      }
    }
  };

  auto dfs = [&](auto&& self, std::size_t depth) -> void {
    if (stop) return;
    if (depth == k) {
      const auto branch = compiled.select(frame.slots(), vm);
      if (!branch) return;  // patterns matched but no branch fires
      m.branch = *branch;
      fill_outputs(compiled.branches()[*branch]);
      ++visited;
      if (!fn(m) || visited >= limit) stop = true;
      return;
    }
    const Store::Candidates base = buckets[depth];
    const std::size_t start = rng ? rng->bounded(base.size()) : 0;
    // Depth 1 of a memoized two-pattern search is an anchor's inner visit.
    const bool anchored = memo != nullptr && depth == 1;
    const AnchorMemo::Proof* proof =
        anchored ? memo->proof(store, m.ids[0]) : nullptr;
    const bool one_join = joins[depth].size() == 1;
    Store::BucketHandle join_handle;
    const Store::Bucket* narrower = nullptr;
    std::uint16_t join_field = CompiledReaction::BatchPlan::kNoField;
    for (const auto& join : joins[depth]) {
      // The proved anchor is the same element, so its join value, and the
      // bucket of that value, are the ones the proof's sweep probed.
      const Store::Bucket* b = one_join && proof != nullptr
                                   ? store.field_bucket(proof->join)
                                   : nullptr;
      if (b != nullptr) {
        join_handle = proof->join;
      } else {
        // The element that bound the slot at the same field is in the
        // bucket: its recorded slot names it, unless the field is not
        // indexed, where the lookup throws.
        if (join.bound_field == join.field) {
          join_handle = store.bucket_of(m.ids[join.bound_depth], join.field);
          b = store.field_bucket(join_handle);
        }
        if (b == nullptr) {
          join_handle = store.field_handle(join.field, *frame.slot(join.slot));
          b = store.field_bucket(join_handle);
        }
      }
      // No live element carries the bound value.
      if (b == nullptr || b->empty()) return;
      if (b->size() < (narrower ? narrower->size() : base.size())) {
        narrower = b;
        join_field = join.field;
      }
    }
    const std::uint64_t mark = proof != nullptr ? proof->watermark : 0;
    const Store::Candidates probed =
        narrower == nullptr ? base : Store::Candidates{narrower, nullptr};
    Scan scan = Scan::of(store, probed, mark);
    if (scan.size == 0) {
      memo->count_skip();
      return;
    }
    // A join bucket starts where base[start] falls in insertion order; a
    // one-entry bucket starts at 0 wherever that is, with no select.
    if (narrower == nullptr) {
      scan.start_at(start);
    } else if (narrower->size() > 1) {
      scan.start_at(store.scan_position(*narrower, base[start]));
    }
    const std::size_t visited_before = visited;
    const std::span<const gamma::FieldOp> depth_ops(ops[depth]);
    auto probe = [&](const Store::Id id) {
      for (std::size_t d = 0; d < depth; ++d) {
        if (m.ids[d] == id) return;
      }
      if (!store.bind(depth_ops, id, frame, literals)) return;
      m.ids[depth] = id;
      self(self, depth + 1);
    };
    ScanCursor at(scan);
    if (depth + 1 == k) {
      // Innermost bucket: sweep chunks of the scan as column batches and
      // probe only the lanes the fire bitmap keeps. The sweep starts at the
      // same scan position as the scalar scan below, and cleared lanes are
      // exactly scalar rejections, so the rng stream and the chosen match
      // are identical to the scalar scan, which serves the whole bucket
      // when the reaction has no batch plan.
      thread_local BatchMatcher matcher;
      if (matcher.begin(store, reaction, scan, join_field, frame.slots(),
                        literals)) {
        std::size_t width = BatchMatcher::kMinChunk;
        while (at.taken() < scan.size && !stop) {
          const std::size_t w = std::min(width, scan.size - at.taken());
          const ScanCursor before = at;
          if (!matcher.chunk(at, w)) {  // fault: resume scalar
            at = before;
            break;
          }
          const std::uint8_t* fire = matcher.fire();
          for (std::size_t j = 0; j < w && !stop; ++j) {
            if (fire[j] != 0) probe(matcher.id(j));
          }
          width = std::min(width * 2, BatchMatcher::kMaxChunk);
        }
      }
    }
    while (at.taken() < scan.size && !stop) probe(scan.id(at.next()));
    if (anchored && visited == visited_before) {
      memo->record(store, m.ids[0], join_handle);
    }
  };
  dfs(dfs, 0);
  return visited;
}

/// find's visitor: stop at the first match, which stays in place. Both finds
/// share it, so they share one instance of the search.
struct FirstMatch {
  bool operator()(const Match& /*found*/) const noexcept { return false; }
};

/// The reaction's literals as cells of a store that is only read: a
/// pattern literal the store holds is its symbol, and a string literal
/// otherwise a kTextTag cell. A literal output string is always kTextTag
/// (its text), as no pin keeps a symbol alive until the commit.
InlineVec<Cell, 8> unpinned_literals(const Store& store,
                                     const CompiledReaction& compiled) {
  InlineVec<Cell, 8> cells;
  const std::vector<Value>& literals = compiled.literals();
  for (std::size_t i = 0; i < literals.size(); ++i) {
    const Value& v = literals[i];
    if (!v.is_str()) {
      cells.push_back(Store::inline_cell(v));
    } else {
      const auto held = i < compiled.pattern_literals() ? store.cell_of(v)
                                                        : std::nullopt;
      cells.push_back(held.value_or(Cell{Store::kTextTag, 0}));
    }
  }
  return cells;
}

}  // namespace

MatchSite::MatchSite(const MatchSite& other)
    : reaction_(other.reaction_),
      lineage_(other.lineage_),
      literals_(other.literals_),
      keys_(other.keys_),
      match_(other.match_),
      memo_(other.memo_) {
  frame_.resize(other.frame_.size());
}

MatchSite& MatchSite::operator=(const MatchSite& other) {
  if (this != &other) {
    reaction_ = other.reaction_;
    lineage_ = other.lineage_;
    literals_ = other.literals_;
    keys_ = other.keys_;
    frame_.resize(other.frame_.size());
    match_ = other.match_;
    memo_ = other.memo_;
  }
  return *this;
}

void MatchSite::bind(Store& store, const Reaction& reaction) {
  if (reaction_ == &reaction && lineage_ == store.lineage()) return;
  const CompiledReaction& compiled = reaction.compiled();
  literals_.clear();
  for (const Value& v : compiled.literals()) literals_.push_back(store.pin(v));
  keys_.clear();
  keys_.resize(reaction.arity());
  frame_.resize(compiled.slots().size());
  reaction_ = &reaction;
  lineage_ = store.lineage();
}

bool MatchPipeline::find(Store& store, const Reaction& reaction, Rng* rng,
                         MatchSite& site) {
  site.bind(store, reaction);
  return search(store, reaction, 1, rng, &site.memo_, site.literals_,
                std::span(site.keys_.data(), site.keys_.size()), site.frame_,
                site.match_, FirstMatch{}) != 0;
}

std::optional<Match> MatchPipeline::find(const Store& store,
                                         const Reaction& reaction, Rng* rng,
                                         AnchorMemo* memo) {
  const InlineVec<Cell, 8> literals =
      unpinned_literals(store, reaction.compiled());
  Frame frame(reaction.compiled().slots().size());
  std::optional<Match> found(std::in_place);
  if (search(store, reaction, 1, rng, memo, literals.span(), {}, frame,
             *found, FirstMatch{}) == 0) {
    found.reset();
  }
  return found;
}

std::size_t MatchPipeline::enumerate(
    const Store& store, const Reaction& reaction, std::size_t limit,
    const std::function<bool(const Match&)>& fn) {
  const InlineVec<Cell, 8> literals =
      unpinned_literals(store, reaction.compiled());
  Frame frame(reaction.compiled().slots().size());
  Match m;
  return search(store, reaction, limit, nullptr, nullptr, literals.span(), {},
                frame, m, [&](const Match& found) { return fn(found); });
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
    for (const gamma::Element& e : match.produced(store)) {
      fire.produced.push_back(e.to_string());
    }
    rec->recorder->fire(std::move(fire));
  }
  store.replace(match);
}

void add_fires(const std::vector<gamma::Reaction>& stage,
               std::span<const std::uint64_t> fires,
               std::map<std::string, std::uint64_t>& by_name) {
  for (std::size_t i = 0; i < stage.size(); ++i) {
    if (fires[i] != 0) by_name[stage[i].name()] += fires[i];
  }
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
