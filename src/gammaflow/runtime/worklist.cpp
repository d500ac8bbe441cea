// See worklist.hpp for the model. The drain runs the IndexedEngine's kernel
// (gamma::fire_while_enabled in gamma/stage_fixpoint.hpp: fire a reaction
// while it stays enabled before moving on) through the same LoopGate, but
// replaces its shuffled full passes with the dirty queue: a reaction is
// probed only when an insertion its footprint admits has happened since it
// last proved itself exhausted. The session's StageMemory keeps each
// reaction's AnchorMemo as long as the session, so that proof costs
// O(anchors + new candidates), not O(anchors x bucket).
#include "gammaflow/runtime/worklist.hpp"

#include <utility>

#include "gammaflow/common/error.hpp"
#include "gammaflow/obs/telemetry.hpp"

namespace gammaflow::runtime {

WakeupIndex::WakeupIndex(const std::vector<gamma::Footprint>& footprints,
                         gamma::Store& store)
    : reactions_(footprints.size()) {
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    const gamma::Footprint& f = footprints[i];
    if (f.consume_any) {
      always_.push_back(i);
      continue;  // the always list subsumes the per-key buckets
    }
    for (const std::string& label : f.consume_labels) {
      const auto id = static_cast<std::size_t>(store.pin(Value(label)).payload);
      if (by_symbol_.size() <= id) by_symbol_.resize(id + 1);
      by_symbol_[id].push_back(i);
    }
    for (const std::size_t arity : f.consume_arities) {
      by_arity_[arity].push_back(i);
    }
  }
}

void WakeupIndex::wake_by(gamma::Store::Cell label, std::size_t arity,
                          std::vector<std::size_t>& out) const {
  out.insert(out.end(), always_.begin(), always_.end());
  const auto at = static_cast<std::size_t>(label.payload);
  if (label.tag == static_cast<std::uint8_t>(ValueKind::Str) &&
      at < by_symbol_.size()) {
    out.insert(out.end(), by_symbol_[at].begin(), by_symbol_[at].end());
  }
  const auto it = by_arity_.find(arity);
  if (it != by_arity_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
}

void WakeupIndex::wake(const gamma::Store& store, gamma::Store::Id id,
                       std::vector<std::size_t>& out) const {
  const gamma::Store::RowRef r = store.row(id);
  const std::size_t arity = r.group->arity;
  gamma::Store::Cell label;
  if (arity >= 2) {
    label = {r.group->cols[1].tags[r.row], r.group->cols[1].data[r.row]};
  }
  wake_by(label, arity, out);
}

void WakeupIndex::wake(const gamma::Store& store,
                       std::span<const gamma::Store::Cell> fields,
                       std::span<const Value> texts,
                       std::vector<std::size_t>& out) const {
  gamma::Store::Cell label;
  if (fields.size() >= 2) {
    label = fields[1];
    // A computed string is a kTextTag cell even when it equals a key
    // label: it finds the label's pinned cell by its text.
    if (label.tag == gamma::Store::kTextTag) {
      label = store.cell_of(texts[static_cast<std::size_t>(label.payload)])
                  .value_or(gamma::Store::Cell{});
    }
  }
  wake_by(label, fields.size(), out);
}

namespace {

/// The program's one stage (none for an empty program).
const std::vector<gamma::Reaction>& only_stage(const gamma::Program& program) {
  if (program.stage_count() > 1) {
    throw EngineError(
        "worklist fixpoint requires a single-stage program; `;` sequencing "
        "has no incremental meaning under streaming injection (got " +
        std::to_string(program.stage_count()) + " stages)");
  }
  static const std::vector<gamma::Reaction> kNoReactions;
  return program.empty() ? kNoReactions : program.stages().front();
}

}  // namespace

IncrementalFixpoint::IncrementalFixpoint(
    gamma::Program program, const std::vector<gamma::Footprint>& footprints,
    const WorklistOptions& options)
    : program_(std::move(program)),
      reactions_(&only_stage(program_)),
      options_(options),
      store_(gamma::FieldSet::of(program_)),
      index_(footprints, store_),
      rng_(options.seed),
      mem_(reactions_->size()),
      obs_(options.telemetry, nullptr, *reactions_),
      recording_(options, "worklist", "gamma") {
  if (index_.reaction_count() != reactions_->size()) {
    throw EngineError("worklist footprints cover " +
                      std::to_string(index_.reaction_count()) +
                      " reactions but the program has " +
                      std::to_string(reactions_->size()));
  }
  dirty_.assign(reactions_->size(), 0);
  // The journal opens on the empty store; every injection's quiescent state
  // is one round (DESIGN §11), so replaying the rounds reproduces `final`.
  recording_.begin(gamma::Multiset{});
}

void IncrementalFixpoint::wake_queue() {
  for (const std::size_t idx : wake_scratch_) {
    if (dirty_[idx] != 0) continue;
    dirty_[idx] = 1;
    queue_.push_back(idx);
    ++stats_.wakeups;
  }
}

Outcome IncrementalFixpoint::saturate(StepLoop& loop) {
  gamma::LoopGate gate(loop, stats_.fires, recording_, 0);
  const auto on_fire = [this](const gamma::Match& match) {
    ++last_fires_;
    match.for_each_output([&](std::span<const gamma::Store::Cell> produced) {
      wake_scratch_.clear();
      index_.wake(store_, produced, match.texts.span(), wake_scratch_);
      wake_queue();
    });
  };
  while (!queue_.empty() && loop.running()) {
    // The reaction stays queued and dirty while it fires, so the wakes of
    // its own products are no-ops: the kernel's closing failed find is
    // made on the store with those products in it and covers them. When
    // the gate stops it, or an evaluation error leaves the kernel, it is
    // still at the front and dirty, and the next drain resumes with it.
    const std::size_t idx = queue_.front();
    if (!gamma::fire_while_enabled(store_, *reactions_, idx, rng_, mem_, obs_,
                                   gate, on_fire)) {
      break;
    }
    // A failed find proved it disabled: a clear dirty flag keeps "enabled
    // => dirty" until a later insertion re-wakes it.
    queue_.pop_front();
    dirty_[idx] = 0;
  }
  return loop.outcome();
}

Outcome IncrementalFixpoint::inject(const gamma::FlatElements& elements) {
  last_fires_ = 0;
  ++stats_.injects;
  const std::uint64_t skips0 = options_.telemetry ? mem_.anchor_skips() : 0;
  StepLoop loop(options_, options_.max_steps, "worklist", "max_steps");
  elements.for_each([this](std::span<const Value> fields) {
    wake_scratch_.clear();
    index_.wake(store_, store_.insert(fields), wake_scratch_);
    wake_queue();
  });
  stats_.injected += elements.size();
  last_outcome_ = saturate(loop);
  if (recording_) recording_.round(store_);
  if (obs::Telemetry* tel = options_.telemetry) {
    auto& stats = tel->stats();
    stats.count("serve.injected", elements.size());
    stats.count("serve.fires", last_fires_);
    stats.count("gamma.anchor_skips", mem_.anchor_skips() - skips0);
    stats.hist("serve.inject_us").observe(loop.wall_seconds() * 1e6);
  }
  return last_outcome_;
}

void IncrementalFixpoint::finish_recording() {
  recording_.finish(last_outcome_, snapshot());
}

}  // namespace gammaflow::runtime
