// See worklist.hpp for the model. The drain policy mirrors the
// IndexedEngine's inner loop (fire a reaction while it stays enabled before
// moving on — cheaper than re-queueing after every commit) but replaces its
// shuffled full passes with the dirty queue: a reaction is probed only when
// an insertion its footprint admits has happened since it last proved itself
// exhausted. Each reaction's AnchorMemo lives as long as the session, so
// that proof costs O(anchors + new candidates), not O(anchors x bucket).
#include "gammaflow/runtime/worklist.hpp"

#include <utility>

#include "gammaflow/common/error.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::runtime {

WakeupIndex::WakeupIndex(std::vector<WakeKeys> keys) : keys_(std::move(keys)) {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const WakeKeys& k = keys_[i];
    if (k.any) {
      always_.push_back(i);
      continue;  // the always list subsumes the per-key buckets
    }
    for (const std::string& label : k.labels) by_label_[label].push_back(i);
    for (const std::size_t arity : k.arities) by_arity_[arity].push_back(i);
  }
}

void WakeupIndex::wake(std::span<const Value> fields,
                       std::vector<std::size_t>& out) const {
  out.insert(out.end(), always_.begin(), always_.end());
  if (fields.size() >= 2 && fields[1].is_str()) {
    const auto it = by_label_.find(fields[1].as_str());
    if (it != by_label_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  const auto it = by_arity_.find(fields.size());
  if (it != by_arity_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
}

IncrementalFixpoint::IncrementalFixpoint(gamma::Program program,
                                         std::vector<WakeKeys> keys,
                                         const WorklistOptions& options)
    : program_(std::move(program)),
      index_(std::move(keys)),
      options_(options),
      store_(gamma::FieldSet::of(program_)),
      rng_(options.seed),
      recording_(options, "worklist", "gamma") {
  if (program_.stage_count() > 1) {
    throw EngineError(
        "worklist fixpoint requires a single-stage program; `;` sequencing "
        "has no incremental meaning under streaming injection (got " +
        std::to_string(program_.stage_count()) + " stages)");
  }
  static const std::vector<gamma::Reaction> kNoReactions;
  reactions_ = program_.empty() ? &kNoReactions : &program_.stages().front();
  if (index_.reaction_count() != reactions_->size()) {
    throw EngineError("worklist wakeup keys cover " +
                      std::to_string(index_.reaction_count()) +
                      " reactions but the program has " +
                      std::to_string(reactions_->size()));
  }
  dirty_.assign(reactions_->size(), 0);
  memos_.resize(reactions_->size());
  // The journal opens on the empty store; every injection's quiescent state
  // is one round (DESIGN §11), so replaying the rounds reproduces `final`.
  recording_.begin(gamma::Multiset{});
}

void IncrementalFixpoint::wake_element(std::span<const Value> fields) {
  wake_scratch_.clear();
  if (options_.rescan) {
    for (std::size_t i = 0; i < reactions_->size(); ++i) {
      wake_scratch_.push_back(i);
    }
  } else {
    index_.wake(fields, wake_scratch_);
  }
  for (const std::size_t idx : wake_scratch_) {
    if (dirty_[idx] != 0) continue;
    dirty_[idx] = 1;
    queue_.push_back(idx);
    ++stats_.wakeups;
  }
}

Outcome IncrementalFixpoint::saturate(StepLoop& loop) {
  // Drain the dirty queue in FIFO batches of kDrainBatch: one deque
  // round-trip per batch instead of per reaction. Entries are processed
  // strictly in pop order and an early stop pushes the unprocessed suffix
  // back to the FRONT in order, so the firing schedule is identical to
  // one-at-a-time draining.
  std::size_t batch[kDrainBatch];
  while (!queue_.empty() && loop.running()) {
    std::size_t m = 0;
    while (m < kDrainBatch && !queue_.empty()) {
      batch[m++] = queue_.front();
      queue_.pop_front();
    }
    ++stats_.drain_batches;
    std::size_t resume = m;  // first batch entry to push back, if any
    for (std::size_t bi = 0; bi < m; ++bi) {
      if (!loop.running()) {
        resume = bi;  // untouched entries: dirty flags still set
        break;
      }
      const std::size_t idx = batch[bi];
      dirty_[idx] = 0;
      const gamma::Reaction& r = (*reactions_)[idx];
      bool exhausted = false;
      while (!loop.should_stop()) {
        ++stats_.rematches;
        auto match = MatchPipeline::find(store_, r, &rng_, &memos_[idx]);
        if (!match) {
          // Exhaustive index search failed: r has NO enabled match in the
          // current store, so clearing its dirty flag preserves the
          // "enabled => dirty" invariant until a later insertion re-wakes it.
          exhausted = true;
          break;
        }
        if (!loop.admit(stats_.fires)) break;
        ++stats_.fires;
        ++last_fires_;
        const RecordCtx rctx = recording_.ctx(0);
        MatchPipeline::commit(store_, *match, recording_ ? &rctx : nullptr);
        match->for_each_output(
            [&](std::span<const Value> produced) { wake_element(produced); });
      }
      if (!exhausted && dirty_[idx] == 0) {
        // Stopped mid-drain (deadline/budget/cancel) with r possibly still
        // enabled: keep it dirty so the next inject() resumes the drain
        // from a state that satisfies the invariant.
        dirty_[idx] = 1;
        resume = bi;
        break;
      }
    }
    for (std::size_t r = m; r > resume; --r) queue_.push_front(batch[r - 1]);
  }
  return loop.outcome();
}

Outcome IncrementalFixpoint::inject(const std::vector<gamma::Element>& elements) {
  last_fires_ = 0;
  ++stats_.injects;
  const std::uint64_t skips0 = options_.telemetry ? anchor_skips() : 0;
  StepLoop loop(options_, options_.max_steps, "worklist", "max_steps");
  for (const gamma::Element& e : elements) {
    store_.insert(e);
    ++stats_.injected;
    wake_element(e.fields());
  }
  last_outcome_ = saturate(loop);
  if (recording_) recording_.round(store_);
  if (obs::Telemetry* tel = options_.telemetry) {
    auto& stats = tel->stats();
    stats.count("serve.injected", elements.size());
    stats.count("serve.fires", last_fires_);
    stats.count("gamma.anchor_skips", anchor_skips() - skips0);
    stats.hist("serve.inject_us").observe(loop.wall_seconds() * 1e6);
  }
  return last_outcome_;
}

Outcome IncrementalFixpoint::inject(const gamma::Multiset& elements) {
  return inject(elements.elements());
}

std::uint64_t IncrementalFixpoint::anchor_skips() const noexcept {
  std::uint64_t skips = 0;
  for (const AnchorMemo& memo : memos_) skips += memo.skips();
  return skips;
}

void IncrementalFixpoint::finish_recording() {
  recording_.finish(last_outcome_, snapshot());
}

}  // namespace gammaflow::runtime
