#include "gammaflow/obs/run_recorder.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "gammaflow/common/json.hpp"

namespace gammaflow::obs {
namespace {

/// Approximate serialized weight of a delta entry: the string plus JSON
/// punctuation and a count. Only relative accuracy matters — the budget
/// bounds journal growth, it is not an exact encoder size.
std::uint64_t entry_bytes(const StoreCounts& counts) {
  std::uint64_t bytes = 0;
  for (const auto& [elem, n] : counts) {
    (void)n;
    bytes += elem.size() + 16;
  }
  return bytes;
}

void apply_delta(StoreCounts& store, const StoreCounts& added,
                 const StoreCounts& removed) {
  for (const auto& [elem, n] : removed) {
    auto it = store.find(elem);
    if (it == store.end()) continue;
    it->second -= n;
    if (it->second <= 0) store.erase(it);
  }
  for (const auto& [elem, n] : added) store[elem] += n;
}

std::uint64_t total_count(const StoreCounts& store) {
  std::uint64_t n = 0;
  for (const auto& [elem, c] : store) {
    (void)elem;
    n += static_cast<std::uint64_t>(c);
  }
  return n;
}

// ---------------------------------------------------------------- writing

void write_counts(std::ostream& out, const StoreCounts& counts) {
  out << '{';
  bool first = true;
  for (const auto& [elem, n] : counts) {
    if (!first) out << ',';
    first = false;
    out << json_quote(elem) << ':' << n;
  }
  out << '}';
}

void write_strings(std::ostream& out, const std::vector<std::string>& items) {
  out << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out << ',';
    out << json_quote(items[i]);
  }
  out << ']';
}

// ---------------------------------------------------------------- reading
//
// A walk over the value parse_json returns. Absent keys keep the struct
// defaults and unknown keys are ignored (forward compatibility); a present
// key of the wrong kind is a WireError.

StoreCounts counts_from(const Json& v) {
  StoreCounts counts;
  for (const auto& [elem, n] : v.as_obj()) counts[elem] = n.as_int();
  return counts;
}

std::vector<std::string> strings_from(const Json& v) {
  const JsonArr& arr = v.as_arr();
  std::vector<std::string> items;
  items.reserve(arr.size());
  for (const Json& s : arr) items.push_back(s.as_str());
  return items;
}

std::uint64_t uint_or(const Json& obj, const char* key) {
  return static_cast<std::uint64_t>(obj.int_or(key, 0));
}

RoundDelta round_from(const Json& v) {
  (void)v.as_obj();  // every round is an object
  RoundDelta d;
  d.fires = uint_or(v, "fires");
  d.store_size = uint_or(v, "size");
  if (const Json* add = v.get("add")) d.added = counts_from(*add);
  if (const Json* del = v.get("del")) d.removed = counts_from(*del);
  return d;
}

FireRecord fire_from(const Json& v) {
  (void)v.as_obj();  // every fire is an object
  FireRecord f;
  f.reaction = v.str_or("r", "");
  f.stage = v.int_or("stage", -1);
  f.round = uint_or(v, "round");
  if (const Json* in = v.get("in")) f.consumed = strings_from(*in);
  if (const Json* out = v.get("out")) f.produced = strings_from(*out);
  f.shard = v.int_or("shard", -1);
  f.node = v.int_or("node", -1);
  return f;
}

Journal journal_from(const Json& doc) {
  (void)doc.as_obj();  // the journal is one object
  Journal j;
  j.version = static_cast<int>(doc.int_or("gf_journal", j.version));
  j.engine = doc.str_or("engine", "");
  j.kind = doc.str_or("kind", "");
  j.session = doc.str_or("session", "");
  j.outcome = doc.str_or("outcome", "");
  if (const Json* v = doc.get("initial")) j.initial = counts_from(*v);
  if (const Json* v = doc.get("rounds")) {
    j.rounds.reserve(v->as_arr().size());
    for (const Json& r : v->as_arr()) j.rounds.push_back(round_from(r));
  }
  if (const Json* v = doc.get("fires")) {
    j.fires.reserve(v->as_arr().size());
    for (const Json& f : v->as_arr()) j.fires.push_back(fire_from(f));
  }
  if (const Json* v = doc.get("final")) j.final_store = counts_from(*v);
  j.fires_total = uint_or(doc, "fires_total");
  j.fires_dropped = uint_or(doc, "fires_dropped");
  j.rounds_total = uint_or(doc, "rounds_total");
  j.rounds_dropped = uint_or(doc, "rounds_dropped");
  return j;
}

}  // namespace

// --------------------------------------------------------------- recorder

void RunRecorder::begin(std::string engine, std::string kind,
                        StoreCounts initial) {
  const std::lock_guard<std::mutex> lock(mu_);
  journal_ = Journal{};
  journal_.engine = std::move(engine);
  journal_.kind = std::move(kind);
  journal_.initial = std::move(initial);
  last_kept_ = journal_.initial;
  round_bytes_ = 0;
  fires_in_round_ = 0;
}

void RunRecorder::set_session(std::string session) {
  const std::lock_guard<std::mutex> lock(mu_);
  journal_.session = std::move(session);
}

void RunRecorder::fire(FireRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  fire_locked(std::move(record));
}

void RunRecorder::fire_locked(FireRecord record) {
  ++journal_.fires_total;
  ++fires_in_round_;
  if (journal_.fires.size() >= limits_.max_fires) {
    ++journal_.fires_dropped;
    return;
  }
  record.round = journal_.rounds.size();
  journal_.fires.push_back(std::move(record));
}

void RunRecorder::absorb_fires(Journal part) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (FireRecord& record : part.fires) fire_locked(std::move(record));
  journal_.fires_total += part.fires_dropped;
  journal_.fires_dropped += part.fires_dropped;
  fires_in_round_ += part.fires_dropped;
}

void RunRecorder::close_round_locked(const StoreCounts& store,
                                     bool budget_exempt) {
  RoundDelta delta;
  for (const auto& [elem, n] : store) {
    auto it = last_kept_.find(elem);
    const std::int64_t before = it == last_kept_.end() ? 0 : it->second;
    if (n > before) delta.added[elem] = n - before;
  }
  for (const auto& [elem, n] : last_kept_) {
    auto it = store.find(elem);
    const std::int64_t after = it == store.end() ? 0 : it->second;
    if (n > after) delta.removed[elem] = n - after;
  }
  delta.fires = fires_in_round_;
  delta.store_size = total_count(store);
  if (!budget_exempt) {
    const std::uint64_t bytes = entry_bytes(delta.added) +
                                entry_bytes(delta.removed) + 32;
    if (journal_.rounds.size() >= limits_.max_rounds ||
        round_bytes_ + bytes > limits_.max_round_bytes) {
      // Dropped: last_kept_ stays put, so this delta folds into the next
      // kept round (or the budget-exempt closing round).
      ++journal_.rounds_dropped;
      return;
    }
    round_bytes_ += bytes;
  }
  fires_in_round_ = 0;
  last_kept_ = store;
  journal_.rounds.push_back(std::move(delta));
}

void RunRecorder::round(const StoreCounts& store) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++journal_.rounds_total;
  close_round_locked(store, /*budget_exempt=*/false);
}

void RunRecorder::finish(std::string outcome, StoreCounts final_store) {
  const std::lock_guard<std::mutex> lock(mu_);
  journal_.outcome = std::move(outcome);
  if (last_kept_ != final_store) {
    ++journal_.rounds_total;
    close_round_locked(final_store, /*budget_exempt=*/true);
  }
  journal_.final_store = std::move(final_store);
}

Journal RunRecorder::journal() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return journal_;
}

Journal RunRecorder::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  Journal out = std::move(journal_);
  journal_ = Journal{};
  last_kept_.clear();
  round_bytes_ = 0;
  fires_in_round_ = 0;
  return out;
}

// ------------------------------------------------------------- serializer

void write_journal(std::ostream& out, const Journal& journal) {
  out << "{\"gf_journal\":" << journal.version;
  out << ",\"engine\":" << json_quote(journal.engine)
      << ",\"kind\":" << json_quote(journal.kind);
  if (!journal.session.empty()) {
    out << ",\"session\":" << json_quote(journal.session);
  }
  out << ",\"outcome\":" << json_quote(journal.outcome);
  out << ",\"initial\":";
  write_counts(out, journal.initial);
  out << ",\"rounds\":[";
  for (std::size_t i = 0; i < journal.rounds.size(); ++i) {
    const RoundDelta& d = journal.rounds[i];
    if (i > 0) out << ',';
    out << "{\"fires\":" << d.fires << ",\"size\":" << d.store_size
        << ",\"add\":";
    write_counts(out, d.added);
    out << ",\"del\":";
    write_counts(out, d.removed);
    out << '}';
  }
  out << "],\"fires\":[";
  for (std::size_t i = 0; i < journal.fires.size(); ++i) {
    const FireRecord& f = journal.fires[i];
    if (i > 0) out << ',';
    out << "{\"r\":" << json_quote(f.reaction) << ",\"stage\":" << f.stage
        << ",\"round\":" << f.round << ",\"in\":";
    write_strings(out, f.consumed);
    out << ",\"out\":";
    write_strings(out, f.produced);
    out << ",\"shard\":" << f.shard << ",\"node\":" << f.node << '}';
  }
  out << "],\"final\":";
  write_counts(out, journal.final_store);
  out << ",\"fires_total\":" << journal.fires_total
      << ",\"fires_dropped\":" << journal.fires_dropped
      << ",\"rounds_total\":" << journal.rounds_total
      << ",\"rounds_dropped\":" << journal.rounds_dropped << '}';
}

std::string journal_to_string(const Journal& journal) {
  std::ostringstream out;
  write_journal(out, journal);
  return out.str();
}

Journal parse_journal(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_journal_string(buf.str());
}

Journal parse_journal_string(const std::string& text) {
  Journal j;
  try {
    j = journal_from(parse_json(text));
  } catch (const WireError& e) {
    throw std::runtime_error(std::string("journal parse error: ") + e.what());
  }
  if (j.version != kJournalVersion) {
    throw std::runtime_error("unsupported journal version " +
                             std::to_string(j.version));
  }
  return j;
}

// ----------------------------------------------------------------- replay

StoreCounts replay_fires(const Journal& journal, std::size_t upto) {
  StoreCounts store = journal.initial;
  const std::size_t n = std::min(upto, journal.fires.size());
  for (std::size_t i = 0; i < n; ++i) {
    const FireRecord& f = journal.fires[i];
    StoreCounts consumed;
    StoreCounts produced;
    for (const std::string& e : f.consumed) ++consumed[e];
    for (const std::string& e : f.produced) ++produced[e];
    apply_delta(store, produced, consumed);
  }
  return store;
}

StoreCounts replay_rounds(const Journal& journal, std::size_t upto) {
  StoreCounts store = journal.initial;
  const std::size_t n = std::min(upto, journal.rounds.size());
  for (std::size_t i = 0; i < n; ++i) {
    apply_delta(store, journal.rounds[i].added, journal.rounds[i].removed);
  }
  return store;
}

std::string verify_journal(const Journal& journal) {
  if (replay_rounds(journal, journal.rounds.size()) != journal.final_store) {
    return "round-delta replay does not reach final store";
  }
  if (journal.fires_dropped == 0 &&
      replay_fires(journal, journal.fires.size()) != journal.final_store) {
    return "fire replay does not reach final store";
  }
  if (journal.fires.size() + journal.fires_dropped != journal.fires_total) {
    return "fire drop accounting inconsistent";
  }
  if (journal.rounds_dropped > journal.rounds_total) {
    return "round drop accounting inconsistent";
  }
  return "";
}

}  // namespace gammaflow::obs
