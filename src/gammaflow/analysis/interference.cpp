#include "gammaflow/analysis/interference.hpp"

#include <algorithm>
#include <span>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "gammaflow/common/json.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::analysis {

using gamma::Element;
using gamma::Footprint;
using gamma::Multiset;
using gamma::Pattern;
using gamma::Program;
using gamma::Reaction;

namespace {

/// Enabled-match pairs examined per sampled state and pair.
constexpr std::size_t kProbeMatches = 4;
/// Firing budget for each probe fixpoint; exceeding it makes that probe
/// inconclusive instead of non-terminating.
constexpr std::uint64_t kProbeMaxSteps = 512;

bool sets_intersect(const std::set<std::string>& a,
                    const std::set<std::string>& b) {
  if (a.size() > b.size()) return sets_intersect(b, a);
  return std::any_of(a.begin(), a.end(),
                     [&](const std::string& s) { return b.contains(s); });
}

bool sets_intersect(const std::set<std::size_t>& a,
                    const std::set<std::size_t>& b) {
  if (a.size() > b.size()) return sets_intersect(b, a);
  return std::any_of(a.begin(), a.end(),
                     [&](std::size_t s) { return b.contains(s); });
}

bool consumes_anything(const Footprint& f) {
  return f.consume_any || !f.consume_labels.empty() ||
         !f.consume_arities.empty();
}

bool produces_anything(const Footprint& f) {
  return f.produce_any || !f.produce_labels.empty() ||
         !f.produce_arities.empty();
}

struct Dsu {
  std::vector<std::size_t> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

/// Upper bound on how many elements of label `l` can ever coexist: its
/// initial count, or unbounded once any reaction can produce it.
std::size_t label_cap(const std::string& l,
                      const std::map<std::string, std::size_t>& initial_counts,
                      const std::set<std::string>& produced,
                      bool any_produce_any) {
  if (any_produce_any || produced.contains(l)) {
    return std::numeric_limits<std::size_t>::max();
  }
  const auto it = initial_counts.find(l);
  return it == initial_counts.end() ? 0 : it->second;
}

/// Can two DISTINCT overlapping matches of `r` ever exist? Distinct matches
/// of a single-pattern reaction are element-disjoint (and commute); a
/// multi-pattern reaction whose every pattern is pinned to a label with at
/// most one live element admits at most one tuple. Everything else is
/// probed dynamically.
bool self_competes(const Reaction& r, const Footprint& f,
                   const std::map<std::string, std::size_t>& initial_counts,
                   const std::set<std::string>& produced,
                   bool any_produce_any) {
  if (r.arity() <= 1) return false;
  if (f.consume_any || !f.consume_arities.empty()) return true;
  for (const Pattern& p : r.patterns()) {
    const auto& fields = p.fields();
    if (fields.size() < 2 || fields[1].is_binder() ||
        !fields[1].value().is_str()) {
      return true;  // not label-pinned: multiplicity unknowable
    }
    if (label_cap(fields[1].value().as_str(), initial_counts, produced,
                  any_produce_any) > 1) {
      return true;
    }
  }
  return false;
}

/// The program restricted to stages `from_stage..end` — the valid
/// continuation of a run that has reached the middle of stage `from_stage`.
Program tail_program(const Program& program, std::size_t from_stage) {
  Program tail;
  for (std::size_t s = from_stage; s < program.stages().size(); ++s) {
    Program stage{program.stages()[s]};
    tail = tail.empty() ? std::move(stage) : tail.then(stage);
  }
  return tail;
}

/// Reachable states sampled along one seeded IndexedEngine run, bucketed by
/// the stage that was active when each state was visited. A recorded run
/// gives the firing count and each fire's stage; state k of the even sample
/// is then rebuilt exactly by re-running with the budget cut at k fires. The
/// engine draws its rng identically until the budget refuses fire k+1, so
/// that run stops in the state the full run reached after k fires — and
/// only the sampled states are ever held in memory.
std::vector<std::vector<Multiset>> sample_states(
    const Program& program, const Multiset& initial,
    const InterferenceOptions& options) {
  std::vector<std::vector<Multiset>> by_stage(program.stages().size());
  if (by_stage.empty()) return by_stage;

  gamma::RunOptions ro;
  ro.seed = options.seed;
  ro.max_steps = std::max<std::uint64_t>(kProbeMaxSteps * 8, 4096);
  ro.limit_policy = LimitPolicy::Partial;
  obs::RecorderLimits limits;
  limits.max_fires = ro.max_steps;
  obs::RunRecorder recorder(limits);
  ro.record = &recorder;
  const gamma::IndexedEngine engine;
  const std::uint64_t fires = engine.run(program, initial, ro).steps;
  const std::vector<obs::FireRecord> fire_log = recorder.take().fires;
  ro.record = nullptr;
  const auto stage_of = [&](std::size_t fire) {
    return static_cast<std::size_t>(fire_log[fire].stage);
  };

  const std::size_t states = static_cast<std::size_t>(fires) + 1;
  const std::size_t want = std::max<std::size_t>(options.probe_states, 1);
  const std::size_t stride = std::max<std::size_t>(states / want, 1);
  by_stage[fire_log.empty() ? 0 : stage_of(0)].push_back(initial);
  for (std::size_t k = stride; k < states; k += stride) {
    ro.max_steps = k;
    by_stage[stage_of(k - 1)].push_back(
        engine.run(program, initial, ro).final_multiset);
  }
  return by_stage;
}

/// Fallback when no initial multiset is given: random states synthesized
/// from the pair's own replace lists (one binding environment per reaction
/// instance so repeated binders stay consistent), with label binders drawn
/// from the admitted bounds or the program's label universe.
Multiset synthesize_state(const Reaction& r1, const Reaction& r2,
                          const std::set<std::string>& universe, Rng& rng) {
  Multiset m;
  const std::vector<const Reaction*> pair =
      (&r1 == &r2) ? std::vector<const Reaction*>{&r1}
                   : std::vector<const Reaction*>{&r1, &r2};
  for (const Reaction* r : pair) {
    const std::size_t instances = 1 + rng.bounded(2) + (&r1 == &r2 ? 1 : 0);
    for (std::size_t inst = 0; inst < instances; ++inst) {
      std::map<std::string, Value> binding;
      for (const Pattern& p : r->patterns()) {
        std::vector<Value> fields;
        for (std::size_t i = 0; i < p.fields().size(); ++i) {
          const auto& f = p.fields()[i];
          if (!f.is_binder()) {
            fields.push_back(f.value());
            continue;
          }
          auto it = binding.find(f.name());
          if (it == binding.end()) {
            Value v(static_cast<std::int64_t>(rng.bounded(6)));
            if (i == 1) {
              std::set<std::string> pool;
              if (auto bounds = gamma::admitted_labels(*r, f.name())) {
                pool = *bounds;
              } else {
                pool = universe;
              }
              if (!pool.empty()) {
                auto pick = pool.begin();
                std::advance(pick, static_cast<std::ptrdiff_t>(
                                       rng.bounded(pool.size())));
                v = Value(*pick);
              }
            }
            it = binding.emplace(f.name(), std::move(v)).first;
          }
          fields.push_back(it->second);
        }
        m.add(Element(std::move(fields)));
      }
    }
  }
  return m;
}

bool ids_overlap(std::span<const gamma::Store::Id> a,
                 std::span<const gamma::Store::Id> b) {
  return std::any_of(a.begin(), a.end(), [&](gamma::Store::Id id) {
    return std::find(b.begin(), b.end(), id) != b.end();
  });
}

}  // namespace

std::optional<Multiset> probe_fixpoint(const Program& program,
                                       const Multiset& m, std::uint64_t seed,
                                       std::uint64_t max_steps) {
  gamma::RunOptions ro;
  ro.seed = seed;
  ro.max_steps = max_steps;
  ro.limit_policy = LimitPolicy::Partial;
  gamma::RunResult r = gamma::IndexedEngine().run(program, m, ro);
  if (r.outcome != Outcome::Completed) return std::nullopt;
  return std::move(r.final_multiset);
}

bool compete(const Footprint& a, const Footprint& b) {
  if ((a.consume_any && consumes_anything(b)) ||
      (b.consume_any && consumes_anything(a))) {
    return true;
  }
  return sets_intersect(a.consume_labels, b.consume_labels) ||
         sets_intersect(a.consume_arities, b.consume_arities);
}

bool feeds(const Footprint& a, const Footprint& b) {
  if (a.produce_any && consumes_anything(b)) return true;
  if (b.consume_any && produces_anything(a)) return true;
  return sets_intersect(a.produce_labels, b.consume_labels) ||
         sets_intersect(a.produce_arities, b.consume_arities);
}

bool interferes(const Footprint& a, const Footprint& b) {
  return compete(a, b) || feeds(a, b) || feeds(b, a);
}

const char* to_string(PairStatus status) noexcept {
  switch (status) {
    case PairStatus::Independent: return "independent";
    case PairStatus::Ordered: return "ordered";
    case PairStatus::Commutes: return "commutes";
    case PairStatus::Diverges: return "diverges";
    case PairStatus::Unknown: return "unknown";
  }
  return "?";
}

const char* to_string(ConfluenceVerdict verdict) noexcept {
  switch (verdict) {
    case ConfluenceVerdict::Confluent: return "confluent";
    case ConfluenceVerdict::LikelyConfluent: return "likely-confluent";
    case ConfluenceVerdict::NonConfluent: return "non-confluent";
  }
  return "?";
}

std::map<std::string, std::size_t> InterferenceReport::engine_classes() const {
  std::map<std::string, std::size_t> out;
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    out[reactions[i]] = class_of[i];
  }
  return out;
}

std::map<std::string, std::size_t> InterferenceReport::label_affinity() const {
  std::map<std::string, std::size_t> out;
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    for (const std::string& l : footprints[i].consume_labels) {
      out.emplace(l, class_of[i]);  // consumers win: emplace keeps the first
    }
  }
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    for (const std::string& l : footprints[i].produce_labels) {
      out.emplace(l, class_of[i]);
    }
  }
  return out;
}

bool InterferenceReport::has_divergence() const noexcept {
  return std::any_of(pairs.begin(), pairs.end(), [](const PairFinding& p) {
    return p.status == PairStatus::Diverges;
  });
}

std::string InterferenceReport::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const InterferenceReport& report) {
  os << "interference: " << report.reactions.size() << " reaction(s), "
     << report.edges.size() << " edge(s), " << report.class_count
     << " conflict class(es), verdict " << to_string(report.verdict) << '\n';
  for (std::size_t i = 0; i < report.reactions.size(); ++i) {
    os << "  " << report.reactions[i] << " [class " << report.class_of[i]
       << "] " << report.footprints[i].to_string() << '\n';
  }
  for (const PairFinding& p : report.pairs) {
    os << "  pair (" << report.reactions[p.r1] << ", " << report.reactions[p.r2]
       << "): " << to_string(p.status) << '\n';
    if (p.status == PairStatus::Diverges) {
      os << "    witness M = " << p.witness << '\n'
         << "    fixpoint via " << report.reactions[p.r1] << " = "
         << p.fixpoint1 << '\n'
         << "    fixpoint via " << report.reactions[p.r2] << " = "
         << p.fixpoint2 << '\n';
    }
  }
  return os;
}

void write_json(std::ostream& os, const InterferenceReport& report) {
  os << "{\"verdict\":\"" << to_string(report.verdict)
     << "\",\"class_count\":" << report.class_count << ",\"reactions\":[";
  for (std::size_t i = 0; i < report.reactions.size(); ++i) {
    if (i) os << ',';
    os << "{\"name\":" << json_quote(report.reactions[i]) << ",\"class\":"
       << report.class_of[i] << ",\"footprint\":"
       << json_quote(report.footprints[i].to_string()) << '}';
  }
  // Edge lists by kind, as [from, to] name pairs — feed edges are directed
  // produce->consume, compete edges undirected (emitted r1,r2). The optimizer
  // report and external tools consume this same schema.
  os << "],\"feed_edges\":[";
  bool first_edge = true;
  for (const auto& e : report.typed_edges) {
    for (const auto& [from, to] :
         {std::pair{e.r1, e.r2}, std::pair{e.r2, e.r1}}) {
      if (!(from == e.r1 ? e.feeds_12 : e.feeds_21)) continue;
      if (!first_edge) os << ',';
      first_edge = false;
      os << '[' << json_quote(report.reactions[from]) << ','
         << json_quote(report.reactions[to]) << ']';
    }
  }
  os << "],\"compete_edges\":[";
  first_edge = true;
  for (const auto& e : report.typed_edges) {
    if (!e.compete) continue;
    if (!first_edge) os << ',';
    first_edge = false;
    os << '[' << json_quote(report.reactions[e.r1]) << ','
       << json_quote(report.reactions[e.r2]) << ']';
  }
  os << "],\"pairs\":[";
  for (std::size_t k = 0; k < report.pairs.size(); ++k) {
    const PairFinding& p = report.pairs[k];
    if (k) os << ',';
    os << "{\"r1\":" << json_quote(report.reactions[p.r1]) << ",\"r2\":"
       << json_quote(report.reactions[p.r2]) << ",\"status\":\""
       << to_string(p.status) << '"';
    if (p.status == PairStatus::Diverges) {
      os << ",\"witness\":" << json_quote(p.witness.to_string())
         << ",\"fixpoint1\":" << json_quote(p.fixpoint1.to_string())
         << ",\"fixpoint2\":" << json_quote(p.fixpoint2.to_string());
    }
    os << '}';
  }
  os << "]}";
}

InterferenceReport analyze_interference(const Program& program,
                                        const Multiset& initial,
                                        const InterferenceOptions& options) {
  InterferenceReport report;
  std::vector<const Reaction*> reactions;
  std::vector<std::size_t> stage_of;
  for (std::size_t s = 0; s < program.stages().size(); ++s) {
    for (const Reaction& r : program.stages()[s]) {
      reactions.push_back(&r);
      stage_of.push_back(s);
      report.reactions.push_back(r.name());
      report.footprints.push_back(gamma::reaction_footprint(r));
    }
  }
  const std::size_t n = reactions.size();

  // Multiplicity context for the self-competition refinement.
  std::map<std::string, std::size_t> initial_counts;
  for (const Element& e : initial) {
    if (e.arity() >= 2 && e.field(1).is_str()) {
      ++initial_counts[e.field(1).as_str()];
    }
  }
  std::set<std::string> produced;
  std::set<std::string> universe;
  bool any_produce_any = false;
  for (const Footprint& f : report.footprints) {
    produced.insert(f.produce_labels.begin(), f.produce_labels.end());
    universe.insert(f.produce_labels.begin(), f.produce_labels.end());
    universe.insert(f.consume_labels.begin(), f.consume_labels.end());
    any_produce_any |= f.produce_any;
  }
  for (const auto& [l, c] : initial_counts) universe.insert(l);

  // Interference graph and conflict classes (per stage: reactions in
  // different sequential stages are never concurrent, so they never share a
  // class even when their labels overlap).
  Dsu dsu(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (stage_of[i] != stage_of[j]) continue;
      if (interferes(report.footprints[i], report.footprints[j])) {
        report.edges.emplace_back(i, j);
        report.typed_edges.push_back(
            {i, j, compete(report.footprints[i], report.footprints[j]),
             feeds(report.footprints[i], report.footprints[j]),
             feeds(report.footprints[j], report.footprints[i])});
        dsu.unite(i, j);
      }
    }
  }
  report.class_of.assign(n, 0);
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> class_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = std::make_pair(stage_of[i], dsu.find(i));
    auto [it, inserted] = class_ids.emplace(key, class_ids.size());
    report.class_of[i] = it->second;
  }
  report.class_count = class_ids.size();

  // --- commutation probing over reachable states ---
  const bool have_initial = !initial.empty();
  std::vector<std::vector<Multiset>> states_by_stage;
  if (have_initial && options.probe_states > 0) {
    states_by_stage = sample_states(program, initial, options);
  }
  Rng rng(options.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  std::uint64_t probe_counter = options.seed;

  bool any_competition = false;
  bool any_unknown = false;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (stage_of[i] != stage_of[j]) continue;
      const Footprint& fi = report.footprints[i];
      const Footprint& fj = report.footprints[j];
      const bool competing =
          i == j ? self_competes(*reactions[i], fi, initial_counts, produced,
                                 any_produce_any)
                 : compete(fi, fj);
      if (!competing) {
        if (i != j && (feeds(fi, fj) || feeds(fj, fi))) {
          report.pairs.push_back({i, j, PairStatus::Ordered, {}, {}, {}, {},
                                  {}, 0});
        }
        continue;
      }
      any_competition = true;

      PairFinding finding;
      finding.r1 = i;
      finding.r2 = j;
      finding.status = PairStatus::Unknown;
      const Program continuation = tail_program(program, stage_of[i]);
      bool inconclusive = false;

      std::vector<Multiset> synthesized;
      if (!have_initial && options.probe_states > 0) {
        for (std::size_t t = 0; t < options.probe_states; ++t) {
          synthesized.push_back(
              synthesize_state(*reactions[i], *reactions[j], universe, rng));
        }
      }
      const std::vector<Multiset>& probe_pool =
          have_initial && !states_by_stage.empty()
              ? states_by_stage[stage_of[i]]
              : synthesized;

      for (const Multiset& state : probe_pool) {
        if (finding.status == PairStatus::Diverges) break;
        gamma::FieldSet fields = gamma::FieldSet::of(*reactions[i]);
        fields.add(*reactions[j]);
        gamma::Store store(state, fields);
        const auto matches_of = [&store](const gamma::Reaction& r) {
          std::vector<gamma::Match> found;
          runtime::MatchSite site;
          runtime::MatchPipeline::enumerate(store, r, kProbeMatches, site,
                                            [&found](const gamma::Match& m) {
                                              found.push_back(m);
                                              return true;
                                            });
          return found;
        };
        const std::vector<gamma::Match> m1s = matches_of(*reactions[i]);
        const std::vector<gamma::Match> m2s =
            i == j ? m1s : matches_of(*reactions[j]);
        for (std::size_t a = 0; a < m1s.size(); ++a) {
          if (finding.status == PairStatus::Diverges) break;
          const std::size_t b0 = (i == j) ? a + 1 : 0;
          for (std::size_t b = b0; b < m2s.size(); ++b) {
            if (!ids_overlap(m1s[a].ids.span(), m2s[b].ids.span())) continue;
            // Two conflicting enabled firings from a reachable state: run
            // the continuation from both successors. Distinct fixpoints are
            // two complete runs of the program disagreeing — a proof.
            // Copies of the store the matches were found on: the same ids
            // and symbols, so each match commits there as found.
            gamma::Store s1(store);
            gamma::Store s2(store);
            runtime::MatchPipeline::commit(s1, m1s[a]);
            runtime::MatchPipeline::commit(s2, m2s[b]);
            const Multiset m1 = s1.to_multiset();
            const Multiset m2 = s2.to_multiset();
            const std::uint64_t probe_seed = splitmix64(probe_counter);
            const auto f1 = probe_fixpoint(continuation, m1, probe_seed,
                                           kProbeMaxSteps);
            const auto f2 = probe_fixpoint(continuation, m2, probe_seed,
                                           kProbeMaxSteps);
            if (!f1 || !f2) {
              inconclusive = true;
              continue;
            }
            if (*f1 != *f2) {
              finding.status = PairStatus::Diverges;
              finding.witness = state;
              finding.witness_m1 = m1;
              finding.witness_m2 = m2;
              finding.fixpoint1 = *f1;
              finding.fixpoint2 = *f2;
              finding.witness_seed = probe_seed;
              break;
            }
          }
        }
      }
      if (finding.status != PairStatus::Diverges) {
        // Commutes only on actual evidence: at least one state probed and no
        // probe left hanging. An empty probe pool (probing disabled, or a
        // stage the sampling run never reached) stays Unknown.
        finding.status = (!probe_pool.empty() && !inconclusive)
                             ? PairStatus::Commutes
                             : PairStatus::Unknown;
      }
      any_unknown |= finding.status == PairStatus::Unknown;
      report.pairs.push_back(std::move(finding));
    }
  }

  if (report.has_divergence()) {
    report.verdict = ConfluenceVerdict::NonConfluent;
  } else if (any_competition || any_unknown) {
    report.verdict = ConfluenceVerdict::LikelyConfluent;
  } else {
    report.verdict = ConfluenceVerdict::Confluent;
  }
  return report;
}

}  // namespace gammaflow::analysis
