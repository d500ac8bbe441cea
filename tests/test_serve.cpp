// Streaming-mode tests (DESIGN §14): the worklist-driven incremental
// fixpoint must be byte-identical to a batch run over the union of its
// injections — checked on a 200-seed randomized injection corpus against
// all three in-process engines and the full-rescan worklist baseline (every
// reaction `consume_any`) — and the serve protocol's verbs and error replies
// must match the spec.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/json.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/footprint.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/runtime/worklist.hpp"
#include "gammaflow/serve/server.hpp"
#include "gammaflow/serve/session.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow {
namespace {

using runtime::IncrementalFixpoint;
using runtime::WorklistOptions;

// Confluent programs: a unique fixpoint is what turns "incremental reaches
// SOME fixpoint" into "incremental reaches THE batch fixpoint".
const char* kMin = "Rmin = replace x, y by x where x < y";
const char* kLabeled =
    "Rsum = replace [a, 'A'], [b, 'A'] by [a + b, 'A']\n"
    "Rmax = replace [x, 'B'], [y, 'B'] by [x, 'B'] where x >= y";

std::string render(const gamma::Multiset& m) {
  std::ostringstream os;
  os << m;
  return os.str();
}

gamma::Element bare(std::int64_t v) { return gamma::Element({Value(v)}); }

gamma::Element labeled(std::int64_t v, const char* label) {
  return gamma::Element({Value(v), Value(label)});
}

/// The full-rescan baseline's footprints: every reaction `consume_any`, so
/// each insert wakes them all.
std::vector<gamma::Footprint> rescan_footprints(
    const gamma::Program& program) {
  gamma::Footprint any;
  any.consume_any = true;
  return std::vector<gamma::Footprint>(program.all_reactions().size(), any);
}

/// The elements laid out as IncrementalFixpoint::inject takes them.
gamma::FlatElements flat(const std::vector<gamma::Element>& elements) {
  gamma::FlatElements out;
  for (const gamma::Element& e : elements) {
    out.fields.insert(out.fields.end(), e.fields().begin(), e.fields().end());
    out.arities.push_back(e.arity());
  }
  return out;
}

/// A randomized injection schedule: 3..18 elements split into 1..5 batches
/// (some possibly empty — an empty inject must be a no-op).
std::vector<std::vector<gamma::Element>> random_schedule(std::mt19937_64& rng,
                                                         bool with_labels) {
  const std::size_t total = 3 + rng() % 16;
  const std::size_t batches = 1 + rng() % 5;
  std::vector<std::vector<gamma::Element>> schedule(batches);
  for (std::size_t i = 0; i < total; ++i) {
    const auto v = static_cast<std::int64_t>(rng() % 50);
    gamma::Element e =
        with_labels ? labeled(v, (rng() % 2 == 0) ? "A" : "B") : bare(v);
    schedule[rng() % batches].push_back(std::move(e));
  }
  return schedule;
}

/// One corpus entry: run the schedule through the footprint worklist and
/// the rescan baseline, then the union through every batch engine; all
/// five final stores must render byte-identically.
void check_differential(const gamma::Program& program, std::uint64_t seed,
                        bool with_labels) {
  std::mt19937_64 rng(seed);
  const auto schedule = random_schedule(rng, with_labels);

  WorklistOptions wopts;
  wopts.seed = seed;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  IncrementalFixpoint rescan(program, rescan_footprints(program), wopts);

  gamma::Multiset all;
  for (const auto& batch : schedule) {
    ASSERT_EQ(fix.inject(flat(batch)), Outcome::Completed) << "seed " << seed;
    ASSERT_EQ(rescan.inject(flat(batch)), Outcome::Completed) << "seed " << seed;
    for (const gamma::Element& e : batch) all.add(e);
  }

  const std::string incremental = render(fix.snapshot());
  EXPECT_EQ(render(rescan.snapshot()), incremental) << "seed " << seed;

  gamma::RunOptions bopts;
  bopts.seed = seed;
  const gamma::SequentialEngine seq;
  const gamma::IndexedEngine idx;
  const gamma::ParallelEngine par;
  for (const gamma::Engine* engine :
       {static_cast<const gamma::Engine*>(&seq),
        static_cast<const gamma::Engine*>(&idx),
        static_cast<const gamma::Engine*>(&par)}) {
    const auto batch = engine->run(program, all, bopts);
    EXPECT_EQ(render(batch.final_multiset), incremental)
        << "seed " << seed << " engine " << engine->name();
  }
}

// --------------------------------------------- differential corpus (200) ---

TEST(ServeDifferential, MinCorpusMatchesBatchOn100Seeds) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    check_differential(program, seed, /*with_labels=*/false);
  }
}

TEST(ServeDifferential, LabeledCorpusMatchesBatchOn100Seeds) {
  const gamma::Program program = gamma::dsl::parse_program(kLabeled);
  for (std::uint64_t seed = 101; seed <= 200; ++seed) {
    check_differential(program, seed, /*with_labels=*/true);
  }
}

/// Runs `program` from `initial` as one injection through the footprint
/// worklist and the full-rescan one, and as a batch IndexedEngine run; all
/// three must print the same fixpoint.
void expect_same_fixpoint(const std::string& name,
                          const gamma::Program& program,
                          const gamma::Multiset& initial) {
  std::vector<gamma::Element> elements(initial.begin(), initial.end());
  const WorklistOptions wopts;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  IncrementalFixpoint rescan(program, rescan_footprints(program), wopts);
  ASSERT_EQ(fix.inject(flat(elements)), Outcome::Completed) << name;
  ASSERT_EQ(rescan.inject(flat(elements)), Outcome::Completed) << name;
  const std::string want =
      render(gamma::IndexedEngine().run(program, initial).final_multiset);
  EXPECT_EQ(render(fix.snapshot()), want) << name;
  EXPECT_EQ(render(rescan.snapshot()), want) << name;
}

TEST(ServeDifferential, ExamplesReachTheIndexedFixpointBothWays) {
  const std::filesystem::path dir =
      std::filesystem::path(GF_REPO_DIR) / "examples" / "programs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::size_t gamma_files = 0;
  std::size_t src_files = 0;
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string name = path.filename().string();
    if (path.extension() == ".gamma") {
      // The initial multisets the examples document.
      std::string init;
      if (name == "fig1.gamma") {
        init = "[1,'A1'] [5,'B1'] [3,'C1'] [2,'D1']";
      } else if (name == "min.gamma") {
        init = "[9] [4] [7] [2]";
      } else {
        for (int v = 2; v <= 30; ++v) init.append(std::to_string(v) + " ");
      }
      expect_same_fixpoint(name, gamma::dsl::parse_program(text.str()),
                           gamma::dsl::parse_elements(init));
      ++gamma_files;
    } else if (path.extension() == ".src") {
      // What `togamma` prints: Algorithm 1's program, re-read as text.
      const auto conv = translate::dataflow_to_gamma(
          frontend::compile_source(text.str()));
      expect_same_fixpoint(name,
                           gamma::dsl::parse_program(gamma::dsl::print(
                               conv.program)),
                           conv.initial);
      ++src_files;
    }
  }
  EXPECT_GE(gamma_files, 3u);
  EXPECT_GE(src_files, 3u);
}

// ------------------------------------------------------ worklist internals ---

TEST(Worklist, WakeupKeysMirrorInterferenceFootprints) {
  const auto keys =
      gamma::program_footprints(gamma::dsl::parse_program(kLabeled));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_FALSE(keys[0].consume_any);
  EXPECT_EQ(keys[0].consume_labels, (std::set<std::string>{"A"}));
  EXPECT_FALSE(keys[1].consume_any);
  EXPECT_EQ(keys[1].consume_labels, (std::set<std::string>{"B"}));

  // Single-field patterns key on arity: Rmin consumes bare scalars, so
  // only arity-1 insertions can enable it.
  const auto min_keys =
      gamma::program_footprints(gamma::dsl::parse_program(kMin));
  ASSERT_EQ(min_keys.size(), 1u);
  EXPECT_FALSE(min_keys[0].consume_any);
  EXPECT_EQ(min_keys[0].consume_arities, (std::set<std::size_t>{1}));

  // An unbounded binder in the label slot must fall back to wake-always —
  // anything less would break the "enabled => dirty" invariant.
  const auto any_keys = gamma::program_footprints(gamma::dsl::parse_program(
      "Rany = replace [v, t], [w, t] by [v + w, t]"));
  ASSERT_EQ(any_keys.size(), 1u);
  EXPECT_TRUE(any_keys[0].consume_any);
}

TEST(Worklist, FootprintWakeupsAreSparserThanRescan) {
  const gamma::Program program = gamma::dsl::parse_program(kLabeled);
  WorklistOptions wopts;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  IncrementalFixpoint rescan(program, rescan_footprints(program), wopts);

  // Seed both populations, then stream 'B'-only traffic: the footprint
  // index must never re-probe Rsum while rescan probes both every time.
  const std::vector<gamma::Element> seed_batch = {
      labeled(1, "A"), labeled(2, "A"), labeled(5, "B"), labeled(3, "B")};
  ASSERT_EQ(fix.inject(flat(seed_batch)), Outcome::Completed);
  ASSERT_EQ(rescan.inject(flat(seed_batch)), Outcome::Completed);
  for (std::int64_t v = 0; v < 20; ++v) {
    const std::vector<gamma::Element> one = {labeled(v, "B")};
    ASSERT_EQ(fix.inject(flat(one)), Outcome::Completed);
    ASSERT_EQ(rescan.inject(flat(one)), Outcome::Completed);
  }

  EXPECT_EQ(render(fix.snapshot()), render(rescan.snapshot()));
  EXPECT_LT(fix.stats().wakeups, rescan.stats().wakeups);
  EXPECT_LT(fix.stats().rematches, rescan.stats().rematches);
}

TEST(Worklist, AComputedLabelWakesItsConsumer) {
  // R1's output label is computed (`l + ''`), so it reaches the wake as a
  // text, not as a cell of the store, even though it equals R2's key label
  // 'k'. Only R2's label key admits [v, 'k']: R2 is keyed on no arity.
  const gamma::Program program = gamma::dsl::parse_program(
      "R1 = replace [v, 'in', l] by [v, l + '']\n"
      "R2 = replace [v, 'k'] by [v, 'out']");
  const auto keys = gamma::program_footprints(program);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_FALSE(keys[1].consume_any);
  EXPECT_TRUE(keys[1].consume_arities.empty());
  IncrementalFixpoint fix(program, keys, WorklistOptions{});
  ASSERT_EQ(fix.inject(flat({gamma::Element(
                {Value(std::int64_t{7}), Value("in"), Value("k")})})),
            Outcome::Completed);
  EXPECT_EQ(render(fix.snapshot()), render(gamma::Multiset{labeled(7, "out")}));
  EXPECT_EQ(fix.stats().fires, 2u);
}

TEST(Worklist, EmptyInjectIsANoOpAtFixpoint) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  WorklistOptions wopts;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  const std::vector<gamma::Element> three = {bare(4), bare(2), bare(9)};
  ASSERT_EQ(fix.inject(flat(three)), Outcome::Completed);
  const std::uint64_t fires = fix.stats().fires;
  EXPECT_EQ(fix.inject({}), Outcome::Completed);
  EXPECT_EQ(fix.stats().fires, fires);
  EXPECT_EQ(fix.last_fires(), 0u);
  EXPECT_EQ(render(fix.snapshot()), "{[2]}");
}

TEST(Worklist, FixpointProofAfterAnInertInjectCostsLinearLanes) {
  // 400..799 is already a sieve fixpoint (no element divides another). The
  // first inject proves it with a full sweep per anchor; after that each
  // reaction's AnchorMemo limits the proof to the new element: it sweeps
  // the old ones as an anchor, and each old anchor sweeps just it.
  const gamma::Program program = gamma::dsl::parse_program(
      "Rsieve = replace x, y by [x] where (y % x == 0) and (x > 1)");
  WorklistOptions wopts;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  std::vector<gamma::Element> antichain;
  for (std::int64_t v = 400; v < 800; ++v) antichain.push_back(bare(v));
  const std::uint64_t lanes0 = expr::batch_lanes();
  ASSERT_EQ(fix.inject(flat(antichain)), Outcome::Completed);
  ASSERT_EQ(fix.last_fires(), 0u);
  const std::uint64_t first_lanes = expr::batch_lanes() - lanes0;
  const std::uint64_t live = fix.store().size();
  EXPECT_GE(first_lanes, live * (live - 1));

  const std::uint64_t lanes1 = expr::batch_lanes();
  ASSERT_EQ(fix.inject(flat(std::vector<gamma::Element>{bare(801)})),
            Outcome::Completed);
  EXPECT_EQ(fix.last_fires(), 0u);
  EXPECT_LE(expr::batch_lanes() - lanes1, 3 * fix.store().size());
}

TEST(Worklist, SymbolTableStaysBoundedUnderLabelChurn) {
  // A session that keeps meeting fresh labels, each consumed again, must
  // free them: its store's symbol table stays O(live), not O(every label
  // ever injected).
  const gamma::Program program = gamma::dsl::parse_program(
      "Rpair = replace [x, k], [y, k] by [x + y, 'sum']");
  WorklistOptions wopts;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  std::int64_t label = 0;
  for (int round = 0; round < 1000; ++round) {
    std::vector<gamma::Element> batch;
    for (int i = 0; i < 100; ++i, ++label) {
      const std::string name = std::string("L").append(std::to_string(label));
      batch.push_back(gamma::Element({Value(1), Value(name)}));
      batch.push_back(gamma::Element({Value(2), Value(name)}));
    }
    ASSERT_EQ(fix.inject(flat(batch)), Outcome::Completed);
  }
  EXPECT_EQ(render(fix.snapshot()), "{[300000, 'sum']}");
  const gamma::Store& store = fix.store();
  EXPECT_LE(store.symbol_slots(),
            store.size() + gamma::Store::kGarbageCompactThreshold);
}

TEST(Worklist, MultiStageProgramIsRejected) {
  const gamma::Program two = gamma::dsl::parse_program(
      "R1 = replace x, y by x where x < y ;\n"
      "R2 = replace x, y by x where x > y");
  ASSERT_EQ(two.stage_count(), 2u);
  WorklistOptions wopts;
  EXPECT_THROW(IncrementalFixpoint(two, gamma::program_footprints(two), wopts),
               EngineError);
}

TEST(Worklist, BudgetExhaustionResumesToTheSameFixpoint) {
  // A budget-starved drain stops after exactly max_steps fires, and a
  // session with room reaches the batch fixpoint from the same batch. The
  // budget is for the session's lifetime, so this session cannot resume;
  // CancelledDrainResumesOnTheNextInject covers the resume.
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  WorklistOptions tight;
  tight.max_steps = 2;
  tight.limit_policy = LimitPolicy::Partial;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), tight);
  const std::vector<gamma::Element> batch = {bare(9), bare(4), bare(7),
                                             bare(2), bare(8), bare(5)};
  EXPECT_EQ(fix.inject(flat(batch)), Outcome::BudgetExhausted);
  EXPECT_EQ(fix.stats().fires, 2u);

  WorklistOptions roomy;
  IncrementalFixpoint fresh(program, gamma::program_footprints(program), roomy);
  ASSERT_EQ(fresh.inject(flat(batch)), Outcome::Completed);
  EXPECT_EQ(render(fresh.snapshot()), "{[2]}");
}

TEST(Worklist, CancelledDrainResumesOnTheNextInject) {
  // A drain stopped before its first fire must leave every woken reaction
  // dirty, so the next inject resumes to the batch fixpoint of the union.
  const gamma::Program program = gamma::dsl::parse_program(kLabeled);
  CancelToken token;
  token.cancel();
  WorklistOptions wopts;
  wopts.cancel = &token;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  const std::vector<gamma::Element> batch = {
      labeled(3, "A"), labeled(4, "A"), labeled(5, "A"),
      labeled(7, "B"), labeled(2, "B"), labeled(9, "B")};
  EXPECT_EQ(fix.inject(flat(batch)), Outcome::Cancelled);
  EXPECT_EQ(fix.last_fires(), 0u);

  token.reset();
  ASSERT_EQ(fix.inject({}), Outcome::Completed);
  gamma::Multiset all;
  for (const gamma::Element& e : batch) all.add(e);
  const auto expected = gamma::IndexedEngine{}.run(program, all, {});
  EXPECT_EQ(render(fix.snapshot()), render(expected.final_multiset));
}

TEST(Worklist, TelemetryObservesEachReactionsFires) {
  // The drain runs the stage policy's kernel, so a session with telemetry
  // gets the same per-reaction fire histograms as the batch engines.
  const gamma::Program program = gamma::dsl::parse_program(kLabeled);
  obs::Telemetry tel;
  WorklistOptions wopts;
  wopts.telemetry = &tel;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  const std::vector<gamma::Element> batch = {
      labeled(1, "A"), labeled(2, "A"), labeled(5, "B"), labeled(3, "B"),
      labeled(4, "B")};
  ASSERT_EQ(fix.inject(flat(batch)), Outcome::Completed);
  const MetricsSnapshot metrics = tel.metrics();
  EXPECT_EQ(metrics.histograms.at("gamma.fire_us.Rsum").count, 1u);
  EXPECT_EQ(metrics.histograms.at("gamma.fire_us.Rmax").count, 2u);
  EXPECT_EQ(metrics.counters.at("serve.fires"), 3u);
}

TEST(Worklist, EachDrainEndsInOneFailedProbe) {
  // A reaction stays dirty while it fires, so its own products do not
  // re-queue it: each drain of the one-reaction keyed program ends in
  // exactly one failed find, which proves the fixpoint.
  const gamma::Program program =
      gamma::dsl::parse_program("Rkey = replace [x, k], [y, k] by [x + y, k]");
  WorklistOptions wopts;
  wopts.seed = 7;
  IncrementalFixpoint fix(program, gamma::program_footprints(program), wopts);
  std::mt19937_64 rng(7);
  const auto draw = [&rng](std::size_t count) {
    std::vector<gamma::Element> batch;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string label = std::string("k").append(std::to_string(rng() % 32));
      batch.push_back(labeled(static_cast<std::int64_t>(rng() % 1000),
                              label.c_str()));
    }
    return batch;
  };
  ASSERT_EQ(fix.inject(flat(draw(64))), Outcome::Completed);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(fix.inject(flat(draw(1 + rng() % 4))), Outcome::Completed);
  }
  const runtime::WorklistStats stats = fix.stats();
  ASSERT_EQ(stats.injects, 257u);
  EXPECT_GT(stats.fires, stats.injects);
  EXPECT_EQ(stats.rematches, stats.fires + stats.injects);
  EXPECT_EQ(stats.wakeups, stats.injects);
  EXPECT_EQ(fix.store().size(), 32u);
}

// ------------------------------------------------------------- protocol ---

Json call(serve::Server& server, const std::string& line) {
  return parse_json(server.handle_line(line));
}

serve::ServeOptions min_daemon() {
  serve::ServeOptions opts;
  opts.default_program = kMin;
  return opts;
}

std::string error_code(const Json& reply) {
  EXPECT_FALSE(reply.bool_or("ok", true));
  return reply.str_or("error", "");
}

TEST(Worklist, EvaluationErrorLeavesTheReactionQueued) {
  // An evaluation error leaves the drain with the faulting reaction still
  // queued, so the next inject re-probes it and fails the same way instead
  // of answering `completed` on a store that is not a fixpoint.
  serve::ServeOptions opts;
  opts.default_program = "R = replace x, y by x where 10 / (y - x) > 0";
  serve::Server server(opts);
  ASSERT_TRUE(call(server, R"({"verb":"create","session":"d"})")
                  .bool_or("ok", false));
  EXPECT_EQ(error_code(call(
                server, R"({"verb":"inject","session":"d","elements":"3 3"})")),
            "internal");
  EXPECT_EQ(error_code(call(
                server,
                R"({"verb":"inject","session":"d","elements":"[7, 1]"})")),
            "internal");
  const Json snap = call(server, R"({"verb":"snapshot","session":"d"})");
  ASSERT_TRUE(snap.bool_or("ok", false));
  EXPECT_EQ(snap.int_or("store_size", -1), 3);
}

TEST(ServeProtocol, PingAndVerbValidation) {
  serve::Server server(min_daemon());
  const Json pong = call(server, R"({"verb":"ping"})");
  EXPECT_TRUE(pong.bool_or("ok", false));
  EXPECT_TRUE(pong.bool_or("pong", false));

  EXPECT_EQ(error_code(call(server, R"({"verb":"bogus"})")), "unknown_verb");
  EXPECT_EQ(error_code(call(server, R"({"no_verb":1})")), "bad_request");
  EXPECT_EQ(error_code(call(server, R"({"verb":7})")), "bad_request");
  EXPECT_EQ(error_code(call(server, "not json at all")), "bad_request");
  EXPECT_EQ(error_code(call(server, R"({"verb":"ping")")), "bad_request");
  EXPECT_EQ(error_code(call(server, R"([1,2,3])")), "bad_request");
}

TEST(ServeProtocol, CreateInjectQuerySnapshotCloseLifecycle) {
  serve::Server server(min_daemon());
  const Json created =
      call(server, R"({"verb":"create","init":"5 3 9"})");
  ASSERT_TRUE(created.bool_or("ok", false));
  const std::string id = created.str_or("session", "");
  EXPECT_EQ(id, "s1");
  EXPECT_EQ(created.str_or("outcome", ""), "completed");
  EXPECT_EQ(created.int_or("fires", -1), 2);
  EXPECT_EQ(created.int_or("store_size", -1), 1);
  EXPECT_EQ(server.session_count(), 1u);

  const Json injected = call(
      server, R"({"verb":"inject","session":"s1","elements":"1 7"})");
  ASSERT_TRUE(injected.bool_or("ok", false));
  EXPECT_EQ(injected.int_or("fires", -1), 2);
  EXPECT_EQ(injected.int_or("fires_total", -1), 4);
  EXPECT_EQ(injected.int_or("store_size", -1), 1);

  const Json by_element = call(
      server, R"({"verb":"query","session":"s1","element":"[1]"})");
  EXPECT_EQ(by_element.int_or("count", -1), 1);
  const Json by_size = call(server, R"({"verb":"query","session":"s1"})");
  EXPECT_EQ(by_size.int_or("store_size", -1), 1);

  const Json snap = call(server, R"({"verb":"snapshot","session":"s1"})");
  ASSERT_TRUE(snap.bool_or("ok", false));
  const Json* store = snap.get("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->int_or("[1]", -1), 1);
  EXPECT_EQ(snap.int_or("store_size", -1), 1);

  const Json stats = call(server, R"({"verb":"stats","session":"s1"})");
  EXPECT_EQ(stats.int_or("injected", -1), 5);
  EXPECT_EQ(stats.int_or("injects", -1), 2);
  EXPECT_EQ(stats.int_or("fires", -1), 4);
  EXPECT_GE(stats.int_or("wakeups", -1), 1);
  EXPECT_GE(stats.num_or("quiesce_p99_us", -1.0), 0.0);

  const Json closed = call(server, R"({"verb":"close","session":"s1"})");
  ASSERT_TRUE(closed.bool_or("ok", false));
  EXPECT_EQ(closed.int_or("fires_total", -1), 4);
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(error_code(call(
                server, R"({"verb":"inject","session":"s1","elements":"1"})")),
            "unknown_session");
}

TEST(ServeProtocol, LabelQueriesCountStringField1) {
  serve::ServeOptions opts;
  opts.default_program = kLabeled;
  serve::Server server(opts);
  ASSERT_TRUE(
      call(server,
           R"({"verb":"create","session":"lab","init":"[1,'A'] [2,'A'] [9,'B']"})")
          .bool_or("ok", false));
  EXPECT_EQ(call(server, R"({"verb":"query","session":"lab","label":"A"})")
                .int_or("count", -1),
            1);  // Rsum folded both A's into [3,'A']
  EXPECT_EQ(call(server, R"({"verb":"query","session":"lab","label":"B"})")
                .int_or("count", -1),
            1);
  EXPECT_EQ(call(server, R"({"verb":"query","session":"lab","label":"Z"})")
                .int_or("count", -1),
            0);
  EXPECT_EQ(call(server,
                 R"({"verb":"query","session":"lab","element":"[3,'A']"})")
                .int_or("count", -1),
            1);
}

/// Elements of `m` of arity >= 2 whose field 1 is the string `label`.
std::int64_t scan_label(const gamma::Multiset& m, const char* label) {
  std::int64_t n = 0;
  for (const gamma::Element& e : m) {
    if (e.arity() >= 2 && e.field(1) == Value(label)) ++n;
  }
  return n;
}

TEST(ServeSession, LabelCountsMatchARowScanWhetherField1IsIndexedOrNot) {
  // kLabeled's literal labels make field 1 an indexed field, so a label
  // count is its bucket's size; Rkeep constrains no field, so the count
  // sweeps column 1. Both must count what a scan of the rows counts, over
  // arities 1 to 3 and labels on field 0 as well.
  const char* const programs[] = {
      kLabeled, "Rkeep = replace [x, k, t] by [x, k] where t > 1"};
  for (const char* text : programs) {
    serve::Session session("s", gamma::dsl::parse_program(text),
                           serve::SessionOptions{});
    std::mt19937_64 rng(7);
    const char* const labels[] = {"A", "B", "C"};
    std::vector<gamma::Element> batch;
    for (int i = 0; i < 300; ++i) {
      const auto v = static_cast<std::int64_t>(rng() % 50);
      const char* label = labels[rng() % 3];
      switch (rng() % 4) {
        case 0:
          batch.push_back(bare(v));
          break;
        case 1:
          batch.push_back(gamma::Element({Value(v), Value(label), Value(1)}));
          break;
        case 2:
          batch.push_back(gamma::Element({Value(label), Value(v)}));
          break;
        default:
          batch.push_back(labeled(v, label));
          break;
      }
    }
    ASSERT_EQ(session.inject(flat(batch)).outcome, Outcome::Completed);
    const gamma::Multiset rows = session.snapshot();
    for (const char* label : {"A", "B", "C", "Z"}) {
      EXPECT_EQ(session.count_label(label), scan_label(rows, label))
          << text << " label " << label;
    }
  }
}

TEST(ServeProtocol, SessionErrorsMatchTheSpec) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(call(server, R"({"verb":"create","session":"dup"})")
                  .bool_or("ok", false));
  EXPECT_EQ(error_code(call(server, R"({"verb":"create","session":"dup"})")),
            "duplicate_session");
  for (const char* verb : {"inject", "query", "snapshot", "stats", "close"}) {
    const std::string line = std::string(R"({"verb":")") + verb +
                             R"(","session":"ghost","elements":"1"})";
    EXPECT_EQ(error_code(call(server, line)), "unknown_session") << verb;
  }
}

TEST(ServeProtocol, BadProgramAndBadElements) {
  serve::Server server(min_daemon());
  EXPECT_EQ(error_code(call(
                server, R"({"verb":"create","program":"this is not gamma"})")),
            "bad_program");
  EXPECT_EQ(
      error_code(call(
          server,
          R"({"verb":"create","program":"R1 = replace x, y by x where x < y ; R2 = replace x, y by x where x > y"})")),
      "multi_stage_unsupported");
  EXPECT_EQ(error_code(call(server, R"({"verb":"create","init":"[[["})")),
            "bad_elements");

  ASSERT_TRUE(call(server, R"({"verb":"create","session":"ok"})")
                  .bool_or("ok", false));
  EXPECT_EQ(error_code(call(
                server,
                R"({"verb":"inject","session":"ok","elements":"[x]"})")),
            "bad_elements");
  EXPECT_EQ(error_code(call(
                server,
                R"({"verb":"query","session":"ok","element":"1 2"})")),
            "bad_elements");

  serve::ServeOptions no_default;
  serve::Server bare_server(no_default);
  EXPECT_EQ(error_code(call(bare_server, R"({"verb":"create"})")),
            "bad_program");
}

TEST(ServeProtocol, SessionLimitIsEnforced) {
  serve::ServeOptions opts = min_daemon();
  opts.max_sessions = 2;
  serve::Server server(opts);
  ASSERT_TRUE(call(server, R"({"verb":"create"})").bool_or("ok", false));
  ASSERT_TRUE(call(server, R"({"verb":"create"})").bool_or("ok", false));
  EXPECT_EQ(error_code(call(server, R"({"verb":"create"})")), "session_limit");
  ASSERT_TRUE(call(server, R"({"verb":"close","session":"s1"})")
                  .bool_or("ok", false));
  EXPECT_TRUE(call(server, R"({"verb":"create"})").bool_or("ok", false));
}

TEST(ServeProtocol, BudgetExhaustionIsAnErrorReplyWithPartialState) {
  serve::Server server(min_daemon());
  const Json created = call(
      server, R"({"verb":"create","session":"b","max_steps":1,"init":"9"})");
  ASSERT_TRUE(created.bool_or("ok", false));
  const Json stopped = call(
      server,
      R"({"verb":"inject","session":"b","elements":"4 7 2 8 5"})");
  EXPECT_EQ(error_code(stopped), "budget_exhausted");
  EXPECT_TRUE(stopped.bool_or("partial", false));
  EXPECT_EQ(stopped.str_or("outcome", ""), "budget_exhausted");
  // The session survives with a valid intermediate store.
  const Json snap = call(server, R"({"verb":"snapshot","session":"b"})");
  EXPECT_TRUE(snap.bool_or("ok", false));
  EXPECT_GE(snap.int_or("store_size", -1), 1);
}

TEST(ServeProtocol, DeadlineExceededIsAnErrorReplyWithPartialState) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(
      call(server, R"({"verb":"create","session":"d","deadline":1e-9})")
          .bool_or("ok", false));
  std::string elements;
  for (int v = 0; v < 400; ++v) elements += std::to_string(v) + " ";
  const Json stopped =
      call(server, R"({"verb":"inject","session":"d","elements":")" +
                       elements + R"("})");
  EXPECT_EQ(error_code(stopped), "deadline_exceeded");
  EXPECT_TRUE(stopped.bool_or("partial", false));
}

TEST(ServeProtocol, CloseReturnsSessionTaggedJournalInline) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(
      call(server,
           R"({"verb":"create","session":"rec","record":true,"init":"3 1 2"})")
          .bool_or("ok", false));
  ASSERT_TRUE(
      call(server, R"({"verb":"inject","session":"rec","elements":"0 5"})")
          .bool_or("ok", false));
  const Json closed =
      call(server, R"({"verb":"close","session":"rec"})");
  ASSERT_TRUE(closed.bool_or("ok", false));
  const Json* journal = closed.get("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->str_or("session", ""), "rec");
  EXPECT_EQ(journal->str_or("engine", ""), "worklist");
  EXPECT_EQ(journal->str_or("outcome", ""), "completed");

  // The inline journal is a real journal: it reparses and replays to the
  // session's final store ({[0]} — the global minimum).
  const obs::Journal parsed =
      obs::parse_journal_string(journal->to_string());
  EXPECT_EQ(obs::verify_journal(parsed), "");
  EXPECT_EQ(parsed.session, "rec");
  ASSERT_EQ(parsed.rounds_total, 2u);
  const obs::StoreCounts final =
      obs::replay_rounds(parsed, parsed.rounds.size());
  EXPECT_EQ(final, (obs::StoreCounts{{"[0]", 1}}));
}

TEST(ServeProtocol, StreamFrontPumpsLinesAndShutdownClosesSessions) {
  serve::Server server(min_daemon());
  std::istringstream in(
      "{\"verb\":\"create\",\"init\":\"5 3\"}\n"
      "\n"
      "{\"verb\":\"stats\"}\n"
      "{\"verb\":\"shutdown\"}\n"
      "{\"verb\":\"ping\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream replies(out.str());
  std::string line;
  std::vector<Json> parsed;
  while (std::getline(replies, line)) parsed.push_back(parse_json(line));
  // create, stats, shutdown — the post-shutdown ping is never served.
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].str_or("session", ""), "s1");
  EXPECT_EQ(parsed[1].int_or("sessions", -1), 1);
  EXPECT_TRUE(parsed[2].bool_or("shutdown", false));
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ServeProtocol, TooDeepLineIsABadRequestAndServingContinues) {
  // 200000 unclosed '[' used to overflow the stack of the recursive parser
  // and take every tenant's session down with the daemon.
  serve::Server server(min_daemon());
  std::istringstream in(std::string(200'000, '[') + "\n" +
                        "{\"verb\":\"ping\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream replies(out.str());
  std::string line;
  std::vector<Json> parsed;
  while (std::getline(replies, line)) parsed.push_back(parse_json(line));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(error_code(parsed[0]), "bad_request");
  EXPECT_EQ(parsed[0].str_or("message", ""),
            "WireError: nesting deeper than 256 at offset 256");
  EXPECT_TRUE(parsed[1].bool_or("pong", false));
}

TEST(ServeProtocol, DeeplyNestedProgramIsABadProgramAndServingContinues) {
  // 20000 parentheses inside a create's program string: the line is shallow
  // JSON, but the expression parser used to recurse once per '(' and
  // overflow the stack.
  serve::Server server(min_daemon());
  const std::string guard =
      std::string(20'000, '(') + "x < y" + std::string(20'000, ')');
  std::istringstream in(
      R"({"verb":"create","program":"R = replace x, y by x where )" + guard +
      "\"}\n" + "{\"verb\":\"ping\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream replies(out.str());
  std::string line;
  std::vector<Json> parsed;
  while (std::getline(replies, line)) parsed.push_back(parse_json(line));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(error_code(parsed[0]), "bad_program");
  EXPECT_EQ(parsed[0].str_or("message", ""),
            "ParseError at 1:285: nesting deeper than 256");
  EXPECT_TRUE(parsed[1].bool_or("pong", false));
}

TEST(ServeProtocol, SessionJournalPathInsertsSessionBeforeExtension) {
  EXPECT_EQ(serve::session_journal_path("runs/serve.json", "s1"),
            "runs/serve.s1.json");
  EXPECT_EQ(serve::session_journal_path("journal", "s2"), "journal.s2");
  EXPECT_EQ(serve::session_journal_path("a.b/journal", "s3"),
            "a.b/journal.s3");
}

// ------------------------------------------------------------------ wire ---

TEST(ServeWire, LineSplitterMatchesAReferenceSplitOverRandomChunkings) {
  // Lines of mixed lengths (empty, short, and longer than a chunk) fed in
  // seeded random chunks of 1 byte to 8 KiB come out as the reference split
  // of the whole stream; an unterminated tail is never handed out.
  std::mt19937_64 rng(0x5e11);
  for (int trial = 0; trial < 60; ++trial) {
    std::string stream;
    std::vector<std::string> want;
    const std::size_t lines = rng() % 40;
    for (std::size_t i = 0; i < lines; ++i) {
      const std::size_t kind = rng() % 4;
      const std::size_t length = kind == 0   ? 0
                                 : kind == 3 ? 4096 + rng() % 16384
                                             : 1 + rng() % 80;
      std::string line;
      for (std::size_t j = 0; j < length; ++j) {
        line.push_back(static_cast<char>(' ' + rng() % 95));
      }
      stream.append(line).push_back('\n');
      want.push_back(std::move(line));
    }
    stream.append(rng() % 100, 'x');  // the unterminated tail
    const std::size_t max_chunk = std::size_t{1} << (rng() % 14);  // 1..8K
    serve::LineSplitter splitter;
    std::vector<std::string> got;
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t n =
          std::min(1 + rng() % max_chunk, stream.size() - at);
      splitter.append(stream.data() + at, n);
      at += n;
      while (const std::optional<std::string_view> line = splitter.next()) {
        got.emplace_back(*line);
      }
    }
    EXPECT_EQ(got, want) << "trial " << trial << ", chunks up to "
                         << max_chunk;
  }
}

TEST(ServeWire, OnlyThePlainInjectShapeIsReadInOnePass) {
  const auto read = [](std::string_view line) -> std::string {
    const std::optional<serve::InjectLine> r = serve::read_inject_line(line);
    if (!r) return "dom";
    return std::string(r->session).append("|").append(r->elements);
  };
  EXPECT_EQ(read(R"({"verb":"inject","session":"s1","elements":"[1,'k']"})"),
            "s1|[1,'k']");
  EXPECT_EQ(read(" {\t\"elements\" :\"1 2\" , \"verb\":\"inject\",\"session\""
                 ":\"a\"}\t "),
            "a|1 2");
  EXPECT_EQ(read(R"({"session":"","elements":"","verb":"inject"})"), "|");
  for (const char* dom : {
           R"({"verb":"inject","session":"s\u0031","elements":"1"})",
           R"({"verb":"inject","session":"s1","elements":"'\''"})",
           R"({"verb":"inject","session":"a","session":"b","elements":"1"})",
           R"({"verb":"inject","session":"a","elements":"1","_":0})",
           R"({"verb":"inject","session":"a"})",
           R"({"verb":"inject","session":1,"elements":"1"})",
           R"({"verb":"inject","session":"a","elements":["1"]})",
           R"({"verb":"ping","session":"a","elements":"1"})",
           R"({"verb":"inject","session":"a","elements":"1"} x)",
           R"({"verb":"inject","session":"a","elements":"1")",
           R"({"verb":"inject","session":"a","elements":"1)",
           "{\"verb\":\"inject\",\"session\":\"a\",\v\"elements\":\"1\"}",
           "{\"verb\":\"inject\",\"session\":\"a\",\f\"elements\":\"1\"}",
           "{\"verb\":\"inject\",\"session\":\"a\",\r\"elements\":\"1\"}",
           "",
           "[]",
       }) {
    EXPECT_EQ(read(dom), "dom") << dom;
  }
}

/// The same request with one more key: a line read_inject_line turns down,
/// so the server parses it into a JSON DOM first.
std::string through_the_dom(const std::string& line) {
  std::string forced = line;
  forced.insert(forced.rfind('}'), R"(,"_":0)");
  return forced;
}

/// `reply` with every drain time (quiesce_us, quiesce_p50_us, ...) as 0.
std::string mask_quiesce(const std::string& reply) {
  std::string masked;
  std::size_t from = 0;
  for (std::size_t at; (at = reply.find("\"quiesce_", from)) != std::string::npos;) {
    const std::size_t value = reply.find(':', at) + 1;
    masked.append(reply, from, value - from).push_back('0');
    from = reply.find_first_of(",}", value);
  }
  return masked.append(reply, from);
}

/// One seeded inject request: its keys in a random order with random blanks
/// around the tokens, and sometimes an escaped string or a duplicate key.
std::string random_inject_line(std::mt19937_64& rng, const std::string& session,
                               std::string elements) {
  if (rng() % 8 == 0) {  // escaped quotes: legal JSON, not the plain shape
    std::string escaped;
    for (const char c : elements) {
      if (c == '\'') {
        escaped += R"(\u0027)";
      } else {
        escaped.push_back(c);
      }
    }
    elements = escaped;
  }
  std::vector<std::string> fields = {R"("verb":"inject")",
                                     R"("session":")" + session + "\"",
                                     R"("elements":")" + elements + "\""};
  if (rng() % 8 == 0) {  // a duplicate key; the DOM keeps the last
    fields.insert(fields.begin(), R"("session":"ghost")");
  }
  std::shuffle(fields.begin() + 1, fields.end(), rng);
  const auto blanks = [&rng] {
    static constexpr std::array<const char*, 4> kBlanks = {"", "", " ", "\t "};
    return std::string(kBlanks[rng() % kBlanks.size()]);
  };
  std::string line = blanks() + "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += blanks() + ",";
    std::string field = fields[i];
    field.insert(field.find(':') + 1, blanks());
    line += blanks() + field;
  }
  return line + blanks() + "}" + blanks();
}

TEST(ServeWire, PlainAndDomInjectRepliesAreByteIdentical) {
  // Two daemons get the same seeded script. One reads each line as written,
  // most injects through the one-pass reader; the other gets every request
  // with an extra key, which sends it through parse_json. The replies must
  // be byte-identical once the drain times are masked, and equal to what the
  // JSON DOM prints for them. Sessions: "t" has
  // room, "b" runs out of its 24-fire budget, "d" has a 1 ns deadline, and
  // "ghost" does not exist.
  std::mt19937_64 rng(0x7a1f5);
  serve::ServeOptions opts;
  opts.default_program = kLabeled;
  serve::Server plain(opts);
  serve::Server dom(opts);
  std::vector<std::string> script = {
      R"({"verb":"create","session":"t","init":"[1,'A'] [4,'B']"})",
      R"({"verb":"create","session":"b","max_steps":24})",
      R"({"verb":"create","session":"d","deadline":1e-9})",
  };
  const std::array<std::string, 4> sessions = {"t", "b", "d", "ghost"};
  const auto element = [&rng] {
    const std::string v = std::to_string(rng() % 100);
    switch (rng() % 8) {
      case 0: return v;                                  // bare 1-tuple
      case 1: return "[" + v + ", 'B']";
      case 2: return std::string("[x, 'A']");            // bad_elements
      case 3: return "[" + v + " + 1, 'A']";             // folds
      default: return "[" + v + ",'A']";
    }
  };
  std::size_t bad = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string& session = sessions[rng() % sessions.size()];
    // "d" gets bursts long enough to reach its first deadline probe.
    const std::size_t count = session == "d" ? 80 + rng() % 80 : rng() % 7;
    std::string elements;
    for (std::size_t k = 0; k < count; ++k) {
      std::string e = element();
      if (e == "[x, 'A']" && (session == "d" || rng() % 3 != 0)) {
        e = "[" + std::to_string(k) + ",'A']";
      }
      elements += (k == 0 ? "" : rng() % 2 == 0 ? " " : ", ") + e;
    }
    script.push_back(random_inject_line(rng, session, elements));
    if (i % 50 == 49) {
      for (const std::string& s : sessions) {
        script.push_back(R"({"verb":"snapshot","session":")" + s + "\"}");
        script.push_back(R"({"verb":"stats","session":")" + s + "\"}");
      }
    }
  }
  std::map<std::string, std::size_t> codes;
  std::size_t one_pass = 0;
  for (const std::string& line : script) {
    if (serve::read_inject_line(line)) ++one_pass;
    const std::string want = mask_quiesce(dom.handle_line(through_the_dom(line)));
    const std::string got = mask_quiesce(plain.handle_line(line));
    ASSERT_EQ(got, want) << "line: " << line;
    // Both paths share the reply writer, so hold it to the DOM's bytes too:
    // a reply re-printed from its parsed JsonObj (keys in map order) is
    // unchanged.
    const Json reply = parse_json(got);
    ASSERT_EQ(reply.to_string(), got) << "line: " << line;
    ++codes[reply.bool_or("ok", false) ? "ok" : reply.str_or("error", "")];
    if (reply.str_or("error", "") == "bad_elements") ++bad;
  }
  // Every kind of reply the script aims at turned up.
  for (const char* code : {"ok", "unknown_session", "bad_elements",
                           "budget_exhausted", "deadline_exceeded"}) {
    EXPECT_GT(codes[code], 0u) << code;
  }
  EXPECT_GT(bad, 0u);
  EXPECT_GT(one_pass, script.size() / 2);
}

TEST(ServeWire, AClientThatHangsUpBeforeItsReplyLeavesTheDaemonServing) {
  // The daemon writes the reply to a 16 MiB line after the client has
  // closed its end: the failed write must end that connection only, not
  // raise SIGPIPE in the daemon (which would end this test binary too).
  serve::ServeOptions opts = min_daemon();
  opts.socket_path = (std::filesystem::temp_directory_path() /
                      ("gf_hangup_" + std::to_string(::getpid()) + ".sock"))
                         .string();
  serve::Server server(opts);
  std::thread daemon([&server] { EXPECT_EQ(server.serve_socket(), 0); });
  const auto connect = [&opts] {
    for (int attempt = 0;; ++attempt) {
      try {
        return std::make_unique<serve::Client>(opts.socket_path);
      } catch (const Error&) {
        if (attempt == 500) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  };
  (void)connect();  // the daemon is listening
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts.socket_path.c_str(),
                opts.socket_path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string line = std::string(R"({"verb":"ping","pad":")")
                                 .append(std::size_t{16} << 20, 'x')
                                 .append("\"}\n");
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);  // before the reply is written
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::unique_ptr<serve::Client> client = connect();
  EXPECT_TRUE(parse_json(client->call(R"({"verb":"ping"})"))
                  .bool_or("pong", false));
  EXPECT_TRUE(parse_json(client->call(R"({"verb":"shutdown"})"))
                  .bool_or("shutdown", false));
  daemon.join();
}

TEST(ServeWire, DomInjectReadsElementsOnlyForALiveSession) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(call(server, R"({"verb":"create","session":"t","init":"4"})")
                  .bool_or("ok", false));
  EXPECT_EQ(error_code(call(
                server, R"({"verb":"inject","session":"ghost","elements":7})")),
            "unknown_session");
  const Json mistyped =
      call(server, R"({"verb":"inject","session":"t","elements":7})");
  EXPECT_EQ(error_code(mistyped), "bad_request");
  EXPECT_EQ(mistyped.str_or("message", ""),
            "WireError: expected string, got int");
  const Json none = call(server, R"({"verb":"inject","session":"t"})");
  EXPECT_TRUE(none.bool_or("ok", false));
  EXPECT_EQ(none.int_or("store_size", -1), 1);
}

TEST(ServeWire, BadElementsMidTextLeavesTheStoreUntouched) {
  // The whole element text is read before the first insert.
  serve::ServeOptions opts;
  opts.default_program = kLabeled;
  serve::Server server(opts);
  ASSERT_TRUE(call(server, R"({"verb":"create","session":"t","init":"[1,'B']"})")
                  .bool_or("ok", false));
  const Json bad = call(
      server,
      R"({"verb":"inject","session":"t","elements":"[5,'B'] [2,'A'] [x] [3,'A']"})");
  EXPECT_EQ(error_code(bad), "bad_elements");
  const Json snap = call(server, R"({"verb":"snapshot","session":"t"})");
  EXPECT_EQ(snap.int_or("store_size", -1), 1);
  EXPECT_EQ(snap.get("store")->int_or("[1, 'B']", -1), 1);
  const Json stats = call(server, R"({"verb":"stats","session":"t"})");
  EXPECT_EQ(stats.int_or("injected", -1), 1);
  EXPECT_EQ(stats.int_or("injects", -1), 1);
}

}  // namespace
}  // namespace gammaflow
