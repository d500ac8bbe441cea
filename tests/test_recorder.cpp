// Run-recorder tests: the journal a recorded run produces must replay to the
// engine's own final state (rounds always; fires exactly when nothing was
// dropped), survive a serialize -> parse round trip unchanged, and account
// for every drop under tiny budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/footprint.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/runtime/worklist.hpp"

namespace gammaflow {
namespace {

using obs::Journal;
using obs::RecorderLimits;
using obs::RunRecorder;
using obs::StoreCounts;

gamma::Multiset ints(std::initializer_list<std::int64_t> xs) {
  gamma::Multiset m;
  for (const std::int64_t x : xs) m.add(gamma::Element({Value(x)}));
  return m;
}

/// The same ints laid out as IncrementalFixpoint::inject takes them.
gamma::FlatElements flat_ints(std::initializer_list<std::int64_t> xs) {
  gamma::FlatElements out;
  for (const std::int64_t x : xs) {
    out.fields.emplace_back(x);
    out.arities.push_back(1);
  }
  return out;
}

std::unique_ptr<gamma::Engine> make_engine(const std::string& name) {
  if (name == "seq") return std::make_unique<gamma::SequentialEngine>();
  if (name == "idx") return std::make_unique<gamma::IndexedEngine>();
  return std::make_unique<gamma::ParallelEngine>();
}

const char* kMin = "Rmin = replace x, y by x where x < y";

/// write ∘ parse is the identity on every journal the recorder writes.
void expect_text_round_trip(const Journal& j) {
  const std::string text = obs::journal_to_string(j);
  EXPECT_EQ(obs::journal_to_string(obs::parse_journal_string(text)), text);
}

// ---------------------------------------------------------------- gamma ---

class GammaRecorderSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(GammaRecorderSuite, JournalReplaysToEngineFinalStore) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  const gamma::Multiset initial = ints({9, 4, 7, 2, 8, 5});
  RunRecorder rec;
  gamma::RunOptions opts;
  opts.seed = 7;
  opts.record = &rec;
  const auto result = make_engine(GetParam())->run(program, initial, opts);
  const Journal j = rec.take();
  expect_text_round_trip(j);

  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(j.kind, "gamma");
  EXPECT_EQ(j.outcome, "completed");
  EXPECT_EQ(j.initial, runtime::store_counts(initial));

  const StoreCounts final = runtime::store_counts(result.final_multiset);
  EXPECT_EQ(j.final_store, final);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  ASSERT_EQ(j.fires_dropped, 0u);
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), final);
  EXPECT_EQ(j.fires_total, result.steps);
  for (const obs::FireRecord& f : j.fires) {
    EXPECT_EQ(f.reaction, "Rmin");
    EXPECT_EQ(f.consumed.size(), 2u);
    EXPECT_EQ(f.produced.size(), 1u);
  }
}

TEST_P(GammaRecorderSuite, SerializeParseRoundTrip) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  RunRecorder rec;
  gamma::RunOptions opts;
  opts.record = &rec;
  (void)make_engine(GetParam())->run(program, ints({3, 1, 4, 1, 5}), opts);
  const Journal j = rec.take();

  const std::string text = obs::journal_to_string(j);
  const Journal parsed = obs::parse_journal_string(text);
  EXPECT_EQ(parsed.version, obs::kJournalVersion);
  EXPECT_EQ(parsed.engine, j.engine);
  EXPECT_EQ(parsed.kind, j.kind);
  EXPECT_EQ(parsed.outcome, j.outcome);
  EXPECT_EQ(parsed.initial, j.initial);
  EXPECT_EQ(parsed.final_store, j.final_store);
  EXPECT_EQ(parsed.fires_total, j.fires_total);
  EXPECT_EQ(parsed.rounds_total, j.rounds_total);
  ASSERT_EQ(parsed.fires.size(), j.fires.size());
  for (std::size_t i = 0; i < j.fires.size(); ++i) {
    EXPECT_EQ(parsed.fires[i].reaction, j.fires[i].reaction);
    EXPECT_EQ(parsed.fires[i].round, j.fires[i].round);
    EXPECT_EQ(parsed.fires[i].consumed, j.fires[i].consumed);
    EXPECT_EQ(parsed.fires[i].produced, j.fires[i].produced);
  }
  // Serializing the parsed journal reproduces the text byte-for-byte.
  EXPECT_EQ(obs::journal_to_string(parsed), text);
  EXPECT_EQ(obs::verify_journal(parsed), "");
}

INSTANTIATE_TEST_SUITE_P(Engines, GammaRecorderSuite,
                         ::testing::Values("seq", "idx", "par"));

TEST(Recorder, TinyBudgetCountsDropsAndStillConverges) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  gamma::Multiset initial;
  for (std::int64_t i = 0; i < 40; ++i) {
    initial.add(gamma::Element({Value(100 - i)}));
  }
  RecorderLimits limits;
  limits.max_fires = 3;
  limits.max_rounds = 1;
  limits.max_round_bytes = 128;
  RunRecorder rec(limits);
  gamma::RunOptions opts;
  opts.record = &rec;
  const auto result = gamma::SequentialEngine().run(program, initial, opts);
  const Journal j = rec.take();
  expect_text_round_trip(j);

  EXPECT_EQ(j.fires_total, result.steps);
  EXPECT_GT(j.fires_dropped, 0u);
  EXPECT_LE(j.fires.size(), 3u);
  EXPECT_GT(j.rounds_dropped, 0u);
  // The closing round is budget-exempt: rounds-replay still reaches the
  // engine's final store even though intermediate rounds were dropped.
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()),
            runtime::store_counts(result.final_multiset));
  EXPECT_EQ(obs::verify_journal(j), "");
}

TEST(Recorder, EscapedStringsSurviveRoundTrip) {
  RunRecorder rec;
  rec.begin("test", "gamma", {{"[1, 'a\"b\\c']", 2}, {"tab\there", 1}});
  obs::FireRecord f;
  f.reaction = "R\"quoted\"\nnewline";
  f.consumed = {"[1, 'a\"b\\c']"};
  f.produced = {"ctrl\x01char"};
  rec.fire(std::move(f));
  rec.round({{"[1, 'a\"b\\c']", 1}, {"tab\there", 1}, {"ctrl\x01char", 1}});
  rec.finish("completed",
             {{"[1, 'a\"b\\c']", 1}, {"tab\there", 1}, {"ctrl\x01char", 1}});
  const Journal j = rec.take();
  expect_text_round_trip(j);
  const Journal parsed = obs::parse_journal_string(obs::journal_to_string(j));
  EXPECT_EQ(parsed.fires.at(0).reaction, "R\"quoted\"\nnewline");
  EXPECT_EQ(parsed.final_store, j.final_store);
  EXPECT_EQ(obs::verify_journal(parsed), "");
}

TEST(Recorder, SessionTagRoundTripsAndIsOmittedWhenEmpty) {
  RunRecorder rec;
  rec.begin("worklist", "gamma", {{"[1]", 1}});
  rec.round({{"[1]", 1}});
  rec.finish("completed", {{"[1]", 1}});
  Journal j = rec.take();

  // Pre-serve journals carry no session; the serialized form must not grow
  // a "session" key so old journals stay byte-identical.
  EXPECT_EQ(j.session, "");
  const std::string untagged = obs::journal_to_string(j);
  EXPECT_EQ(untagged.find("\"session\""), std::string::npos);
  EXPECT_EQ(obs::parse_journal_string(untagged).session, "");

  j.session = "s42";
  const std::string tagged = obs::journal_to_string(j);
  EXPECT_NE(tagged.find("\"session\":\"s42\""), std::string::npos);
  const Journal parsed = obs::parse_journal_string(tagged);
  EXPECT_EQ(parsed.session, "s42");
  EXPECT_EQ(obs::journal_to_string(parsed), tagged);
  EXPECT_EQ(obs::verify_journal(parsed), "");
}

TEST(Recorder, WorklistJournalReplaysAcrossInjections) {
  // A serve session's journal spans many injections: one round per
  // quiescent state. Replaying the rounds must land on the live store.
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  RunRecorder rec;
  runtime::WorklistOptions wopts;
  wopts.seed = 11;
  wopts.record = &rec;
  runtime::IncrementalFixpoint fix(
      program, gamma::program_footprints(program), wopts);
  rec.set_session("s1");
  ASSERT_EQ(fix.inject(flat_ints({9, 4, 7})), Outcome::Completed);
  ASSERT_EQ(fix.inject(flat_ints({2, 8})), Outcome::Completed);
  ASSERT_EQ(fix.inject(flat_ints({5})), Outcome::Completed);
  fix.finish_recording();
  const Journal j = rec.take();
  expect_text_round_trip(j);

  EXPECT_EQ(j.session, "s1");
  EXPECT_EQ(j.engine, "worklist");
  EXPECT_EQ(j.outcome, "completed");
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(j.rounds_total, 3u);
  const StoreCounts final = runtime::store_counts(fix.snapshot());
  EXPECT_EQ(j.final_store, final);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  ASSERT_EQ(j.fires_dropped, 0u);
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), final);

  const Journal parsed = obs::parse_journal_string(obs::journal_to_string(j));
  EXPECT_EQ(parsed.session, "s1");
  EXPECT_EQ(parsed.final_store, final);
}

TEST(Recorder, VersionMismatchThrows) {
  EXPECT_THROW(
      (void)obs::parse_journal_string(
          R"({"gf_journal":99,"engine":"x","kind":"gamma","outcome":"completed","initial":{},"rounds":[],"fires":[],"final":{},"fires_total":0,"fires_dropped":0,"rounds_total":0,"rounds_dropped":0})"),
      std::runtime_error);
  EXPECT_THROW((void)obs::parse_journal_string("not json"),
               std::runtime_error);
}

TEST(Recorder, DeepValueUnderUnknownKeyThrowsInsteadOfOverflowing) {
  // Unknown keys are skipped, but their values still go through the shared
  // JSON parser and its nesting limit: hostile depth is an error, not a
  // stack overflow.
  const std::size_t depth = 200'000;
  const std::string text = R"({"gf_journal":1,"extra":)" +
                           std::string(depth, '[') + std::string(depth, ']') +
                           "}";
  try {
    (void)obs::parse_journal_string(text);
    FAIL() << "a 200000-deep value parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos)
        << e.what();
  }
  // Depth within the limit under an unknown key is still skipped.
  const Journal j = obs::parse_journal_string(
      R"({"gf_journal":1,"extra":[[{"x":[1]}]],"engine":"e"})");
  EXPECT_EQ(j.engine, "e");
}

// ------------------------------------------------------------- dataflow ---

TEST(DataflowRecorder, InterpreterJournalReplaysToOutputs) {
  const dataflow::Graph g = paper::fig1_graph();
  RunRecorder rec;
  dataflow::DfRunOptions opts;
  opts.record = &rec;
  const auto result = dataflow::Interpreter().run(g, opts);
  const Journal j = rec.take();
  expect_text_round_trip(j);

  EXPECT_EQ(j.engine, "interpreter");
  EXPECT_EQ(j.kind, "dataflow");
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_TRUE(j.initial.empty());
  EXPECT_EQ(j.fires_total, result.fires);
  ASSERT_EQ(j.fires_dropped, 0u);

  // The final "store" = captured outputs + parked leftovers, in the shared
  // canonical renderings.
  StoreCounts expected;
  for (const auto& [name, tokens] : result.outputs) {
    for (const auto& [tag, value] : tokens) {
      ++expected[dataflow::journal_output_str(name, tag, value)];
    }
  }
  for (const dataflow::PendingOperand& p : result.leftovers) {
    ++expected[dataflow::journal_token_str(g, p.node, p.port, p.tag, p.value)];
  }
  EXPECT_EQ(j.final_store, expected);
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), expected);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), expected);
}

TEST(DataflowRecorder, ParallelEngineJournalReplays) {
  const dataflow::Graph g = paper::fig2_graph(4, 5, 100, true);
  RunRecorder rec;
  dataflow::DfRunOptions opts;
  opts.workers = 3;
  opts.record = &rec;
  const auto result = dataflow::ParallelEngine().run(g, opts);
  const Journal j = rec.take();
  expect_text_round_trip(j);

  EXPECT_EQ(j.engine, "parallel");
  EXPECT_EQ(j.kind, "dataflow");
  EXPECT_EQ(j.fires_total, result.fires);
  ASSERT_EQ(j.fires_dropped, 0u);
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), j.final_store);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), j.final_store);
}

TEST(DataflowRecorder, ParallelEngineJournalsProducersBeforeConsumers) {
  // 64 PEs on the fig-2 loop: a PE that journaled its fire only after
  // routing the emission let the consumer's fire reach the journal first,
  // and fire replay then missed the final store on some interleavings.
  const dataflow::Graph g = paper::fig2_graph(4, 5, 100, true);
  for (int run = 0; run < 200; ++run) {
    RunRecorder rec;
    dataflow::DfRunOptions opts;
    opts.workers = 64;
    opts.record = &rec;
    (void)dataflow::ParallelEngine().run(g, opts);
    const Journal j = rec.take();
    ASSERT_EQ(obs::verify_journal(j), "") << "run " << run;
  }
}

// -------------------------------------------------------------- distrib ---

TEST(DistribRecorder, FaultFreeClusterJournalReplays) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  const gamma::Multiset initial = ints({9, 4, 7, 2, 8, 5, 11, 3});
  RunRecorder rec;
  distrib::ClusterOptions opts;
  opts.nodes = 3;
  opts.seed = 5;
  opts.record = &rec;
  const auto result = distrib::run_distributed(program, initial, opts);
  const Journal j = rec.take();
  expect_text_round_trip(j);

  EXPECT_EQ(j.engine, "cluster");
  EXPECT_EQ(j.kind, "distrib");
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(j.fires_total, result.fires);
  const StoreCounts final = runtime::store_counts(result.final_multiset);
  EXPECT_EQ(j.final_store, final);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  ASSERT_EQ(j.fires_dropped, 0u);
  // Fault-free: no fire is ever rolled back, so fire-replay is exact and
  // every fire names the node that ran it.
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), final);
  for (const obs::FireRecord& f : j.fires) {
    EXPECT_GE(f.node, 0);
    EXPECT_LT(f.node, 3);
  }
}

TEST(Recorder, OffByDefaultLeavesResultsIdentical) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  const gamma::Multiset initial = ints({6, 2, 9});
  gamma::RunOptions plain;
  plain.seed = 3;
  RunRecorder rec;
  gamma::RunOptions recorded;
  recorded.seed = 3;
  recorded.record = &rec;
  const auto a = gamma::IndexedEngine().run(program, initial, plain);
  const auto b = gamma::IndexedEngine().run(program, initial, recorded);
  EXPECT_EQ(a.final_multiset.canonical(), b.final_multiset.canonical());
  EXPECT_EQ(a.steps, b.steps);
}

}  // namespace
}  // namespace gammaflow
