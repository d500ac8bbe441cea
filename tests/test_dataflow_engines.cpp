// Tagged-token execution: firing rule, steer routing, inctag isolation,
// loops, leftovers, limits — parameterized over Interpreter and the
// parallel PE engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/match_store.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"

namespace gammaflow::dataflow {
namespace {

using expr::BinOp;

enum class Kind { Interp, Parallel };

std::unique_ptr<DfEngine> make_engine(Kind k) {
  if (k == Kind::Interp) return std::make_unique<Interpreter>();
  return std::make_unique<ParallelEngine>();
}

class DfEngineSuite : public ::testing::TestWithParam<Kind> {
 protected:
  DfRunResult run(const Graph& g) {
    DfRunOptions opts;
    opts.workers = 3;
    return make_engine(GetParam())->run(g, opts);
  }
};

TEST_P(DfEngineSuite, Fig1ComputesZero) {
  const auto r = run(paper::fig1_graph());
  EXPECT_EQ(r.single_output("m"), Value(0));
  EXPECT_EQ(r.fires, 8u);  // 4 const + 3 arith + 1 output
  EXPECT_TRUE(r.leftovers.empty());
}

TEST_P(DfEngineSuite, Fig1ParameterSweep) {
  for (std::int64_t x : {0, 1, -5, 100}) {
    for (std::int64_t j : {0, 2, 7}) {
      const auto r = run(paper::fig1_graph(x, 5, 3, j));
      EXPECT_EQ(r.single_output("m"), Value((x + 5) - 3 * j));
    }
  }
}

TEST_P(DfEngineSuite, Fig2LoopAccumulates) {
  // for(i=z; i>0; i--) x += y  =>  x + z*y
  const auto r = run(paper::fig2_graph(4, 5, 100, true));
  EXPECT_EQ(r.single_output("x_final"), Value(120));
}

TEST_P(DfEngineSuite, Fig2ZeroIterations) {
  const auto r = run(paper::fig2_graph(0, 5, 100, true));
  EXPECT_EQ(r.single_output("x_final"), Value(100));
}

TEST_P(DfEngineSuite, Fig2WithoutObserverDiscardsEverything) {
  // The paper's literal Fig. 2: all steer FALSE ports dangle; the machine
  // quiesces with no outputs and no parked operands.
  const auto r = run(paper::fig2_graph(3, 5, 100, false));
  EXPECT_TRUE(r.outputs.empty());
  EXPECT_TRUE(r.leftovers.empty());
}

TEST_P(DfEngineSuite, SteerRoutesByControl) {
  for (const bool flag : {true, false}) {
    GraphBuilder b;
    auto data = b.constant(Value(std::int64_t{42}), "d");
    auto ctrl = b.constant(Value(std::int64_t{flag ? 1 : 0}), "c");
    const NodeId st = b.steer(data, ctrl);
    const NodeId t = b.output("true_out");
    const NodeId f = b.output("false_out");
    b.connect(GraphBuilder::true_out(st), t, 0);
    b.connect(GraphBuilder::false_out(st), f, 0);
    const auto r = run(std::move(b).build());
    if (flag) {
      EXPECT_EQ(r.single_output("true_out"), Value(42));
      EXPECT_EQ(r.outputs.count("false_out"), 0u);
    } else {
      EXPECT_EQ(r.single_output("false_out"), Value(42));
      EXPECT_EQ(r.outputs.count("true_out"), 0u);
    }
  }
}

TEST_P(DfEngineSuite, CmpEmitsIntNotBool) {
  GraphBuilder b;
  auto a = b.constant(Value(3), "a");
  auto c = b.constant(Value(7), "c");
  b.output(b.cmp(BinOp::Lt, a, c), "lt");
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.single_output("lt"), Value(1));  // Int 1, not Bool true
}

TEST_P(DfEngineSuite, ImmediateArithmetic) {
  GraphBuilder b;
  auto c = b.constant(Value(10), "c");
  b.output(b.arith_imm(BinOp::Sub, c, Value(std::int64_t{1})), "dec");
  b.output(b.cmp_imm(BinOp::Gt, c, Value(std::int64_t{0})), "pos");
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.single_output("dec"), Value(9));
  EXPECT_EQ(r.single_output("pos"), Value(1));
}

TEST_P(DfEngineSuite, FanOutReplicatesTokens) {
  GraphBuilder b;
  auto c = b.constant(Value(5), "c");
  const NodeId o1 = b.output("o1");
  const NodeId o2 = b.output("o2");
  const NodeId o3 = b.output("o3");
  b.connect(c, o1, 0);
  b.connect(c, o2, 0);
  b.connect(c, o3, 0);
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.single_output("o1"), Value(5));
  EXPECT_EQ(r.single_output("o2"), Value(5));
  EXPECT_EQ(r.single_output("o3"), Value(5));
}

TEST_P(DfEngineSuite, UnmatchedOperandReportedAsLeftover) {
  // Add's second input never receives a token with the same tag: port 1 is
  // fed only via an inctag (tag 1) while port 0 keeps tag 0.
  GraphBuilder b;
  auto a = b.constant(Value(1), "a");
  auto c = b.constant(Value(2), "c");
  const NodeId add = b.arith(BinOp::Add);
  b.connect(a, add, 0);
  b.connect(b.inctag(c), add, 1);  // arrives with tag 1
  const NodeId out = b.output("never");
  b.connect(GraphBuilder::out(add), out, 0);
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.outputs.count("never"), 0u);
  EXPECT_EQ(r.leftovers.size(), 2u);  // both operands parked under ≠ tags
}

TEST_P(DfEngineSuite, MultiLoopGraphsRunIndependently) {
  const auto r = run(paper::multi_loop_graph(4, 5, true));
  for (std::size_t l = 0; l < 4; ++l) {
    // Loop l accumulates y=l+1 five times from x=0.
    EXPECT_EQ(r.single_output(
                  std::string("L").append(std::to_string(l)).append(".x_final")),
              Value(static_cast<std::int64_t>(5 * (l + 1))));
  }
}

TEST_P(DfEngineSuite, MaxFiresGuardThrows) {
  // Infinite loop: steer always true.
  GraphBuilder b;
  auto start = b.constant(Value(1), "s");
  const NodeId inc = b.inctag();
  b.connect(start, inc, 0, "seed");
  auto always = b.cmp_imm(BinOp::Ge, GraphBuilder::out(inc),
                          Value(std::int64_t{0}));
  const NodeId st = b.steer(GraphBuilder::out(inc), always);
  b.connect(GraphBuilder::true_out(st), inc, 0, "back");
  const Graph g = std::move(b).build();
  DfRunOptions opts;
  opts.max_fires = 1000;
  opts.workers = 3;
  EXPECT_THROW((void)make_engine(GetParam())->run(g, opts), EngineError);
}

/// Two tag-0 producers into the same port: a single-assignment violation
/// on node 3 (the add), port 0.
Graph duplicate_operand_graph() {
  GraphBuilder b;
  auto c1 = b.constant(Value(1), "c1");
  auto c2 = b.constant(Value(2), "c2");
  auto c3 = b.constant(Value(3), "c3");
  const NodeId add = b.arith(BinOp::Add);
  b.connect(c1, add, 0);
  b.connect(c2, add, 0);  // same port!
  b.connect(c3, add, 1);
  const NodeId out = b.output("o");
  b.connect(GraphBuilder::out(add), out, 0);
  return std::move(b).build();
}

/// The text of the `E` that running `g` throws; fails the test if it
/// returns or throws anything else.
template <class E>
std::string error_text(const DfEngine& engine, const Graph& g) {
  DfRunOptions opts;
  opts.workers = 3;
  try {
    (void)engine.run(g, opts);
  } catch (const E& e) {
    return e.what();
  }
  ADD_FAILURE() << "the run returned";
  return {};
}

TEST_P(DfEngineSuite, DivisionByZeroThrowsTheEvaluationError) {
  // The parallel engine used to fire in worker threads with no handler, so
  // the error aborted the process.
  GraphBuilder b;
  auto one = b.constant(Value(1), "one");
  auto zero = b.constant(Value(0), "zero");
  b.output(b.arith(BinOp::Div, one, zero), "q");
  EXPECT_EQ(error_text<TypeError>(*make_engine(GetParam()),
                                  std::move(b).build()),
            "TypeError: integer division by zero");
}

TEST_P(DfEngineSuite, DuplicateOperandThrowsTheInterpretersError) {
  // The parallel engine used to report this as an exhausted firing budget.
  EXPECT_EQ(error_text<EngineError>(*make_engine(GetParam()),
                                    duplicate_operand_graph()),
            "EngineError: duplicate operand at node 3 port 0 tag 0");
}

TEST_P(DfEngineSuite, FiresByNodeAccounting) {
  const Graph g = paper::fig2_graph(3, 5, 0, true);
  const auto r = run(g);
  std::uint64_t total = std::accumulate(r.fires_by_node.begin(),
                                        r.fires_by_node.end(), std::uint64_t{0});
  EXPECT_EQ(total, r.fires);
  // Every loop node fires z+1 = 4 times (3 iterations + exit round).
  EXPECT_EQ(r.fires_by_node[*g.find("R14")], 4u);
  EXPECT_EQ(r.fires_by_node[*g.find("R18")], 3u);  // only on taken branches
}

// ---------------------------------------------------------------------------
// Cooperative stopping: deadline, cancellation, and budget with
// LimitPolicy::Partial return a valid partial machine state (outputs so
// far, unfired operands as leftovers) with DfRunResult::outcome set.
// ---------------------------------------------------------------------------

namespace {
/// The MaxFiresGuardThrows loop: steer always true, never drains.
Graph infinite_loop_graph() {
  GraphBuilder b;
  auto start = b.constant(Value(1), "s");
  const NodeId inc = b.inctag();
  b.connect(start, inc, 0, "seed");
  auto always = b.cmp_imm(BinOp::Ge, GraphBuilder::out(inc),
                          Value(std::int64_t{0}));
  const NodeId st = b.steer(GraphBuilder::out(inc), always);
  b.connect(GraphBuilder::true_out(st), inc, 0, "back");
  return std::move(b).build();
}
}  // namespace

TEST_P(DfEngineSuite, DeadlineExceededReturnsPartialState) {
  DfRunOptions opts;
  opts.workers = 3;
  opts.max_fires = ~std::uint64_t{0};
  opts.deadline = 0.02;
  const auto r = make_engine(GetParam())->run(infinite_loop_graph(), opts);
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_GT(r.fires, 0u);  // it really ran until the clock said stop
}

TEST_P(DfEngineSuite, PreCancelledTokenStopsBeforeFiring) {
  CancelToken token;
  token.cancel();
  DfRunOptions opts;
  opts.workers = 3;
  opts.cancel = &token;
  const auto r = make_engine(GetParam())->run(paper::fig1_graph(), opts);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_TRUE(r.outputs.empty());
}

TEST_P(DfEngineSuite, CancelFromAnotherThreadStopsTheRun) {
  CancelToken token;
  DfRunOptions opts;
  opts.workers = 3;
  opts.max_fires = ~std::uint64_t{0};
  opts.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.cancel();
  });
  const auto r = make_engine(GetParam())->run(infinite_loop_graph(), opts);
  canceller.join();
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
}

TEST_P(DfEngineSuite, BudgetWithPartialPolicyReturnsInsteadOfThrowing) {
  DfRunOptions opts;
  opts.workers = 3;
  opts.max_fires = 500;
  opts.limit_policy = LimitPolicy::Partial;
  const auto r = make_engine(GetParam())->run(infinite_loop_graph(), opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetExhausted);
  EXPECT_GT(r.fires, 0u);
  // The looping token is still in the machine, surfaced as a leftover, not
  // silently dropped.
  EXPECT_FALSE(r.leftovers.empty());
}

TEST_P(DfEngineSuite, CompletedRunsReportCompletedOutcome) {
  const auto r = run(paper::fig1_graph());
  EXPECT_EQ(r.outcome, Outcome::Completed);
}

INSTANTIATE_TEST_SUITE_P(Engines, DfEngineSuite,
                         ::testing::Values(Kind::Interp, Kind::Parallel),
                         [](const auto& param_info) {
                           return param_info.param == Kind::Interp ? "Interpreter"
                                                             : "Parallel";
                         });

// ---- interpreter-specific ----

TEST(Interpreter, WavefrontsExposeParallelism) {
  const auto r = Interpreter().run(paper::fig1_graph());
  // Wave 1: R1 and R2 fire together; wave 2: R3; wave 3: output.
  ASSERT_EQ(r.wavefronts.size(), 3u);
  EXPECT_EQ(r.wavefronts[0], 2u);
  EXPECT_EQ(r.wavefronts[1], 1u);
  EXPECT_EQ(r.wavefronts[2], 1u);
}

TEST(Interpreter, TraceIsTopologicallyConsistent) {
  DfRunOptions opts;
  obs::RunRecorder recorder;
  opts.record = &recorder;
  const Graph g = paper::fig1_graph();
  const auto r = Interpreter().run(g, opts);
  const obs::Journal j = recorder.take();
  ASSERT_EQ(j.fires.size(), r.fires);
  // R3 must fire after both R1 and R2.
  auto pos = [&](const char* name) {
    EXPECT_TRUE(g.find(name).has_value()) << name;
    return std::find_if(j.fires.begin(), j.fires.end(),
                        [&](const obs::FireRecord& f) {
                          return f.reaction == name;
                        }) -
           j.fires.begin();
  };
  EXPECT_GT(pos("R3"), pos("R1"));
  EXPECT_GT(pos("R3"), pos("R2"));
}

TEST(Interpreter, TraceLimitCapsRecording) {
  DfRunOptions opts;
  obs::RecorderLimits limits;
  limits.max_fires = 3;
  obs::RunRecorder recorder(limits);
  opts.record = &recorder;
  const auto r = Interpreter().run(paper::fig1_graph(), opts);
  const obs::Journal j = recorder.take();
  EXPECT_EQ(r.fires, 8u);  // execution unaffected
  EXPECT_EQ(j.fires.size(), 3u);
  EXPECT_EQ(j.fires_dropped, 5u);
}

TEST(Interpreter, DuplicateOperandDetected) {
  EXPECT_THROW((void)Interpreter().run(duplicate_operand_graph()), EngineError);
}

TEST(Interpreter, SingleOutputHelperThrowsOnCounts) {
  const auto r = Interpreter().run(paper::fig2_graph(3, 5, 0, false));
  EXPECT_THROW((void)r.single_output("missing"), EngineError);
  EXPECT_THROW((void)r.output_values("missing"), EngineError);
}

TEST(ParallelEngine, MatchesInterpreterOnFig2Sweep) {
  for (std::int64_t z : {0, 1, 2, 10, 50}) {
    const Graph g = paper::fig2_graph(z, 3, 7, true);
    const auto a = Interpreter().run(g);
    DfRunOptions opts;
    opts.workers = 4;
    const auto b = ParallelEngine().run(g, opts);
    EXPECT_EQ(a.single_output("x_final"), b.single_output("x_final")) << z;
    EXPECT_EQ(a.fires, b.fires) << z;
  }
}

TEST(ParallelEngine, MatchesInterpreterOnExampleSources) {
  for (const char* file : {"fig1.src", "fig2_loop.src", "classify.src"}) {
    std::ifstream in(std::string(GF_REPO_DIR) + "/examples/programs/" + file);
    ASSERT_TRUE(in) << file;
    std::ostringstream text;
    text << in.rdbuf();
    const Graph g = frontend::compile_source(text.str());
    const auto a = Interpreter().run(g);
    DfRunOptions opts;
    opts.workers = 3;
    const auto b = ParallelEngine().run(g, opts);
    ASSERT_EQ(a.outputs.size(), b.outputs.size()) << file;
    for (const auto& [name, tokens] : a.outputs) {
      EXPECT_EQ(a.output_values(name), b.output_values(name))
          << file << " output " << name;
    }
  }
}

// ---- leftovers: one order for both engines ----

/// Port 0 of an add gets tags 0 and 2 and port 1 tags 1 and 3, and a steer's
/// data (tag 1) never meets its control (tag 0): every operand stays parked,
/// on both ports of two two-input nodes.
Graph leftovers_on_both_ports_graph() {
  GraphBuilder b;
  auto a = b.constant(Value(1), "a");
  auto c = b.constant(Value(2), "c");
  const NodeId add = b.arith(BinOp::Add, "add");
  b.connect(a, add, 0);
  b.connect(b.inctag(b.inctag(a)), add, 0);
  b.connect(b.inctag(c), add, 1);
  b.connect(b.inctag(b.inctag(b.inctag(c))), add, 1);
  b.connect(GraphBuilder::out(add), b.output("never"), 0);
  (void)b.steer(b.inctag(c), a, "st");
  return std::move(b).build();
}

/// UnmatchedOperandReportedAsLeftover's graph.
Graph unmatched_operand_graph() {
  GraphBuilder b;
  auto a = b.constant(Value(1), "a");
  auto c = b.constant(Value(2), "c");
  const NodeId add = b.arith(BinOp::Add);
  b.connect(a, add, 0);
  b.connect(b.inctag(c), add, 1);
  b.connect(GraphBuilder::out(add), b.output("never"), 0);
  return std::move(b).build();
}

TEST(Leftovers, SortedByNodeTagPortAndEqualAcrossEngines) {
  for (const Graph& g :
       {unmatched_operand_graph(), leftovers_on_both_ports_graph()}) {
    const auto expected = Interpreter().run(g);
    ASSERT_EQ(expected.outcome, Outcome::Completed);
    ASSERT_FALSE(expected.leftovers.empty());
    EXPECT_TRUE(std::is_sorted(
        expected.leftovers.begin(), expected.leftovers.end(),
        [](const PendingOperand& a, const PendingOperand& b) {
          return std::tie(a.node, a.tag, a.port) <
                 std::tie(b.node, b.tag, b.port);
        }));
    for (const unsigned workers : {1u, 2u, 4u}) {
      DfRunOptions opts;
      opts.workers = workers;
      const auto r = ParallelEngine().run(g, opts);
      ASSERT_EQ(r.outcome, Outcome::Completed);
      EXPECT_EQ(r.leftovers, expected.leftovers) << workers << " workers";
    }
  }
  const auto r = Interpreter().run(leftovers_on_both_ports_graph());
  EXPECT_EQ(r.leftovers.size(), 6u);  // 4 on the add, 2 on the steer
}

TEST(Leftovers, PartialBudgetStopIsRepeatableOnTheInterpreter) {
  DfRunOptions opts;
  opts.limit_policy = LimitPolicy::Partial;
  for (const auto& [g, budget] :
       {std::pair{infinite_loop_graph(), std::uint64_t{500}},
        std::pair{paper::multi_loop_graph(4, 16, true), std::uint64_t{100}}}) {
    opts.max_fires = budget;
    const auto a = Interpreter().run(g, opts);
    const auto b = Interpreter().run(g, opts);
    ASSERT_EQ(a.outcome, Outcome::BudgetExhausted);
    EXPECT_FALSE(a.leftovers.empty());
    EXPECT_EQ(a.leftovers, b.leftovers);
  }
}

// ---- the matching store against a reference map ----

TEST(MatchStore, AgreesWithAMapUnderRandomPutsAndParks) {
  // One two-input node. Tags come from a small range, so waiting instances
  // share probe runs and erasing one has to shift others back.
  GraphBuilder b;
  const NodeId add = b.arith(BinOp::Add);
  b.connect(b.constant(Value(0)), add, 0);
  b.connect(b.constant(Value(0)), add, 1);
  const Graph g = std::move(b).build();
  MatchStore store(g);
  ASSERT_EQ(store.arity(add), 2u);
  std::map<Tag, std::array<std::optional<std::int64_t>, 2>> ref;
  Rng rng(11);
  for (std::int64_t i = 0; i < 20000; ++i) {
    const Tag tag = rng.bounded(200);
    const auto port = static_cast<PortId>(rng.bounded(2));
    OperandFrame ready;
    const MatchStore::Put put = store.put(add, port, tag, Value(i), ready);
    auto& expected = ref[tag];
    if (expected[port]) {
      ASSERT_EQ(put, MatchStore::Put::Duplicate) << i;
      continue;
    }
    expected[port] = i;
    if (!expected[1 - port]) {
      ASSERT_EQ(put, MatchStore::Put::Waiting) << i;
      continue;
    }
    ASSERT_EQ(put, MatchStore::Put::Ready) << i;
    EXPECT_EQ(ready.values[0], Value(*expected[0]));
    EXPECT_EQ(ready.values[1], Value(*expected[1]));
    if (i % 10 == 0) {
      store.park(add, tag, std::move(ready));  // a refused fire parks back
    } else {
      ref.erase(tag);
    }
  }
  std::vector<PendingOperand> parked;
  store.append_to(parked);
  sort_leftovers(parked);
  std::vector<PendingOperand> expected;
  for (const auto& [tag, ports] : ref) {
    for (PortId p = 0; p < 2; ++p) {
      if (ports[p]) expected.push_back(PendingOperand{add, p, tag, *ports[p]});
    }
  }
  EXPECT_EQ(parked, expected);
}

// ---- fire_node ----

TEST(FireNode, TooFewOperandsThrowEngineError) {
  const auto node = [](NodeKind kind, BinOp op = BinOp::Add) {
    Node n;
    n.kind = kind;
    n.op = op;
    return n;
  };
  const std::array<Value, 1> one{Value(1)};
  for (const Node& n :
       {node(NodeKind::Arith), node(NodeKind::Cmp, BinOp::Lt),
        node(NodeKind::Steer)}) {
    EXPECT_THROW((void)fire_node(n, one, 0), EngineError) << to_string(n.kind);
    EXPECT_THROW((void)fire_node(n, {}, 0), EngineError) << to_string(n.kind);
  }
  EXPECT_THROW((void)fire_node(node(NodeKind::IncTag), {}, 0), EngineError);
  // The same span with enough operands for the node fires normally.
  EXPECT_EQ(fire_node(node(NodeKind::IncTag), one, 4).tag, 5u);
  Node imm = node(NodeKind::Arith);
  imm.has_immediate = true;
  imm.constant = Value(2);
  EXPECT_EQ(fire_node(imm, one, 0).value, Value(3));
}

}  // namespace
}  // namespace gammaflow::dataflow
