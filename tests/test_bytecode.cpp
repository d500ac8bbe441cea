// Differential tests for the bytecode backend: the Vm must be observationally
// identical to the AST walker — same Value on success, same error (type AND
// message) on failure, same short-circuit and lazy-unbound behaviour — on
// hand-picked edge cases and on >=500 randomly generated expressions. The
// engines have one evaluator (compiled bytecode, the innermost bucket swept
// by the batch matcher); a test-local reference matcher with the walker at
// the leaf checks MatchPipeline::find/enumerate against it step by step on
// the example corpus, Algorithm 1 translations and 500 generated programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <sstream>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/expr/eval.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow {
namespace {

using expr::Env;
using expr::ExprPtr;

ExprPtr parse(const std::string& text) {
  expr::TokenStream ts(text);
  ExprPtr e = expr::parse_expression(ts);
  EXPECT_TRUE(ts.done()) << "trailing input in: " << text;
  return e;
}

/// The slot layout every test compiles against; `u` stays unbound so lazy
/// unbound-variable semantics get exercised.
const std::vector<std::string> kSlots = {"a", "b", "c", "u"};

/// A walker or Vm evaluation collapsed to its observable: the value, or the
/// error text (prefixed with a coarse error class).
struct Observed {
  bool ok = false;
  Value value;
  std::string error;

  friend bool operator==(const Observed& x, const Observed& y) {
    return x.ok == y.ok && (x.ok ? x.value == y.value : x.error == y.error);
  }
  friend std::ostream& operator<<(std::ostream& os, const Observed& o) {
    return o.ok ? (os << "value " << o.value) : (os << "error " << o.error);
  }
};

template <typename Fn>
Observed observe(Fn&& fn) {
  Observed o;
  try {
    o.value = fn();
    o.ok = true;
  } catch (const TypeError& ex) {
    o.error = std::string("TypeError: ") + ex.what();
  } catch (const ProgramError& ex) {
    o.error = std::string("ProgramError: ") + ex.what();
  }
  return o;
}

Observed walker_result(const ExprPtr& e, const Env& env) {
  return observe([&] { return expr::eval(e, env); });
}

Observed vm_result(const ExprPtr& e, const Env& env) {
  const expr::Chunk chunk = expr::compile(e, kSlots);
  std::vector<const Value*> slots(kSlots.size(), nullptr);
  for (std::size_t i = 0; i < kSlots.size(); ++i) {
    slots[i] = env.find(kSlots[i]);
  }
  expr::Vm vm;
  return observe([&] { return vm.run(chunk, slots); });
}

Env abc_env(std::int64_t a, std::int64_t b, std::int64_t c) {
  Env env;
  env.bind("a", Value(a));
  env.bind("b", Value(b));
  env.bind("c", Value(c));
  return env;
}

void expect_identical(const std::string& text, const Env& env) {
  const ExprPtr e = parse(text);
  EXPECT_EQ(walker_result(e, env), vm_result(e, env)) << text;
}

// ---------------------------------------------------------------------------
// Hand-picked equivalence edges.

TEST(Bytecode, ValueAndArithmeticAgree) {
  const Env env = abc_env(7, -3, 0);
  for (const char* text :
       {"a + b", "a - b", "a * b", "a + b * c", "-(a) + -b", "a % 4",
        "(a + b) * (a - b)", "a / 2", "b / a"}) {
    expect_identical(text, env);
  }
}

TEST(Bytecode, ComparisonsAgree) {
  const Env env = abc_env(5, 5, -2);
  for (const char* text : {"a < b", "a <= b", "a > b", "a >= b", "a == b",
                           "a != b", "a == 5", "c < a and a <= b"}) {
    expect_identical(text, env);
  }
}

TEST(Bytecode, DivisionByZeroThrowsIdentically) {
  const Env env = abc_env(1, 0, 3);
  expect_identical("a / b", env);
  expect_identical("a % b", env);
  expect_identical("1 / 0", env);      // constant, but never folded away
  expect_identical("1 / 0 + a", env);  // throwing subtree preserved
}

TEST(Bytecode, ShortCircuitSkipsPoisonedRhs) {
  // b == 0, so the division would throw — but neither evaluator reaches it.
  const Env env = abc_env(1, 0, 3);
  expect_identical("b != 0 and 10 / b > 2", env);
  expect_identical("b == 0 or 10 / b > 2", env);
  // And when the guard passes, both throw the same error.
  expect_identical("b == 0 and 10 / b > 2", env);
}

TEST(Bytecode, FoldedShortCircuitMatchesWalker) {
  const Env env = abc_env(1, 2, 3);
  // `false and X` folds to false without evaluating X — like the walker.
  expect_identical("false and 1 / 0 > 1", env);
  expect_identical("true or 1 / 0 > 1", env);
  // But a reachable poisoned branch still throws in both.
  expect_identical("true and 1 / 0 > 1", env);
}

TEST(Bytecode, UnboundSlotIsLazy) {
  const Env env = abc_env(1, 2, 3);  // `u` not bound
  expect_identical("a > 0 or u > 0", env);   // u never touched: fine
  expect_identical("a < 0 or u > 0", env);   // u referenced: same error
  expect_identical("u + 1", env);
}

TEST(Bytecode, TruthinessErrorsAgree) {
  Env env = abc_env(1, 2, 3);
  env.bind("s", Value("text"));
  const std::vector<std::string> slots = {"a", "s"};
  for (const char* text : {"s and a > 0", "a > 0 and s", "not s"}) {
    const ExprPtr e = parse(text);
    const expr::Chunk chunk = expr::compile(e, slots);
    const Value* ptrs[2] = {env.find("a"), env.find("s")};
    expr::Vm vm;
    EXPECT_EQ(walker_result(e, env), observe([&] { return vm.run(chunk, ptrs); }))
        << text;
  }
}

TEST(Bytecode, StringOperationsAgree) {
  Env env;
  env.bind("a", Value("foo"));
  env.bind("b", Value("bar"));
  env.bind("c", Value(std::int64_t{1}));
  for (const char* text :
       {"a + b", "a < b", "a == b", "a != b", "a + b == 'foobar'", "a - b",
        "a + c"}) {
    expect_identical(text, env);
  }
}

TEST(Bytecode, UnknownVariableFailsAtCompileTime) {
  EXPECT_THROW(expr::compile(parse("nope + 1"), kSlots), ProgramError);
}

TEST(Bytecode, CompileRejectsNull) {
  EXPECT_THROW(expr::compile(nullptr, kSlots), ProgramError);
}

TEST(Bytecode, LiteralFoldingKeepsPoolSmall) {
  // A pure-literal subtree becomes one constant; throwing ones stay as code.
  const expr::Chunk folded = expr::compile(parse("(2 + 3) * 4 + a"), kSlots);
  ASSERT_FALSE(folded.consts.empty());
  EXPECT_EQ(folded.consts[0], Value(std::int64_t{20}));
  const expr::Chunk kept = expr::compile(parse("1 / 0 + a"), kSlots);
  EXPECT_GT(kept.code.size(), folded.code.size());
}

/// `a + 1 + ... + 1` with `operators` additions, leaning left as the parser
/// builds it.
ExprPtr left_chain(std::size_t operators) {
  ExprPtr e = expr::var("a");
  for (std::size_t i = 0; i < operators; ++i) {
    e = expr::Expr::binary(expr::BinOp::Add, e, expr::lit(Value(1)));
  }
  return e;
}

TEST(Bytecode, CompileFoldWorkIsLinearInALeftLeaningChain) {
  // Constant folding used to re-walk each node's whole subtree, so its work
  // grew quadratically down a left-leaning chain: 4x the operators cost
  // ~16x the node visits. Deciding each node once makes the fold's work the
  // tree's node count. The count is exact on every host and build, where a
  // ratio of two compile times moved with the machine's load.
  const auto fold_steps = [](std::size_t operators) {
    const ExprPtr chain = left_chain(operators);
    const std::uint64_t before = expr::compile_fold_steps();
    const expr::Chunk chunk = expr::compile(chain, kSlots);
    EXPECT_EQ(chunk.code.size(), 2 * operators + 2);
    return expr::compile_fold_steps() - before;
  };
  const std::uint64_t shorter = fold_steps(256);
  const std::uint64_t longer = fold_steps(1024);
  // One step per node: the variable, and an operator and a literal per
  // operator.
  EXPECT_EQ(shorter, 2 * 256 + 1u);
  EXPECT_EQ(longer, 2 * 1024 + 1u);
  EXPECT_LE(longer, 4 * shorter + 4) << "fold steps: 1024 operators "
                                     << longer << ", 256 operators "
                                     << shorter;
}

/// Listings pinned on the compiler that folded by re-walking subtrees:
/// deciding foldability once per node must not move a constant or an
/// instruction.
TEST(Bytecode, DisassemblyGoldens) {
  const std::pair<const char*, const char*> goldens[] = {
      {"(2 + 3) * 4 + a",
       "0: loadconst r0, 20\n"
       "1: loadslot r1, s0 (a)\n"
       "2: add r0, r0, r1\n"
       "3: ret r0\n"},
      {"1 / 0 + a",
       "0: loadconst r0, 1\n"
       "1: loadconst r1, 0\n"
       "2: div r0, r0, r1\n"
       "3: loadslot r1, s0 (a)\n"
       "4: add r0, r0, r1\n"
       "5: ret r0\n"},
      {"false and 1 / 0 > 1",
       "0: loadconst r0, false\n"
       "1: ret r0\n"},
      {"true and a > 1 / 0",
       "0: loadconst r0, true\n"
       "1: jumpiffalsy r0, ->8 (r0)\n"
       "2: loadslot r0, s0 (a)\n"
       "3: loadconst r1, 1\n"
       "4: loadconst r2, 0\n"
       "5: div r1, r1, r2\n"
       "6: gt r0, r0, r1\n"
       "7: truthy r0, r0\n"
       "8: ret r0\n"},
      {"(1 + 2) + (a + (3 * 4))",
       "0: loadconst r0, 3\n"
       "1: loadslot r1, s0 (a)\n"
       "2: loadconst r2, 12\n"
       "3: add r1, r1, r2\n"
       "4: add r0, r0, r1\n"
       "5: ret r0\n"},
      {"'x' and a",
       "0: loadconst r0, 'x'\n"
       "1: jumpiffalsy r0, ->4 (r0)\n"
       "2: loadslot r0, s0 (a)\n"
       "3: truthy r0, r0\n"
       "4: ret r0\n"},
  };
  for (const auto& [text, want] : goldens) {
    EXPECT_EQ(expr::compile(parse(text), kSlots).disassemble(), want) << text;
  }
}

TEST(Bytecode, DisassembleMentionsEveryInstruction) {
  const expr::Chunk chunk = expr::compile(parse("a < b and a + 1 < c"), kSlots);
  const std::string listing = chunk.disassemble();
  EXPECT_NE(listing.find("loadslot"), std::string::npos);
  EXPECT_NE(listing.find("jumpiffalsy"), std::string::npos);
  EXPECT_NE(listing.find("ret"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(listing.begin(), listing.end(), '\n')),
            chunk.code.size());
}

TEST(Bytecode, InstructionCountersAdvance) {
  const expr::Chunk chunk = expr::compile(parse("a + b"), kSlots);
  const Env env = abc_env(1, 2, 3);
  std::vector<const Value*> slots(kSlots.size(), nullptr);
  for (std::size_t i = 0; i < kSlots.size(); ++i) slots[i] = env.find(kSlots[i]);
  expr::Vm vm;
  const std::uint64_t global0 = expr::vm_instrs_executed();
  (void)vm.run(chunk, slots);
  // 2 loads, add, ret
  EXPECT_EQ(expr::vm_instrs_executed() - global0, chunk.code.size());
}

// ---------------------------------------------------------------------------
// Randomized differential property: >=500 generated (expression, env) pairs.

ExprPtr random_expr(Rng& rng, int depth) {
  if (depth == 0 || rng.coin(0.3)) {
    switch (rng.bounded(8)) {
      case 0: return expr::var("a");
      case 1: return expr::var("b");
      case 2: return expr::var("c");
      case 3: return rng.coin(0.25) ? expr::var("u") : expr::var("a");
      case 4:  // small ints, zero included: div/mod-by-zero must be reachable
        return expr::lit(Value(static_cast<std::int64_t>(rng.bounded(7)) - 2));
      case 5: return expr::lit(Value(rng.coin()));
      case 6: return expr::lit(Value(rng.coin() ? "s" : "t"));
      default:
        return expr::lit(Value(static_cast<std::int64_t>(rng.bounded(40)) - 20));
    }
  }
  if (rng.coin(0.15)) {
    return expr::Expr::unary(rng.coin() ? expr::UnOp::Neg : expr::UnOp::Not,
                             random_expr(rng, depth - 1));
  }
  static constexpr expr::BinOp kOps[] = {
      expr::BinOp::Add, expr::BinOp::Sub, expr::BinOp::Mul, expr::BinOp::Div,
      expr::BinOp::Mod, expr::BinOp::Lt,  expr::BinOp::Le,  expr::BinOp::Gt,
      expr::BinOp::Ge,  expr::BinOp::Eq,  expr::BinOp::Ne,  expr::BinOp::And,
      expr::BinOp::Or};
  return expr::Expr::binary(kOps[rng.bounded(13)], random_expr(rng, depth - 1),
                            random_expr(rng, depth - 1));
}

Value random_value(Rng& rng) {
  switch (rng.bounded(4)) {
    case 0: return Value(static_cast<std::int64_t>(rng.bounded(9)) - 4);
    case 1: return Value(static_cast<double>(rng.bounded(8)) / 2.0);
    case 2: return Value(rng.coin());
    default: return Value(rng.coin() ? "s" : "x");
  }
}

class BytecodeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytecodeDifferential, VmMatchesWalker) {
  // 10 trials per parameterized seed x 50 seeds = 500 distinct cases.
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(GetParam() * 1000 + trial);
    const ExprPtr e = random_expr(rng, 4);
    Env env;
    env.bind("a", random_value(rng));
    env.bind("b", random_value(rng));
    env.bind("c", random_value(rng));  // `u` stays unbound
    EXPECT_EQ(walker_result(e, env), vm_result(e, env))
        << "seed " << GetParam() << " trial " << trial << ": "
        << e->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

// ---------------------------------------------------------------------------
// Reference matcher: MatchPipeline (compiled bytecode, batch sweep of the
// innermost bucket) against the AST walker, one step at a time.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string examples_dir() {
  return std::string(GF_REPO_DIR) + "/examples/programs/";
}

gamma::Multiset int_multiset(std::initializer_list<std::int64_t> xs) {
  gamma::Multiset m;
  for (const std::int64_t x : xs) m.add(gamma::Element{Value(x)});
  return m;
}

struct GammaCase {
  const char* file;
  gamma::Multiset initial;
};

std::vector<GammaCase> gamma_corpus() {
  std::vector<GammaCase> cases;
  cases.push_back({"min.gamma", int_multiset({9, 4, 17, 4, 1, 30, 2})});
  cases.push_back({"sieve.gamma", int_multiset({2, 3, 4, 5, 6, 7, 8, 9, 10,
                                                11, 12, 13, 14, 15, 16})});
  gamma::Multiset fig1;
  fig1.add(gamma::Element{Value(1), Value("A1")});
  fig1.add(gamma::Element{Value(5), Value("B1")});
  fig1.add(gamma::Element{Value(3), Value("C1")});
  fig1.add(gamma::Element{Value(2), Value("D1")});
  cases.push_back({"fig1.gamma", std::move(fig1)});
  return cases;
}

/// One match as a caller sees it: the consumed ids and the produced
/// elements.
struct SeenMatch {
  std::vector<gamma::Store::Id> ids;
  std::vector<gamma::Element> produced;

  static SeenMatch of(const gamma::Match& m, const gamma::Store& store) {
    return {{m.ids.begin(), m.ids.end()}, m.produced(store)};
  }
  friend bool operator==(const SeenMatch&, const SeenMatch&) = default;
};

/// What a caller of find/enumerate observes: the matches in visit order
/// (ids and produced elements), then the error text if the search threw.
struct Probe {
  std::vector<SeenMatch> matches;
  std::string error;

  friend bool operator==(const Probe&, const Probe&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Probe& p) {
    for (const auto& [ids, produced] : p.matches) {
      os << "{ids";
      for (const auto id : ids) os << ' ' << id;
      os << " ->";
      for (const auto& e : produced) os << ' ' << e.to_string();
      os << "} ";
    }
    return os << (p.error.empty() ? "" : "error " + p.error);
  }
};

/// Runs `search`, recording every visited match into a Probe; a thrown
/// TypeError/ProgramError ends the probe with its text.
template <typename Search>
Probe probe(Search&& search) {
  Probe p;
  const auto visit = [&](const SeenMatch& m) { p.matches.push_back(m); };
  try {
    search(visit);
  } catch (const TypeError& ex) {
    p.error = std::string("TypeError: ") + ex.what();
  } catch (const ProgramError& ex) {
    p.error = std::string("ProgramError: ") + ex.what();
  }
  return p;
}

/// The match pipeline's cyclic scan with the walker at the leaf: per depth
/// visit one rng->bounded(n) start offset (0 without an rng), then the
/// bucket in cyclic order — duplicate-id check, Pattern::match on the
/// materialized element into a name-keyed Env, recursion — and
/// Reaction::apply(env) once every pattern is bound. Stops after `limit`
/// matches.
void reference_search(const gamma::Store& store,
                      const gamma::Reaction& reaction, std::size_t limit,
                      Rng* rng,
                      const std::function<void(const SeenMatch&)>& visit) {
  const auto& patterns = reaction.patterns();
  const std::size_t k = patterns.size();
  std::vector<gamma::Store::Candidates> buckets(k);
  for (std::size_t i = 0; i < k; ++i) {
    const gamma::Pattern& p = patterns[i];
    if (const auto key = p.key_field()) {
      buckets[i].ids = store.field_bucket(*key, p.fields()[*key].value());
    } else {
      buckets[i] = store.arity_bucket(p.arity());
    }
    if (buckets[i].empty()) return;
  }
  SeenMatch m;
  m.ids.resize(k);
  std::vector<Env> envs(k + 1);
  std::size_t visited = 0;
  const std::function<void(std::size_t)> dfs = [&](std::size_t depth) {
    if (depth == k) {
      auto produced = reaction.apply(envs[k]);
      if (!produced) return;
      m.produced = std::move(*produced);
      visit(m);
      ++visited;
      return;
    }
    const gamma::Store::Candidates bucket = buckets[depth];
    const std::size_t n = bucket.size();
    const std::size_t start = rng != nullptr ? rng->bounded(n) : 0;
    for (std::size_t t = 0; t < n && visited < limit; ++t) {
      const gamma::Store::Id id = bucket[(start + t) % n];
      const auto bound = m.ids.begin() + static_cast<std::ptrdiff_t>(depth);
      if (std::find(m.ids.begin(), bound, id) != bound) continue;
      envs[depth + 1] = envs[depth];
      if (!patterns[depth].match(store.element(id), envs[depth + 1])) continue;
      m.ids[depth] = id;
      dfs(depth + 1);
    }
  };
  dfs(0);
}

/// Enumeration cap per reference check; generated stores stay small enough
/// that it is rarely reached.
constexpr std::size_t kEnumerateLimit = 256;

/// Runs `program` from `initial` one step at a time. Each step tries the
/// current stage's reactions in order; for each, MatchPipeline::find (rng A,
/// with one MatchSite per reaction carried across steps: its literals pinned
/// in the store, its AnchorMemo, its Match's output cells) and the memo-less
/// reference scan (rng B, seeded like A) must give the same ids, produced
/// elements and error text, and (with `check_enumerate`)
/// MatchPipeline::enumerate, on a second site per reaction also carried
/// across steps, must visit exactly the reference enumeration. A found
/// match commits. Stops at the fixpoint, at the first error, or after
/// `max_steps` fires; returns the number of fires.
std::size_t expect_pipeline_matches_reference(const gamma::Program& program,
                                              const gamma::Multiset& initial,
                                              std::uint64_t seed,
                                              const std::string& what,
                                              std::size_t max_steps = 4096,
                                              bool check_enumerate = true) {
  gamma::Store store(initial, gamma::FieldSet::of(program));
  Rng pipeline_rng(seed);
  Rng reference_rng(seed);
  std::size_t fires = 0;
  for (const auto& stage : program.stages()) {
    std::vector<runtime::MatchSite> sites(stage.size());
    std::vector<runtime::MatchSite> enumerate_sites(stage.size());
    bool progressed = true;
    while (progressed && fires < max_steps) {
      progressed = false;
      for (std::size_t ri = 0; ri < stage.size(); ++ri) {
        const gamma::Reaction& r = stage[ri];
        const std::string where = what + " step " + std::to_string(fires) +
                                  " reaction " + r.name();
        if (check_enumerate) {
          const Probe want_all = probe([&](const auto& visit) {
            reference_search(store, r, kEnumerateLimit, nullptr, visit);
          });
          const Probe got_all = probe([&](const auto& visit) {
            (void)runtime::MatchPipeline::enumerate(
                store, r, kEnumerateLimit, enumerate_sites[ri],
                [&](const gamma::Match& m) {
                  visit(SeenMatch::of(m, store));
                  return true;
                });
          });
          EXPECT_EQ(got_all, want_all) << where << " (enumerate)";
        }

        bool found = false;
        const Probe want = probe([&](const auto& visit) {
          reference_search(store, r, 1, &reference_rng, visit);
        });
        const Probe got = probe([&](const auto& visit) {
          found = runtime::MatchPipeline::find(store, r, &pipeline_rng,
                                               sites[ri]);
          if (found) visit(SeenMatch::of(sites[ri].match(), store));
        });
        EXPECT_EQ(got, want) << where << " (find)";
        if (got != want || !got.error.empty()) return fires;
        if (!found) continue;
        runtime::MatchPipeline::commit(store, sites[ri].match());
        ++fires;
        progressed = true;
        if (fires >= max_steps) break;
      }
    }
  }
  return fires;
}

TEST(BytecodeCorpus, GammaCorpusAgreesAcrossModes) {
  std::vector<GammaCase> cases = gamma_corpus();
  // Buckets wider than BatchMatcher::kMinChunk: several chunks per sweep.
  gamma::Multiset wide;
  for (std::int64_t v = 2; v <= 160; ++v) wide.add(gamma::Element{Value(v)});
  cases.push_back({"sieve.gamma", std::move(wide)});
  for (const GammaCase& c : cases) {
    const gamma::Program program =
        gamma::dsl::parse_program(read_file(examples_dir() + c.file));
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      EXPECT_GT(expect_pipeline_matches_reference(
                    program, c.initial, seed,
                    std::string(c.file) + " seed " + std::to_string(seed)),
                0u);
    }
  }
}

struct ReferenceRun {
  gamma::Multiset state;
  std::uint64_t steps = 0;
};

/// Runs `program` to its fixpoint with reference_search alone: each stage
/// repeats passes over its reactions, firing every match found, until a
/// pass fires nothing. No compiled code is involved, so this is the AST
/// side of an engine-level differential.
ReferenceRun reference_run(const gamma::Program& program,
                           const gamma::Multiset& initial,
                           std::uint64_t seed) {
  gamma::Store store(initial, gamma::FieldSet::of(program));
  Rng rng(seed);
  ReferenceRun out;
  for (const auto& stage : program.stages()) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (const gamma::Reaction& r : stage) {
        std::optional<SeenMatch> found;
        reference_search(store, r, 1, &rng,
                         [&](const SeenMatch& m) { found = m; });
        if (!found) continue;
        for (const gamma::Store::Id id : found->ids) store.remove(id);
        for (const gamma::Element& e : found->produced) store.insert(e);
        ++out.steps;
        progressed = true;
      }
    }
  }
  out.state = store.to_multiset();
  return out;
}

/// Each engine (compiled bytecode, batch sweep) against the reference run.
/// The corpus programs are confluent with a fixed fire count, so the final
/// state and the step count must match whatever the engine's rng schedule.
void expect_engines_match_reference(
    const std::vector<std::unique_ptr<gamma::Engine>>& engines,
    const std::vector<GammaCase>& cases) {
  for (const GammaCase& c : cases) {
    const gamma::Program program =
        gamma::dsl::parse_program(read_file(examples_dir() + c.file));
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const ReferenceRun want = reference_run(program, c.initial, seed);
      gamma::RunOptions opts;
      opts.seed = seed;
      for (const auto& engine : engines) {
        const auto got = engine->run(program, c.initial, opts);
        EXPECT_EQ(got.final_multiset, want.state)
            << c.file << " engine " << engine->name() << " seed " << seed;
        EXPECT_EQ(got.steps, want.steps)
            << c.file << " engine " << engine->name() << " seed " << seed;
      }
    }
  }
}

TEST(BytecodeCorpus, GammaEnginesStateIdenticalCompileOnOff) {
  // "Compile off" is the reference run: the walker at every leaf.
  std::vector<std::unique_ptr<gamma::Engine>> engines;
  engines.push_back(std::make_unique<gamma::SequentialEngine>());
  engines.push_back(std::make_unique<gamma::IndexedEngine>());
  engines.push_back(std::make_unique<gamma::ParallelEngine>());
  expect_engines_match_reference(engines, gamma_corpus());
}

TEST(BytecodeCorpus, TranslatedProgramsAgreeAcrossModes) {
  // Algorithm 1 output (condition-free reactions plus steer conditions).
  for (const char* file : {"fig1.src", "fig2_loop.src"}) {
    const dataflow::Graph g =
        frontend::compile_source(read_file(examples_dir() + file));
    const auto conv = translate::dataflow_to_gamma(g);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      EXPECT_GT(expect_pipeline_matches_reference(
                    conv.program, conv.initial, seed,
                    std::string(file) + " seed " + std::to_string(seed)),
                0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Batch backend: compile_batch shapes, BatchVm lane semantics, and the
// batch ≡ scalar differential property over generated conditions.

expr::Chunk compile_scalar(const std::string& text) {
  return expr::compile(parse(text), kSlots);
}

/// Slot layout for batch tests: `a` is the vector (per-lane) slot, `b`/`c`
/// are broadcast scalars, `u` unused.
constexpr std::array<std::uint8_t, 4> kVecA = {1, 0, 0, 0};

TEST(BatchCompile, FusesLoadsIntoOperands) {
  // a < b: both loads fold into the comparison's operands, leaving one
  // compare plus the ret — the superinstruction shape bench_bytecode
  // measures as loadslot+op fusion.
  const auto batch = expr::compile_batch(compile_scalar("a < b"), kVecA);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->fused_loads, 2u);
  ASSERT_EQ(batch->code.size(), 2u);
  EXPECT_EQ(batch->code[0].op, expr::BatchOp::Lt);
  EXPECT_TRUE(batch->code[0].a.vec);
  EXPECT_FALSE(batch->code[0].b.vec);
  EXPECT_EQ(batch->code[1].op, expr::BatchOp::Ret);
  ASSERT_GE(batch->slot_used.size(), 3u);
  EXPECT_EQ(batch->slot_used[0], 1);
  EXPECT_EQ(batch->slot_used[1], 1);
  EXPECT_EQ(batch->slot_used[2], 0);
}

TEST(BatchCompile, LowersShortCircuitToEagerJoins) {
  // and/or jumps disappear: both sides evaluate eagerly, joined by the
  // boolean ops. Straight-line code must contain a join and no other
  // control flow (Ret terminates).
  const auto batch =
      expr::compile_batch(compile_scalar("a > 0 and a % 2 == 0"), kVecA);
  ASSERT_TRUE(batch.has_value());
  bool saw_join = false;
  for (const expr::BatchInstr& in : batch->code) {
    saw_join = saw_join || in.op == expr::BatchOp::AndBool;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_EQ(batch->code.back().op, expr::BatchOp::Ret);
}

TEST(BatchCompile, RefusesWhatCouldDivergeFromScalar) {
  // Non-Int constants, literal-zero divisors: lane semantics could diverge
  // from the walker's error behaviour, so translation refuses and the
  // pipeline keeps the scalar probe for the reaction.
  EXPECT_FALSE(expr::compile_batch(compile_scalar("a == 's'"), kVecA));
  EXPECT_FALSE(expr::compile_batch(compile_scalar("a / 0 > 1"), kVecA));
  EXPECT_FALSE(expr::compile_batch(compile_scalar("a % 0 == 1"), kVecA));
  // Nonzero literal divisors and Bool constants stay batchable.
  EXPECT_TRUE(expr::compile_batch(compile_scalar("a % 3 == 0"), kVecA));
  EXPECT_TRUE(expr::compile_batch(compile_scalar("a > 0 and true"), kVecA));
}

/// Runs `text` over a column bound to slot `a` (b, c broadcast) through the
/// batch VM and checks every lane against the scalar Vm's verdict.
void expect_batch_matches_scalar(const std::string& text,
                                 std::span<const std::int64_t> col_a,
                                 std::int64_t b, std::int64_t c) {
  const expr::Chunk chunk = compile_scalar(text);
  const auto batch = expr::compile_batch(chunk, kVecA);
  ASSERT_TRUE(batch.has_value()) << text;
  std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
  slots[0].column = col_a.data();
  slots[1].scalar = b;
  slots[2].scalar = c;
  expr::BatchVm vm;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(vm.run(*batch, slots, col_a.size(), out)) << text;
  expr::Vm scalar;
  for (std::size_t i = 0; i < col_a.size(); ++i) {
    const Value va(col_a[i]);
    const Value vb(b);
    const Value vc(c);
    const Value* ptrs[4] = {&va, &vb, &vc, nullptr};
    const Value r = scalar.run(chunk, ptrs);
    EXPECT_EQ(out[i] != 0, r.truthy()) << text << " lane " << i;
  }
}

TEST(BatchVmTest, LanesAgreeWithScalarVm) {
  const std::vector<std::int64_t> col = {-3, -1, 0, 1, 2, 5, 8, 1 << 20};
  for (const char* text :
       {"a < b", "a <= b and a > c", "a == b or a == c", "a % 3 == 0",
        "a * 2 + c > b", "-a < b", "not (a > b)", "a / 2 >= c",
        "a > 0 and (a < b or a == c)"}) {
    expect_batch_matches_scalar(text, col, 4, -1);
  }
}

TEST(BatchVmTest, HugeIntsKeepTheDoubleComparisonQuirks) {
  // Comparisons go through double exactly like value.cpp's compare(): above
  // 2^53, adjacent int64s collapse to the same double and compare equal.
  // The batch bitmap must reproduce that bit-for-bit, not fix it.
  const std::int64_t big = (std::int64_t{1} << 60) + 1;
  const std::vector<std::int64_t> col = {big, big - 1, big + 1, 0};
  expect_batch_matches_scalar("a == b", col, big, 0);
  expect_batch_matches_scalar("a < b", col, big, 0);
  expect_batch_matches_scalar("a >= b", col, big, 0);
}

TEST(BatchVmTest, RuntimeZeroDivisorAbortsTheBatch) {
  // b is zero at runtime (not a literal), so translation succeeds — but a
  // faulting lane means the bitmap cannot be trusted, and run() refuses so
  // the caller re-probes the whole batch through the scalar path (which
  // throws exactly where the walker would).
  const auto batch = expr::compile_batch(compile_scalar("a / b > 0"), kVecA);
  ASSERT_TRUE(batch.has_value());
  const std::vector<std::int64_t> col = {1, 2, 3};
  std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
  slots[0].column = col.data();
  slots[1].scalar = 0;
  expr::BatchVm vm;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(vm.run(*batch, slots, col.size(), out));

  // Per-lane divisors: ANY zero lane aborts, even if others are fine.
  const auto by_a = expr::compile_batch(compile_scalar("b / a > 0"), kVecA);
  ASSERT_TRUE(by_a.has_value());
  const std::vector<std::int64_t> divisors = {1, 0, 3};
  slots[0].column = divisors.data();
  slots[1].scalar = 6;
  EXPECT_FALSE(vm.run(*by_a, slots, divisors.size(), out));
  slots[1].scalar = 6;
  const std::vector<std::int64_t> safe = {1, 2, 3};
  slots[0].column = safe.data();
  EXPECT_TRUE(vm.run(*by_a, slots, safe.size(), out));
}

// ---------------------------------------------------------------------------
// Int arithmetic at the int64 bounds: INT64_MIN / -1 and INT64_MIN % -1
// used to trap (SIGFPE) in value.cpp and in both VMs' fast paths, and the
// VMs' Add/Sub/Mul/Neg fast paths overflowed signed ints (UB). All of them
// wrap in two's complement now; `x / -1` is wrapping negation and `x % -1`
// is 0, the result every other divisor already gives.

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(IntBounds, ValueArithmeticWraps) {
  EXPECT_EQ(div(Value(kMin), Value(-1)), Value(kMin));
  EXPECT_EQ(mod(Value(kMin), Value(-1)), Value(std::int64_t{0}));
  EXPECT_EQ(div(Value(kMax), Value(-1)), Value(-kMax));
  EXPECT_EQ(mod(Value(7), Value(-1)), Value(std::int64_t{0}));
  EXPECT_EQ(add(Value(kMax), Value(1)), Value(kMin));
  EXPECT_EQ(sub(Value(kMin), Value(1)), Value(kMax));
  EXPECT_EQ(mul(Value(kMax), Value(2)), Value(std::int64_t{-2}));
  EXPECT_EQ(neg(Value(kMin)), Value(kMin));
}

TEST(IntBounds, ValueVmAndBatchVmAgree) {
  const std::vector<std::int64_t> edges = {kMin, kMax, -1, 2, kMin + 1};
  // Every (x, y) pair as lanes: a = x, b = y, c = Value's x op y.
  std::vector<std::int64_t> xs;
  std::vector<std::int64_t> ys;
  for (const std::int64_t x : edges) {
    for (const std::int64_t y : edges) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  constexpr std::array<std::uint8_t, 4> kVecABC = {1, 1, 1, 0};
  constexpr std::array<std::uint8_t, 4> kVecAC = {1, 0, 1, 0};
  constexpr std::array<std::uint8_t, 4> kScalar = {0, 0, 0, 0};
  const std::pair<const char*, expr::BinOp> ops[] = {
      {"+", expr::BinOp::Add}, {"-", expr::BinOp::Sub},
      {"*", expr::BinOp::Mul}, {"/", expr::BinOp::Div},
      {"%", expr::BinOp::Mod}};
  for (const auto& [op, bin_op] : ops) {
    std::vector<std::int64_t> want;
    expr::Vm vm;
    const expr::Chunk value_chunk =
        compile_scalar(std::string("a ") + op + " b");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Value x(xs[i]);
      const Value y(ys[i]);
      want.push_back(expr::apply(bin_op, x, y).as_int());
      const Value* ptrs[4] = {&x, &y, nullptr, nullptr};
      EXPECT_EQ(vm.run(value_chunk, ptrs), Value(want.back()))
          << xs[i] << ' ' << op << ' ' << ys[i];
    }
    // The lane value minus the expected one is exactly 0 only when they
    // agree (a bare `==` compares through double, which is not exact here).
    const expr::Chunk check =
        compile_scalar(std::string("a ") + op + " b - c == 0");
    const auto lanes = [&](std::span<const std::uint8_t> layout,
                           std::span<const std::int64_t> a,
                           std::span<const std::int64_t> b,
                           std::span<const std::int64_t> c) {
      const auto batch = expr::compile_batch(check, layout);
      EXPECT_TRUE(batch.has_value()) << op;
      std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
      slots[0] = {a.data(), a[0]};
      slots[1] = {b.data(), b[0]};
      slots[2] = {c.data(), c[0]};
      expr::BatchVm bvm;
      std::vector<std::uint8_t> out;
      if (!batch || !bvm.run(*batch, slots, a.size(), out)) return false;
      return std::all_of(out.begin(), out.end(),
                         [](std::uint8_t lane) { return lane != 0; });
    };
    // Per-lane divisors, -1 among them.
    EXPECT_TRUE(lanes(kVecABC, xs, ys, want)) << op;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::span<const std::int64_t> b(&ys[i], 1);
      // One broadcast divisor for a column of dividends...
      const std::vector<std::int64_t> column(3, xs[i]);
      const std::vector<std::int64_t> expected(3, want[i]);
      EXPECT_TRUE(lanes(kVecAC, column, b, expected))
          << xs[i] << ' ' << op << ' ' << ys[i];
      // ...and all-scalar operands.
      EXPECT_TRUE(lanes(kScalar, std::span<const std::int64_t>(&xs[i], 1), b,
                        std::span<const std::int64_t>(&want[i], 1)))
          << xs[i] << ' ' << op << ' ' << ys[i];
    }
  }
}

TEST(IntBounds, EnginesWrapAProductPastInt64Max) {
  // The product is computed by the Vm's Mul fast path (signed overflow
  // before; the sanitizer build runs this test with UBSan).
  const gamma::Program program =
      gamma::dsl::parse_program("R = replace x, y by x * y\n");
  gamma::Multiset init;
  init.add(gamma::Element{Value(kMax)});
  init.add(gamma::Element{Value(2)});
  gamma::Multiset want;
  want.add(gamma::Element{Value(std::int64_t{-2})});
  std::vector<std::unique_ptr<gamma::Engine>> engines;
  engines.push_back(std::make_unique<gamma::SequentialEngine>());
  engines.push_back(std::make_unique<gamma::IndexedEngine>());
  engines.push_back(std::make_unique<gamma::ParallelEngine>());
  for (const auto& engine : engines) {
    EXPECT_EQ(engine->run(program, init, gamma::RunOptions{}).final_multiset,
              want)
        << engine->name();
  }
}

TEST(BatchVmTest, CountersAdvancePerEvalAndLane) {
  const auto batch = expr::compile_batch(compile_scalar("a > 0"), kVecA);
  ASSERT_TRUE(batch.has_value());
  const std::vector<std::int64_t> col = {1, -2, 3, 4, -5};
  std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
  slots[0].column = col.data();
  expr::BatchVm vm;
  std::vector<std::uint8_t> out;
  const std::uint64_t evals0 = expr::batch_evals();
  const std::uint64_t lanes0 = expr::batch_lanes();
  const auto width0 = expr::batch_width_counts();
  ASSERT_TRUE(vm.run(*batch, slots, col.size(), out));
  EXPECT_EQ(expr::batch_evals() - evals0, 1u);
  EXPECT_EQ(expr::batch_lanes() - lanes0, col.size());
  // n = 5 lands in bucket bit_width(5) = 3 (widths 4..7).
  const auto width1 = expr::batch_width_counts();
  EXPECT_EQ(width1[3] - width0[3], 1u);
}

/// Random int-only conditions over one vector and two scalar slots; every
/// batchable one must agree with the scalar Vm on every lane. Conditions
/// with runtime division are exercised too: if run() succeeds, no lane
/// faulted and the lanes must agree; if it aborts, the scalar run on some
/// lane must actually throw.
ExprPtr random_batch_expr(Rng& rng, int depth) {
  if (depth == 0 || rng.coin(0.3)) {
    switch (rng.bounded(6)) {
      case 0: return expr::var("a");
      case 1: return expr::var("b");
      case 2: return expr::var("c");
      case 3: return expr::lit(Value(rng.coin()));
      default:
        return expr::lit(Value(static_cast<std::int64_t>(rng.bounded(9)) - 3));
    }
  }
  if (rng.coin(0.15)) {
    return expr::Expr::unary(rng.coin() ? expr::UnOp::Neg : expr::UnOp::Not,
                             random_batch_expr(rng, depth - 1));
  }
  static constexpr expr::BinOp kOps[] = {
      expr::BinOp::Add, expr::BinOp::Sub, expr::BinOp::Mul, expr::BinOp::Div,
      expr::BinOp::Mod, expr::BinOp::Lt,  expr::BinOp::Le,  expr::BinOp::Gt,
      expr::BinOp::Ge,  expr::BinOp::Eq,  expr::BinOp::Ne,  expr::BinOp::And,
      expr::BinOp::Or};
  return expr::Expr::binary(kOps[rng.bounded(13)],
                            random_batch_expr(rng, depth - 1),
                            random_batch_expr(rng, depth - 1));
}

class BatchDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDifferential, BitmapMatchesScalarVm) {
  // 10 trials per seed x 50 seeds = 500 generated conditions.
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(GetParam() * 1000 + trial);
    const ExprPtr e = random_batch_expr(rng, 4);
    const expr::Chunk chunk = expr::compile(e, kSlots);
    const auto batch = expr::compile_batch(chunk, kVecA);
    if (!batch.has_value()) continue;  // not batchable: scalar path serves it

    std::vector<std::int64_t> col(17);
    for (auto& v : col) v = static_cast<std::int64_t>(rng.bounded(9)) - 3;
    const Value vb(static_cast<std::int64_t>(rng.bounded(9)) - 3);
    const Value vc(static_cast<std::int64_t>(rng.bounded(9)) - 3);
    std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
    slots[0].column = col.data();
    slots[1].scalar = vb.as_int();
    slots[2].scalar = vc.as_int();

    expr::BatchVm bvm;
    std::vector<std::uint8_t> out;
    const bool ok = bvm.run(*batch, slots, col.size(), out);
    expr::Vm scalar;
    bool any_fault = false;
    for (std::size_t i = 0; i < col.size(); ++i) {
      const Value va(col[i]);
      const Value* ptrs[4] = {&va, &vb, &vc, nullptr};
      const Observed o = observe([&] { return scalar.run(chunk, ptrs); });
      if (!o.ok) {
        any_fault = true;
        continue;
      }
      if (ok) {
        EXPECT_EQ(out[i] != 0, o.value.truthy())
            << "seed " << GetParam() << " trial " << trial << " lane " << i
            << ": " << e->to_string();
      }
    }
    if (!ok) {
      EXPECT_TRUE(any_fault)
          << "seed " << GetParam() << " trial " << trial
          << ": batch aborted but no lane faults: " << e->to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

TEST(BatchCorpus, GammaEnginesStateIdenticalAcrossAllThreeModes) {
  // The three evaluators an engine run touches: the batch sweep (buckets
  // wider than BatchMatcher::kMinChunk), the scalar-VM scan (the narrow
  // corpus buckets) and the walker (the reference run).
  std::vector<GammaCase> cases = gamma_corpus();
  gamma::Multiset wide_sieve;
  gamma::Multiset wide_min;
  for (std::int64_t v = 2; v <= 160; ++v) {
    wide_sieve.add(gamma::Element{Value(v)});
    wide_min.add(gamma::Element{Value((v * 37) % 101)});
  }
  cases.push_back({"sieve.gamma", std::move(wide_sieve)});
  cases.push_back({"min.gamma", std::move(wide_min)});
  std::vector<std::unique_ptr<gamma::Engine>> engines;
  engines.push_back(std::make_unique<gamma::SequentialEngine>());
  engines.push_back(std::make_unique<gamma::IndexedEngine>());
  expect_engines_match_reference(engines, cases);
}

// ---------------------------------------------------------------------------
// The reference matcher on generated programs.

/// Random guard over x and y rendered back to DSL text. Division and modulo
/// are included on purpose: a guard that faults must fault identically
/// (same error text) in the pipeline and the reference matcher.
std::string random_guard(Rng& rng, int depth) {
  if (depth == 0 || rng.coin(0.35)) {
    switch (rng.bounded(5)) {
      case 0: return "x";
      case 1: return "y";
      default:
        return std::to_string(static_cast<std::int64_t>(rng.bounded(9)) - 3);
    }
  }
  static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "<", "<=",
                                         ">", ">=", "==", "!=", "and", "or"};
  return "(" + random_guard(rng, depth - 1) + " " + kOps[rng.bounded(13)] +
         " " + random_guard(rng, depth - 1) + ")";
}

class BatchEngineDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

/// A generated store for the template at `which`: keys drawn from small
/// pools so that joins both hit and miss.
gamma::Multiset template_store(std::size_t which, Rng& rng) {
  const auto small = [&rng] {
    return Value(static_cast<std::int64_t>(rng.bounded(13)) - 3);
  };
  // Real join keys: -0.0 and 0.0 join (they are ==), NaN joins nothing,
  // and Int 1 never joins Real 1.0.
  const auto real_key = [&rng] {
    switch (rng.bounded(6)) {
      case 0: return Value(-0.0);
      case 1: return Value(0.0);
      case 2: return Value(std::nan(""));
      case 3: return Value(std::int64_t{1});
      case 4: return Value(1.0);
      default: return Value(2.5);
    }
  };
  gamma::Multiset init;
  const std::size_t n = 6 + rng.bounded(10);
  for (std::size_t i = 0; i < n; ++i) {
    const Value v = small();
    switch (which) {
      case 0: init.add(gamma::Element{v}); break;
      case 1: init.add(gamma::Element::labeled(v, "a")); break;
      case 2:
        init.add(gamma::Element::labeled(v, rng.coin() ? "a" : "b"));
        break;
      case 3: init.add(gamma::Element{v, rng.coin(0.4) ? v : small()}); break;
      case 4:
      case 6:
        init.add(gamma::Element{
            v, Value(static_cast<std::int64_t>(rng.bounded(3)))});
        break;
      case 5: {
        static constexpr const char* kKeys[] = {"p", "q", "r"};
        init.add(gamma::Element{v, Value(kKeys[rng.bounded(3)])});
        break;
      }
      case 7: init.add(gamma::Element{v, real_key()}); break;
      case 8: {
        // Arities 1/2/3 sharing field-0 key values: the (0, k) bucket
        // holds ids of every arity, and only the arity-2 ones can join.
        const Value key(static_cast<std::int64_t>(rng.bounded(3)));
        switch (rng.bounded(3)) {
          case 0: init.add(gamma::Element{key}); break;
          case 1: init.add(gamma::Element{key, v}); break;
          default: init.add(gamma::Element{key, v, small()}); break;
        }
        break;
      }
      default:
        init.add(gamma::Element{v, Value(rng.coin() ? "a" : "b"),
                                Value(static_cast<std::int64_t>(
                                    rng.bounded(3)))});
        break;
    }
  }
  return init;
}

TEST_P(BatchEngineDifferential, GeneratedProgramsAgreeAcrossModes) {
  // 20 generated (program, multiset) pairs per seed x 50 seeds = 1000
  // cases, each driven step by step through the pipeline and the reference
  // matcher. Templates rotate so literal field checks, label keys and
  // repeated binders (EqField) get exercised, and so do joins: a binder an
  // outer pattern bound (EqSlot), which the pipeline probes through its
  // (field, bound value) bucket while the reference scans the base bucket.
  // The joins cover Int, string and Real keys (±0.0, NaN, 1 vs 1.0), a
  // three-pattern join (non-innermost depth), a store mixing arities 1/2/3
  // under the join field's bucket, and the Algorithm-1 shape whose join
  // bucket competes with a label-key bucket.
  static constexpr const char* kTemplates[] = {
      "R = replace x, y by x + y where %G",
      "R = replace [x,'a'], [y,'a'] by [x + y,'a'] where %G",
      "R = replace [x,'a'], [y,'b'] by [x,'done'] where %G",
      "R = replace [x, x] by x where %G",
      "R = replace [x, k], [y, k] by [x + y, k] where %G",
      "R = replace [x, k], [y, k] by [x + y, k] where %G",
      "R = replace [x, k], [y, k], [z, k] by [x + y + z, k] where %G",
      "R = replace [x, k], [y, k] by [x + y, k] where %G",
      "R = replace [k, x], [k, y] by [k, x + y] where %G",
      "R = replace [x,'a',k], [y,'b',k] by [x + y,'a',k] where %G",
  };
  constexpr std::size_t kCount = std::size(kTemplates);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(GetParam() * 7919 + trial);
    const std::string guard = random_guard(rng, 3);
    const std::size_t which = rng.bounded(kCount);
    std::string src(kTemplates[which]);
    src.replace(src.find("%G"), 2, guard);
    const gamma::Multiset init = template_store(which, rng);

    gamma::Program p;
    try {
      p = gamma::dsl::parse_program(src);
    } catch (const Error&) {
      continue;  // a guard the DSL rejects (none expected) — skip
    }
    (void)expect_pipeline_matches_reference(
        p, init, GetParam(),
        "seed " + std::to_string(GetParam()) + " trial " +
            std::to_string(trial) + ": " + src);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEngineDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

class AnchorMemoDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

/// A guard that fails for most pairs: a rare relation between x and y,
/// sometimes narrowed further by a random guard. `y % x` and the random
/// part may divide by zero.
std::string rarely_true_guard(Rng& rng) {
  const std::string c = std::to_string(rng.bounded(20));
  const std::string rare[] = {"y % x == 0", "x + y == " + c,
                              "x * " + c + " == y", "x - y == " + c,
                              "x % 7 == y % 5"};
  std::string guard = "(" + rare[rng.bounded(std::size(rare))] + ")";
  if (rng.coin()) guard += " and (x > 1)";
  if (rng.coin(0.4)) guard += " and " + random_guard(rng, 2);
  return guard;
}

TEST_P(AnchorMemoDifferential, MemoizedFindsMatchTheReference) {
  // 10 seeds per parameter x 50 parameters = 500 generated two-pattern
  // programs whose guards fail often, so the pipeline's AnchorMemo skips
  // most anchors while the reference re-scans every pair. The shapes cover
  // pure filters (`by 0`), `by [x]` re-insertion under a fresh stamp, Int
  // and string join keys, labels, and a feeder reaction that adds four new
  // candidates between two finds, so the cyclic order inside a watermark
  // suffix decides the match; up to 89 elements per bucket, so suffix
  // scans span several batch chunks and slots get reused.
  static constexpr const char* kTemplates[] = {
      "R = replace x, y by 0 where %G",
      "R = replace x, y by [x] where %G",
      "R = replace x, y by y where %G",
      "R = replace [x, k], [y, k] by [x, k] where %G",
      "R = replace [x, k], [y, k] by [x + y, k] where %G",
      "R = replace [x,'a'], [y,'b'] by [y,'a'] where %G",
      "R = replace x, y by [x] where %G\n"
      "F = replace [v, 's'] by [v], [v + 1], [v + 2], [v + 3]",
  };
  static constexpr const char* kKeys[] = {"p", "q", "r"};
  std::size_t fires = 0;
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const std::uint64_t seed = (GetParam() - 1) * 10 + trial + 1;
    Rng rng(seed * 104729);
    const std::size_t which = rng.bounded(std::size(kTemplates));
    std::string src(kTemplates[which]);
    src.replace(src.find("%G"), 2, rarely_true_guard(rng));

    gamma::Multiset init;
    const std::size_t n = 10 + rng.bounded(80);
    for (std::size_t i = 0; i < n; ++i) {
      const Value v(static_cast<std::int64_t>(1 + rng.bounded(60)));
      switch (which) {
        case 3:
          init.add(gamma::Element{
              v, Value(static_cast<std::int64_t>(rng.bounded(4)))});
          break;
        case 4:
          init.add(gamma::Element{v, Value(kKeys[rng.bounded(3)])});
          break;
        case 5:
          init.add(gamma::Element::labeled(v, rng.coin() ? "a" : "b"));
          break;
        default: init.add(gamma::Element{v}); break;
      }
    }
    if (which < 3 && rng.coin(0.2)) init.add(gamma::Element{Value(0)});
    if (which == 6) {
      const std::size_t feeders = 4 + rng.bounded(8);
      for (std::size_t i = 0; i < feeders; ++i) {
        init.add(gamma::Element::labeled(
            Value(static_cast<std::int64_t>(1 + rng.bounded(60))), "s"));
      }
    }

    fires += expect_pipeline_matches_reference(
        gamma::dsl::parse_program(src), init, seed,
        "seed " + std::to_string(seed) + ": " + src, 4096,
        /*check_enumerate=*/false);
  }
  EXPECT_GT(fires, 0u);  // later finds reuse the memo
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnchorMemoDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

TEST(BatchCorpus, CompiledReactionExposesItsBatchPlan) {
  // Innermost-pattern binders become vector slots; outer binders broadcast.
  const gamma::Reaction r = gamma::dsl::parse_reaction(
      "R = replace [x,'a'], [y,'a'] by [x + y,'a'] where x < y");
  const auto* plan = r.compiled().batch_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->arity, 2u);
  ASSERT_EQ(plan->vector_slots.size(), 1u);  // y varies per lane
  EXPECT_EQ(plan->slot_is_vector,
            (std::vector<std::uint8_t>{0, 1}));  // x broadcast, y vector
  ASSERT_EQ(plan->conditions.size(), 1u);
  EXPECT_TRUE(plan->conditions[0].has_value());

  // A non-batchable guard disables the plan wholesale (all-or-nothing:
  // mixing lane bitmaps with scalar branch probes could reorder which
  // branch fires first) — the matcher falls back to the scalar sweep.
  const gamma::Reaction s = gamma::dsl::parse_reaction(
      "S = replace [x,'a'], [y,'a'] by [x,'a'] where y == 's' or x < y");
  EXPECT_EQ(s.compiled().batch_plan(), nullptr);

  // The join table lists, per pattern, each (field, slot) whose binder an
  // EARLIER pattern bound; a binder repeated inside the pattern that first
  // binds it (y) is an EqField check, not a join.
  const gamma::Reaction j = gamma::dsl::parse_reaction(
      "J = replace [x, k], [y, y, k], [k, x] by [x, k]");
  EXPECT_EQ(j.compiled().slots(), (std::vector<std::string>{"x", "k", "y"}));
  std::vector<std::vector<std::pair<int, int>>> joins;
  for (const auto& per_pattern : j.compiled().joins()) {
    joins.emplace_back();
    for (const auto& jf : per_pattern) {
      joins.back().emplace_back(jf.field, jf.slot);
    }
  }
  EXPECT_EQ(joins, (std::vector<std::vector<std::pair<int, int>>>{
                       {}, {{2, 1}}, {{0, 1}, {1, 0}}}));
}

TEST(BytecodeCorpus, CompiledApplyOverAFrameMatchesTheWalker) {
  // CompiledReaction::select over a slot frame, then the firing branch's
  // chunks, against Reaction::apply over the Env that Reaction::match
  // binds: the same firing branch, the same outputs and the same error
  // text, on multi-branch, else, `by 0` and faulting reactions over Int,
  // Real, string and Bool fields.
  const char* const reactions[] = {
      "R = replace x, y by [x / y] if x > y by [y, x] if x < y by 0 else",
      "R = replace [x, 'a'], [y, 'a'] by [x + y, 'a'] if x + y > 3 "
      "by [x, 'b'], [y, 'b'] else",
      "R = replace x, y by [x] where x % y == 0",
      "R = replace [x, k], [y, k] by [x * y, k] if k by [x - y, k] else",
  };
  const std::vector<std::vector<gamma::Element>> tuples = {
      {gamma::Element{Value(6)}, gamma::Element{Value(3)}},
      {gamma::Element{Value(3)}, gamma::Element{Value(6)}},
      {gamma::Element{Value(4)}, gamma::Element{Value(4)}},
      {gamma::Element{Value(1)}, gamma::Element{Value(0)}},
      {gamma::Element{Value(2.5)}, gamma::Element{Value(0.5)}},
      {gamma::Element{Value("s")}, gamma::Element{Value(1)}},
      {gamma::Element::labeled(Value(1), "a"),
       gamma::Element::labeled(Value(2), "a")},
      {gamma::Element::labeled(Value(3), "a"),
       gamma::Element::labeled(Value(2), "a")},
      {gamma::Element{Value(5), Value(true)},
       gamma::Element{Value(2), Value(true)}},
      {gamma::Element{Value(5), Value(false)},
       gamma::Element{Value(2), Value(false)}},
      {gamma::Element{Value(5), Value(7)}, gamma::Element{Value(2), Value(7)}},
  };
  std::size_t compared = 0;
  for (const char* text : reactions) {
    const gamma::Reaction r = gamma::dsl::parse_reaction(text);
    const gamma::CompiledReaction& compiled = r.compiled();
    for (const auto& tuple : tuples) {
      std::vector<const gamma::Element*> elements;
      for (const gamma::Element& e : tuple) elements.push_back(&e);
      Env env;
      if (!r.match(elements, env)) continue;
      gamma::Frame frame(compiled.slots().size());
      for (std::size_t s = 0; s < compiled.slots().size(); ++s) {
        frame.bind_ref(s, env.lookup(compiled.slots()[s]));
      }
      std::optional<std::vector<gamma::Element>> want;
      const Observed want_error = observe([&] {
        want = r.apply(env);
        return Value();
      });
      std::optional<std::vector<gamma::Element>> got;
      const Observed got_error = observe([&] {
        expr::Vm vm;
        const auto branch = compiled.select(frame.slots(), vm);
        if (branch) {
          const auto& chunks = compiled.branches()[*branch].chunks;
          std::size_t at = 0;
          std::vector<gamma::Element> produced;
          for (const auto& out : r.branches()[*branch].outputs) {
            std::vector<Value> fields;
            for (std::size_t f = 0; f < out.size(); ++f) {
              fields.push_back(vm.run(chunks[at++], frame.slots()));
            }
            produced.emplace_back(std::move(fields));
          }
          got = std::move(produced);
        }
        return Value();
      });
      const std::string where = std::string(text) + " on " +
                                tuple[0].to_string() + ", " +
                                tuple[1].to_string();
      EXPECT_EQ(got_error, want_error) << where;
      EXPECT_EQ(got, want) << where;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 19u);  // every tuple a reaction's patterns match
}

TEST(BytecodeCorpus, CompiledReactionReportsFootprint) {
  const gamma::Reaction r = gamma::dsl::parse_reaction(
      "Rmin = replace x, y by x where x < y");
  const gamma::CompiledReaction& cr = r.compiled();
  EXPECT_EQ(cr.slots(), (std::vector<std::string>{"x", "y"}));
  EXPECT_GT(cr.instr_count(), 0u);
  EXPECT_GE(cr.compile_ms(), 0.0);
}

}  // namespace
}  // namespace gammaflow
