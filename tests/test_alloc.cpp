// Allocation regression: the fire path allocates nothing in steady state.
// This binary replaces the global operator new with a counting one, which is
// why it is a test binary of its own: the counter must not leak into the
// other suites. Each case counts the heap allocations made while an engine
// runs a program to its fixpoint and divides by the fires it made. Setup
// (the store's column and bucket growth, the result multiset) is amortized
// over thousands of fires; a per-fire allocation anywhere on the match,
// commit or drain path shows up as a ratio of 1 or more. On glibc the
// counter also tracks the heap bytes live through operator new and their
// high-water mark, for the cases that bound a peak rather than a count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/expr/ast.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/footprint.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/worklist.hpp"
#include "gammaflow/serve/session.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

/// The bytes a block holds; 0 where the C library cannot say.
std::int64_t block_bytes(void* p) {
#if defined(__GLIBC__)
  return static_cast<std::int64_t>(malloc_usable_size(p));
#else
  (void)p;
  return 0;
#endif
}

void release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(block_bytes(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// Out of line, so the compiler never sees `free` applied to a pointer that
// came from `new` (GCC's -Wmismatched-new-delete once they are inlined).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::int64_t bytes = block_bytes(p);
  const std::int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  release(p);
}

namespace gammaflow {
namespace {

/// The classic Gamma sum: every fire removes two ints and inserts one.
constexpr const char* kReduce = "R = replace x, y by x + y";
/// A keyed join: the inner pattern is probed through the (1, k) bucket.
constexpr const char* kKeyed = "R = replace [x, k], [y, k] by [x + y, k]";

constexpr std::size_t kElements = 4096;

/// The dataflow side's loop: z = 10000 iterations of x = x + y, compiled
/// from source to a tagged loop graph (90,011 fires).
constexpr const char* kLoopSource = R"(int y = 3;
int z = 10000;
int x = 5;
for (i = z; i > 0; i--)
  x = x + y;
output x;
)";

gamma::Multiset reduce_input(std::size_t n) {
  gamma::Multiset m;
  for (std::size_t i = 0; i < n; ++i) {
    m.add(gamma::Element{Value(static_cast<std::int64_t>(i % 97))});
  }
  return m;
}

gamma::Multiset keyed_input(std::size_t n) {
  gamma::Multiset m;
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(gamma::Element{Value(static_cast<std::int64_t>(rng.bounded(100))),
                         Value(static_cast<std::int64_t>(i % 16))});
  }
  return m;
}

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t fires = 0;

  [[nodiscard]] double per_fire() const {
    return static_cast<double>(allocations) / static_cast<double>(fires);
  }
};

/// Allocations and fires of one engine run (the engine's thread-local
/// scratch warmed by an earlier run on the same input).
Count count_run(const gamma::Engine& engine, const gamma::Program& program,
                const gamma::Multiset& initial,
                const gamma::RunOptions& options) {
  (void)engine.run(program, initial, options);
  const std::uint64_t before = g_allocations.load();
  const gamma::RunResult result = engine.run(program, initial, options);
  Count c;
  c.allocations = g_allocations.load() - before;
  c.fires = result.steps;
  return c;
}

/// Allocations and fires of one dataflow run (after a first run of the
/// same graph, as for the Gamma engines).
Count count_df_run(const dataflow::DfEngine& engine,
                   const dataflow::Graph& graph,
                   const dataflow::DfRunOptions& options) {
  (void)engine.run(graph, options);
  const std::uint64_t before = g_allocations.load();
  const dataflow::DfRunResult result = engine.run(graph, options);
  Count c;
  c.allocations = g_allocations.load() - before;
  c.fires = result.fires;
  return c;
}

/// Allocations and fires of one inject() of `elements` into a fresh
/// session that already drained an earlier injection of the same shape.
Count count_inject(const gamma::Program& program,
                   const gamma::Multiset& elements) {
  runtime::WorklistOptions options;
  options.seed = 7;
  runtime::IncrementalFixpoint session(
      program, gamma::program_footprints(program), options);
  gamma::FlatElements batch;
  for (const gamma::Element& e : elements) {
    batch.fields.insert(batch.fields.end(), e.fields().begin(),
                        e.fields().end());
    batch.arities.push_back(e.arity());
  }
  (void)session.inject(batch);
  const std::uint64_t fires0 = session.stats().fires;
  const std::uint64_t before = g_allocations.load();
  (void)session.inject(batch);
  Count c;
  c.allocations = g_allocations.load() - before;
  c.fires = session.stats().fires - fires0;
  return c;
}

void report(const std::string& what, const Count& c) {
  std::cout << "[ alloc ] " << what << ": " << c.allocations
            << " allocations / " << c.fires << " fires = " << c.per_fire()
            << " per fire\n";
}

TEST(Alloc, IndexedEngineFiresWithoutAllocating) {
  for (const auto& [text, input] :
       {std::pair{kReduce, reduce_input(kElements)},
        std::pair{kKeyed, keyed_input(kElements)}}) {
    const gamma::Program program = gamma::dsl::parse_program(text);
    gamma::RunOptions options;
    options.seed = 5;
    const Count c =
        count_run(gamma::IndexedEngine{}, program, input, options);
    report(std::string("idx ") + text, c);
    ASSERT_GT(c.fires, kElements / 2);
    EXPECT_LE(c.per_fire(), 1.0) << text;
  }
}

TEST(Alloc, SequentialEngineFiresWithoutAllocatingOnceItsBufferIsWarm) {
  for (const auto& [text, input] :
       {std::pair{kReduce, reduce_input(kElements)},
        std::pair{kKeyed, keyed_input(kElements)}}) {
    const gamma::Program program = gamma::dsl::parse_program(text);
    gamma::RunOptions options;
    options.seed = 5;
    // The uniform choice among at most 64 enabled matches per step keeps
    // the quadratic enumeration small; the match buffer is reused across
    // steps whatever its size.
    options.uniform_cap = 64;
    const Count c =
        count_run(gamma::SequentialEngine{}, program, input, options);
    report(std::string("seq ") + text, c);
    ASSERT_GT(c.fires, kElements / 2);
    EXPECT_LE(c.per_fire(), 1.0) << text;
  }
}

TEST(Alloc, WorklistInjectFiresWithoutAllocating) {
  for (const auto& [text, input] :
       {std::pair{kReduce, reduce_input(kElements)},
        std::pair{kKeyed, keyed_input(kElements)}}) {
    const gamma::Program program = gamma::dsl::parse_program(text);
    const Count c = count_inject(program, input);
    report(std::string("worklist ") + text, c);
    ASSERT_GT(c.fires, kElements / 2);
    EXPECT_LE(c.per_fire(), 1.0) << text;
  }
}

TEST(Alloc, DataflowInterpreterFiresWithoutAllocating) {
  // Operands wait in inline frames of the per-node tag tables and ready
  // instances in two reused wavefront vectors: what is left is growth.
  const dataflow::Graph graph = frontend::compile_source(kLoopSource);
  const Count c =
      count_df_run(dataflow::Interpreter{}, graph, dataflow::DfRunOptions{});
  report("dataflow interpreter loop z=10000", c);
  ASSERT_GT(c.fires, 90'000u);
  EXPECT_LT(c.per_fire(), 0.05);
}

TEST(Alloc, DataflowParallelEngineFiresWithoutAllocatingInItsStore) {
  // One PE, so every token crosses its MPSC inbox: the inbox's deque
  // chunks (about 0.1 per fire) are the remaining per-fire allocations.
  const dataflow::Graph graph = frontend::compile_source(kLoopSource);
  dataflow::DfRunOptions options;
  options.workers = 1;
  const Count c = count_df_run(dataflow::ParallelEngine{}, graph, options);
  report("dataflow parallel engine (1 PE) loop z=10000", c);
  ASSERT_GT(c.fires, 90'000u);
  EXPECT_LE(c.per_fire(), 0.5);
}

TEST(Alloc, StoreLoadsAMultisetWithoutPerElementAllocations) {
  // With no constrained field the store keeps columns and the arity
  // bucket only, whose growth is amortized: doubling the input adds a
  // handful of allocations, not one per element.
  const auto load = [](std::size_t n) {
    const gamma::Multiset m = reduce_input(n);
    const gamma::FieldSet fields =
        gamma::FieldSet::of(gamma::dsl::parse_program(kReduce));
    const std::uint64_t before = g_allocations.load();
    const gamma::Store store(m, fields);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(store.size(), n);
    return allocations;
  };
  const std::uint64_t small = load(kElements);
  const std::uint64_t large = load(2 * kElements);
  std::cout << "[ alloc ] Store(m): " << small << " allocations for "
            << kElements << " elements, " << large << " for "
            << 2 * kElements << "\n";
  EXPECT_LE(small, kElements / 32);
  EXPECT_LE(large - small, 16u);
}

/// perfbench's `--init` shapes: 4096 `[int]` (reduce) and 4096
/// `[int,'kNN']` over 64 labels (parallel).
std::string ints_text(std::size_t n) {
  std::string text;
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    text.append(i == 0 ? "[" : " [")
        .append(std::to_string(static_cast<std::int64_t>(rng.bounded(2001)) - 1000))
        .append("]");
  }
  return text;
}

std::string pairs_text(std::size_t n) {
  std::string text;
  Rng rng(12);
  for (std::size_t i = 0; i < n; ++i) {
    text.append(i == 0 ? "[" : " [")
        .append(std::to_string(rng.bounded(1000)))
        .append(",'k")
        .append(std::to_string(i % 64))
        .append("']");
  }
  return text;
}

TEST(Alloc, ElementReaderAllocatesOnlyTheElements) {
  // Each element costs its field vector; the multiset's own growth is
  // amortized. A token vector or an expression tree per field would show
  // as one or more further allocations per element.
  for (const auto& [what, text] :
       {std::pair{"4096 [int]", ints_text(kElements)},
        std::pair{"4096 [int,'kNN']", pairs_text(kElements)}}) {
    const std::uint64_t before = g_allocations.load();
    const gamma::Multiset m = gamma::dsl::parse_elements(text);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_EQ(m.size(), kElements);
    const double per_element =
        static_cast<double>(allocations) / static_cast<double>(kElements);
    std::cout << "[ alloc ] parse_elements " << what << ": " << allocations
              << " allocations = " << per_element << " per element\n";
    EXPECT_LE(per_element, 1.5) << what;
  }
}

TEST(Alloc, ReusedFlatElementsReadWithoutPerElementAllocations) {
  // A serve inject reads into a buffer kept from the last inject: once its
  // vectors have grown, a read of the same shape allocates nothing per
  // element (labels this short live inside their string).
  for (const auto& [what, text] :
       {std::pair{"4096 [int]", ints_text(kElements)},
        std::pair{"4096 [int,'kNN']", pairs_text(kElements)}}) {
    gamma::FlatElements flat;
    gamma::dsl::read_elements(text, flat);
    const std::uint64_t before = g_allocations.load();
    gamma::dsl::read_elements(text, flat);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_EQ(flat.size(), kElements);
    std::cout << "[ alloc ] read_elements into a reused buffer " << what
              << ": " << allocations << " allocations\n";
    EXPECT_LE(allocations, 8u) << what;
  }
}

TEST(Alloc, ServeQueryCountsWithoutCopyingTheStore) {
  // A serve `query` by label or by element counts off the session store's
  // live rows: it used to copy the whole store into a Multiset per request,
  // one Element (and its field vector) per row.
  serve::Session session("s",
                         gamma::dsl::parse_program(
                             "R = replace [x, 'a'], [y, 'b'] by [x + y, 'c']"),
                         serve::SessionOptions{});
  gamma::FlatElements batch;
  for (std::size_t i = 0; i < kElements; ++i) {
    batch.fields.emplace_back(static_cast<std::int64_t>(i));
    batch.fields.emplace_back(std::string("k").append(std::to_string(i % 16)));
    batch.arities.push_back(2);
  }
  ASSERT_EQ(session.inject(batch).store_size, kElements);
  const gamma::Element five{Value(5), Value("k5")};
  const std::uint64_t before = g_allocations.load();
  const std::int64_t labelled = session.count_label("k3");
  const std::int64_t exact = session.count_element(five);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(labelled, static_cast<std::int64_t>(kElements / 16));
  EXPECT_EQ(exact, 1);
  std::cout << "[ alloc ] serve label + element query over " << kElements
            << " elements: " << allocations << " allocations\n";
  EXPECT_EQ(allocations, 0u);
}

TEST(Alloc, ConstantFoldingHoldsOneIntermediateAtATime) {
  // Reaction guards are compiled without simplify, so the bytecode folder
  // alone turns `x > 'L...L' + 'a' + ... + 'a'` into one constant. Each
  // step's string is one byte longer than the last; keeping every
  // intermediate until compile ends would hold operators x literal bytes
  // (64 MB here), where the walker holds about one at a time.
#if !defined(__GLIBC__)
  GTEST_SKIP() << "live heap bytes come from glibc's malloc_usable_size";
#endif
  constexpr std::size_t kLiteral = 64 * 1024;
  constexpr std::size_t kOperators = 1024;
  expr::ExprPtr chain = expr::lit(Value(std::string(kLiteral, 'L')));
  for (std::size_t i = 0; i < kOperators; ++i) {
    chain = expr::Expr::binary(expr::BinOp::Add, chain, expr::lit(Value("a")));
  }
  const expr::ExprPtr guard =
      expr::Expr::binary(expr::BinOp::Gt, expr::var("x"), chain);
  const std::string slots[] = {"x"};
  const std::int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  const expr::Chunk chunk = expr::compile(guard, slots);
  const std::int64_t held = g_peak_bytes.load() - before;
  ASSERT_EQ(chunk.consts.size(), 1u);
  EXPECT_EQ(chunk.consts[0].as_str().size(), kLiteral + kOperators);
  std::cout << "[ alloc ] compile of a " << kOperators
            << "-operator constant string chain: peak " << held
            << " bytes above the tree\n";
  EXPECT_LT(held, static_cast<std::int64_t>(16 * kLiteral));
}

}  // namespace
}  // namespace gammaflow
