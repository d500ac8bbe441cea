#include "gammaflow/paper/figures.hpp"

#include <functional>
#include <sstream>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/ast.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"

namespace gammaflow::paper {

using dataflow::Graph;
using dataflow::GraphBuilder;
using expr::BinOp;

Graph fig1_graph(std::int64_t x, std::int64_t y, std::int64_t k,
                 std::int64_t j) {
  GraphBuilder b;
  const auto cx = b.constant(Value(x), "x");
  const auto cy = b.constant(Value(y), "y");
  const auto ck = b.constant(Value(k), "k");
  const auto cj = b.constant(Value(j), "j");

  const dataflow::NodeId r1 = b.arith(BinOp::Add, "R1");
  const dataflow::NodeId r2 = b.arith(BinOp::Mul, "R2");
  const dataflow::NodeId r3 = b.arith(BinOp::Sub, "R3");
  b.connect(cx, r1, 0, "A1");
  b.connect(cy, r1, 1, "B1");
  b.connect(ck, r2, 0, "C1");
  b.connect(cj, r2, 1, "D1");
  b.connect(GraphBuilder::out(r1), r3, 0, "B2");
  b.connect(GraphBuilder::out(r2), r3, 1, "C2");

  const dataflow::NodeId out = b.output("m");
  b.connect(GraphBuilder::out(r3), out, 0, "m");
  return std::move(b).build();
}

gamma::Program fig1_gamma() {
  // Verbatim from §III-A1 (pair elements — no tags in Fig. 1).
  return gamma::dsl::parse_program(R"(
    R1 = replace [id1, 'A1'], [id2, 'B1']
         by [id1 + id2, 'B2']
    R2 = replace [id1, 'C1'], [id2, 'D1']
         by [id1 * id2, 'C2']
    R3 = replace [id1, 'B2'], [id2, 'C2']
         by [id1 - id2, 'm']
  )");
}

gamma::Multiset fig1_initial(std::int64_t x, std::int64_t y, std::int64_t k,
                             std::int64_t j) {
  return gamma::Multiset{
      gamma::Element::labeled(Value(x), "A1"),
      gamma::Element::labeled(Value(y), "B1"),
      gamma::Element::labeled(Value(k), "C1"),
      gamma::Element::labeled(Value(j), "D1"),
  };
}

gamma::Program fig1_reduced_gamma() {
  // Rd1 of §III-A3.
  return gamma::dsl::parse_program(R"(
    Rd1 = replace [id1,'A1'], [id2,'B1'], [id3,'C1'], [id4,'D1']
          by [(id1 + id2) - (id3 * id4), 'm']
  )");
}

Graph fig2_graph(std::int64_t z, std::int64_t y, std::int64_t x,
                 bool observe_result) {
  GraphBuilder b;
  const auto cy = b.constant(Value(y), "y");
  const auto cz = b.constant(Value(z), "z");
  const auto cx = b.constant(Value(x), "x");

  const auto r11 = b.inctag("R11");
  const auto r12 = b.inctag("R12");
  const auto r13 = b.inctag("R13");
  const auto r14 = b.cmp_imm(BinOp::Gt, Value(std::int64_t{0}), "R14");
  const auto r15 = b.steer("R15");
  const auto r16 = b.steer("R16");
  const auto r17 = b.steer("R17");
  const auto r18 = b.arith_imm(BinOp::Sub, Value(std::int64_t{1}), "R18");
  const auto r19 = b.arith(BinOp::Add, "R19");

  // Initial edges.
  b.connect(cy, r11, 0, "A1");
  b.connect(cz, r12, 0, "B1");
  b.connect(cx, r13, 0, "C1");
  // IncTag fan-outs.
  b.connect(GraphBuilder::out(r11), r15, dataflow::kSteerData, "A12");
  b.connect(GraphBuilder::out(r12), r14, 0, "B12");
  b.connect(GraphBuilder::out(r12), r16, dataflow::kSteerData, "B13");
  b.connect(GraphBuilder::out(r13), r17, dataflow::kSteerData, "C12");
  // Comparison fan-out: one control token per steer.
  b.connect(GraphBuilder::out(r14), r15, dataflow::kSteerControl, "B14");
  b.connect(GraphBuilder::out(r14), r16, dataflow::kSteerControl, "B15");
  b.connect(GraphBuilder::out(r14), r17, dataflow::kSteerControl, "B16");
  // Steer TRUE paths.
  b.connect(GraphBuilder::true_out(r15), r11, 0, "A11");  // loop y back
  b.connect(GraphBuilder::true_out(r15), r19, 0, "A13");
  b.connect(GraphBuilder::true_out(r16), r18, 0, "B17");
  b.connect(GraphBuilder::true_out(r17), r19, 1, "C13");
  // Decrement and accumulate loop-backs.
  b.connect(GraphBuilder::out(r18), r12, 0, "B11");
  b.connect(GraphBuilder::out(r19), r13, 0, "C11");

  if (observe_result) {
    const auto out = b.output("x_final");
    b.connect(GraphBuilder::false_out(r17), out, 0, "x_final");
  }
  return std::move(b).build();
}

gamma::Program fig2_gamma() {
  // Verbatim R11..R19 from §III-A1 (tagged triples).
  return gamma::dsl::parse_program(R"(
    R11 = replace [id1, x, v]
          by [id1, 'A12', v + 1]
          if (x == 'A1') or (x == 'A11')

    R12 = replace [id1, x, v]
          by [id1, 'B12', v + 1], [id1, 'B13', v + 1]
          if (x == 'B1') or (x == 'B11')

    R13 = replace [id1, x, v]
          by [id1, 'C12', v + 1]
          if (x == 'C1') or (x == 'C11')

    R14 = replace [id1, 'B12', v]
          by [1, 'B14', v], [1, 'B15', v], [1, 'B16', v]
          if id1 > 0
          by [0, 'B14', v], [0, 'B15', v], [0, 'B16', v]
          else

    R15 = replace [id1, 'A12', v], [id2, 'B14', v]
          by [id1, 'A11', v], [id1, 'A13', v]
          if id2 == 1
          by 0
          else

    R16 = replace [id1, 'B13', v], [id2, 'B15', v]
          by [id1, 'B17', v]
          if id2 == 1
          by 0
          else

    R17 = replace [id1, 'C12', v], [id2, 'B16', v]
          by [id1, 'C13', v]
          if id2 == 1
          by 0
          else

    R18 = replace [id1, 'B17', v]
          by [id1 - 1, 'B11', v]

    R19 = replace [id1, 'A13', v], [id2, 'C13', v]
          by [id1 + id2, 'C11', v]
  )");
}

gamma::Multiset fig2_initial(std::int64_t z, std::int64_t y, std::int64_t x) {
  return gamma::Multiset{
      gamma::Element::tagged(Value(y), "A1", 0),
      gamma::Element::tagged(Value(z), "B1", 0),
      gamma::Element::tagged(Value(x), "C1", 0),
  };
}

gamma::Program fig2_reduced_gamma() {
  // Rd11..Rd16 of §III-A3 (verbatim, including the paper's choice to fold
  // R14's comparison into the consumers as "if id2 > 0").
  return gamma::dsl::parse_program(R"(
    Rd11 = replace [id1, x, v]
           by [id1, 'A12', v + 1]
           if (x == 'A1') or (x == 'A11')

    Rd12 = replace [id1, x, v]
           by [id1, 'B14', v + 1], [id1, 'B12', v + 1], [id1, 'B16', v + 1]
           if (x == 'B1') or (x == 'B11')

    Rd13 = replace [id1, x, v]
           by [id1, 'C12', v + 1]
           if (x == 'C1') or (x == 'C11')

    Rd14 = replace [id1, 'A12', v], [id2, 'B14', v]
           by [id1, 'A11', v], [id1, 'A13', v]
           if id2 > 0
           by 0
           else

    Rd15 = replace [id1, 'B12', v]
           by [id1 - 1, 'B11', v]
           if id1 > 0
           by 0
           else

    Rd16 = replace [id1, 'A13', v], [id2, 'B16', v], [id3, 'C12', v]
           by [id1 + id3, 'C11', v]
           if id2 > 0
           by 0
           else
  )");
}

Graph random_expression_graph(std::size_t leaves, std::uint64_t seed) {
  if (leaves < 1) leaves = 1;
  Rng rng(seed);
  GraphBuilder b;
  std::vector<GraphBuilder::Port> frontier;
  frontier.reserve(leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    frontier.push_back(b.constant(
        Value(static_cast<std::int64_t>(rng.bounded(2001)) - 1000),
        "in" + std::to_string(i)));
  }
  static constexpr BinOp kOps[] = {BinOp::Add, BinOp::Sub, BinOp::Mul};
  while (frontier.size() > 1) {
    // Combine two random frontier entries; keeps the tree roughly balanced.
    const std::size_t i = rng.bounded(frontier.size());
    GraphBuilder::Port a = frontier[i];
    frontier[i] = frontier.back();
    frontier.pop_back();
    const std::size_t j = rng.bounded(frontier.size());
    GraphBuilder::Port c = frontier[j];
    const BinOp op = kOps[rng.bounded(3)];
    frontier[j] = b.arith(op, a, c);
  }
  b.connect(frontier.front(), b.output("m"), 0, "m");
  return std::move(b).build();
}

Graph multi_loop_graph(std::size_t loops, std::int64_t z, bool observe_result) {
  GraphBuilder b;
  for (std::size_t l = 0; l < loops; ++l) {
    const std::string p =
        std::string("L").append(std::to_string(l)).append(".");
    const auto cy = b.constant(Value(std::int64_t(l + 1)), p + "y");
    const auto cz = b.constant(Value(z), p + "z");
    const auto cx = b.constant(Value(std::int64_t{0}), p + "x");

    const auto r11 = b.inctag(p + "R11");
    const auto r12 = b.inctag(p + "R12");
    const auto r13 = b.inctag(p + "R13");
    const auto r14 = b.cmp_imm(BinOp::Gt, Value(std::int64_t{0}), p + "R14");
    const auto r15 = b.steer(p + "R15");
    const auto r16 = b.steer(p + "R16");
    const auto r17 = b.steer(p + "R17");
    const auto r18 = b.arith_imm(BinOp::Sub, Value(std::int64_t{1}), p + "R18");
    const auto r19 = b.arith(BinOp::Add, p + "R19");

    b.connect(cy, r11, 0, p + "A1");
    b.connect(cz, r12, 0, p + "B1");
    b.connect(cx, r13, 0, p + "C1");
    b.connect(GraphBuilder::out(r11), r15, dataflow::kSteerData, p + "A12");
    b.connect(GraphBuilder::out(r12), r14, 0, p + "B12");
    b.connect(GraphBuilder::out(r12), r16, dataflow::kSteerData, p + "B13");
    b.connect(GraphBuilder::out(r13), r17, dataflow::kSteerData, p + "C12");
    b.connect(GraphBuilder::out(r14), r15, dataflow::kSteerControl, p + "B14");
    b.connect(GraphBuilder::out(r14), r16, dataflow::kSteerControl, p + "B15");
    b.connect(GraphBuilder::out(r14), r17, dataflow::kSteerControl, p + "B16");
    b.connect(GraphBuilder::true_out(r15), r11, 0, p + "A11");
    b.connect(GraphBuilder::true_out(r15), r19, 0, p + "A13");
    b.connect(GraphBuilder::true_out(r16), r18, 0, p + "B17");
    b.connect(GraphBuilder::true_out(r17), r19, 1, p + "C13");
    b.connect(GraphBuilder::out(r18), r12, 0, p + "B11");
    b.connect(GraphBuilder::out(r19), r13, 0, p + "C11");
    if (observe_result) {
      const auto out = b.output(p + "x_final");
      b.connect(GraphBuilder::false_out(r17), out, 0, p + "x_final");
    }
  }
  return std::move(b).build();
}

std::string random_source_program(std::uint64_t seed, bool with_loop) {
  Rng rng(seed);
  std::ostringstream src;

  // Declarations.
  const std::size_t nvars = 3 + rng.bounded(3);
  std::vector<std::string> vars;
  for (std::size_t i = 0; i < nvars; ++i) {
    vars.push_back(std::string(1, static_cast<char>('a' + i)));
    src << "int " << vars.back() << " = "
        << static_cast<std::int64_t>(rng.bounded(41)) - 20 << ";\n";
  }
  auto pick = [&]() -> const std::string& {
    return vars[rng.bounded(vars.size())];
  };
  // Small arithmetic expression over declared variables; + - * only (no
  // division: random data divides by zero).
  auto expr_str = [&](int depth) {
    std::string out;
    const std::function<void(int)> gen = [&](int d) {
      if (d == 0 || rng.coin(0.4)) {
        if (rng.coin(0.3)) {
          out += std::to_string(static_cast<std::int64_t>(rng.bounded(9)) + 1);
        } else {
          out += pick();
        }
        return;
      }
      out += '(';
      gen(d - 1);
      out += rng.coin(0.5) ? " + " : (rng.coin(0.5) ? " - " : " * ");
      gen(d - 1);
      out += ')';
    };
    gen(depth);
    return out;
  };

  // Straight-line and branching statements.
  const std::size_t nstmts = 2 + rng.bounded(4);
  for (std::size_t i = 0; i < nstmts; ++i) {
    if (rng.coin(0.3)) {
      const char* cmp = rng.coin() ? ">" : "<";
      src << "if (" << pick() << ' ' << cmp << ' ' << expr_str(1) << ") {\n"
          << "  " << pick() << " = " << expr_str(2) << ";\n";
      if (rng.coin()) {
        src << "} else {\n  " << pick() << " = " << expr_str(2) << ";\n";
      }
      src << "}\n";
    } else {
      src << pick() << " = " << expr_str(2) << ";\n";
    }
  }

  // Optional trailing bounded loop accumulating one variable by another.
  // After it, only outputs follow, so tag contexts never clash.
  if (with_loop && rng.coin(0.7)) {
    const std::string acc = pick();
    std::string step = pick();
    while (step == acc) step = pick();
    src << "for (q = " << 1 + rng.bounded(8) << "; q > 0; q--) " << acc
        << " = " << acc << " + " << step << ";\n";
    // Loop-carried variables exited into a fresh tag context; outputs are
    // context-agnostic, so observe those two plus one untouched variable.
    src << "output " << acc << ";\n";
  } else {
    // No loop: everything is tag-0, output every variable.
    for (const std::string& v : vars) src << "output " << v << ";\n";
  }
  return src.str();
}

}  // namespace gammaflow::paper
