// The element reader (`dsl::parse_elements`): the multiset text of CLI
// `--init` and of serve `create`/`inject`/`query`. A golden table pins each
// construct of the element grammar to the value it reads, or to the exact
// error text; a seeded byte-mutation differential holds the streaming
// reader to the eager path it replaced (tokenize the whole text, then parse
// and fold every field as an expression).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/lexer.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/expr/simplify.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"

namespace gammaflow::gamma::dsl {
namespace {

/// Elements in reading order, each field as "<kind> <value>"; a Real with
/// its sign bit set is marked "(-)" so -0.0 and 0.0 differ.
std::string render(const Multiset& m) {
  std::string out;
  for (const Element& e : m) {
    out += '[';
    for (std::size_t i = 0; i < e.arity(); ++i) {
      const Value& v = e.field(i);
      if (i > 0) out += ", ";
      out += to_string(v.kind());
      out += ' ';
      out += v.to_string();
      if (v.is_real() && std::signbit(v.as_real())) out += "(-)";
    }
    out += ']';
  }
  return out;
}

/// What `reader` makes of `text`: the rendered multiset or "error: <what>".
template <typename Reader>
std::string outcome(Reader&& reader, std::string_view text) {
  try {
    return render(reader(text));
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

std::string read(std::string_view text) {
  return outcome(parse_elements, text);
}

/// The eager reader the streaming one replaced, kept as the oracle: the
/// whole text is tokenized first, so a lex error anywhere wins; then every
/// field is parsed as an expression and folded. (Once tokenize has passed,
/// the stream yields the same tokens a vector of them would.)
Multiset eager_parse_elements(std::string_view source) {
  (void)expr::tokenize(source);
  expr::TokenStream ts(source);
  Multiset m;
  const auto literal_field = [&]() -> Value {
    const expr::ExprPtr e = expr::parse_expression(ts);
    const expr::ExprPtr folded = expr::simplify(e);
    if (folded->kind() != expr::Expr::Kind::Literal) {
      throw Error("multiset element fields must be literals, got '" +
                  e->to_string() + "'");
    }
    return folded->literal();
  };
  while (!ts.done()) {
    ts.accept(expr::TokenKind::Comma);
    if (ts.done()) break;
    std::vector<Value> fields;
    if (ts.accept(expr::TokenKind::LBracket)) {
      fields.push_back(literal_field());
      while (ts.accept(expr::TokenKind::Comma)) {
        fields.push_back(literal_field());
      }
      ts.expect(expr::TokenKind::RBracket);
    } else {
      fields.push_back(literal_field());
    }
    m.add(Element(std::move(fields)));
  }
  return m;
}

struct Golden {
  const char* text;
  const char* read;
};

// Pinned on the eager reader before the streaming one replaced it.
const Golden kGolden[] = {
    {R"()", R"()"},
    {"   \n\t ", ""},
    {R"(# only a comment)", R"()"},
    {R"([1] [2] [3])", R"([int 1][int 2][int 3])"},
    {R"([3,'a'], [1,'b',0])", R"([int 3, str 'a'][int 1, str 'b', int 0])"},
    {R"(7, 9)", R"([int 7][int 9])"},
    {R"(7 9)", R"([int 7][int 9])"},
    {R"(7 -9)", R"([int -2])"},
    {R"(7 - 9)", R"([int -2])"},
    {R"([7 -9])", R"([int -2])"},
    {R"(,[1])", R"([int 1])"},
    {R"(,,[1])", R"(error: ParseError at 1:2: expected expression, found ',' ',')"},
    {R"([1],,[2])", R"(error: ParseError at 1:5: expected expression, found ',' ',')"},
    {R"([1],)", R"([int 1])"},
    {R"([1] , , [2])", R"(error: ParseError at 1:7: expected expression, found ',' ',')"},
    {R"([-5, -2.5])", R"([int -5, real -2.5(-)])"},
    {R"([- 5])", R"([int -5])"},
    {R"([1, -2])", R"([int 1, int -2])"},
    {R"([3 - -2])", R"([int 5])"},
    {R"([-2 * 3])", R"([int -6])"},
    {R"([-2 < 3])", R"([bool true])"},
    {R"(-4)", R"([int -4])"},
    {R"(- 4, -5)", R"([int -4][int -5])"},
    {R"(9223372036854775807)", R"([int 9223372036854775807])"},
    {R"(-9223372036854775807)", R"([int -9223372036854775807])"},
    {R"(9223372036854775808)", R"(error: ParseError at 1:1: integer literal out of range: 9223372036854775808)"},
    {R"(-9223372036854775808)", R"(error: ParseError at 1:2: integer literal out of range: 9223372036854775808)"},
    {R"([1.5])", R"([real 1.5])"},
    {R"(-0.0)", R"([real -0.0(-)])"},
    {R"([0.0, -0.0])", R"([real 0.0, real -0.0(-)])"},
    {R"(1e3)", R"([real 1000.0])"},
    {R"([-1e3])", R"([real -1000.0(-)])"},
    {R"(1.5e-3)", R"([real 0.0015])"},
    {R"(1E+2)", R"([real 100.0])"},
    {R"(2.)", R"(error: ParseError at 1:2: unexpected character '.')"},
    {R"(1e)", R"(error: multiset element fields must be literals, got 'e')"},
    {R"(1ex)", R"(error: multiset element fields must be literals, got 'ex')"},
    {R"(TRUE)", R"([bool true])"},
    {R"(Nil)", R"([nil nil])"},
    {R"([true, False, nIL])", R"([bool true, bool false, nil nil])"},
    {R"([-true])", R"(error: multiset element fields must be literals, got '-true')"},
    {R"(-nil)", R"(error: multiset element fields must be literals, got '-nil')"},
    {R"(['kNN'])", R"([str 'kNN'])"},
    {R"([''])", R"([str ''])"},
    {R"([1,'a'] [2,'b'])", R"([int 1, str 'a'][int 2, str 'b'])"},
    {R"([1] # one
[2]
# two
[3])", R"([int 1][int 2][int 3])"},
    {R"([1,
 'x'
])", R"([int 1, str 'x'])"},
    {R"(['abc])", R"(error: ParseError at 1:2: unterminated string literal)"},
    {R"('ab
cd')", R"(error: ParseError at 1:1: unterminated string literal)"},
    {R"([x])", R"(error: multiset element fields must be literals, got 'x')"},
    {R"([-x])", R"(error: multiset element fields must be literals, got '-x')"},
    {R"(x)", R"(error: multiset element fields must be literals, got 'x')"},
    {R"([1+1])", R"([int 2])"},
    {R"([2*3, 'a'])", R"([int 6, str 'a'])"},
    {R"([(4)])", R"([int 4])"},
    {R"([--4])", R"([int 4])"},
    {R"([-(-4)])", R"([int 4])"},
    {R"([not true])", R"([bool false])"},
    {R"([1 < 2])", R"([bool true])"},
    {R"(['a' + 1])", R"(error: multiset element fields must be literals, got ''a' + 1')"},
    {R"([1/0])", R"(error: multiset element fields must be literals, got '1 / 0')"},
    {R"([- 'a'])", R"(error: multiset element fields must be literals, got '-'a'')"},
    {R"([1 and true])", R"([bool true])"},
    {R"([true or x])", R"([bool true])"},
    {R"([1,])", R"(error: ParseError at 1:4: expected expression, found ']' ']')"},
    {R"([1 2])", R"(error: ParseError at 1:4: expected ']', found integer '2')"},
    {R"([1)", R"(error: ParseError at 1:3: expected ']', found <end>)"},
    {R"(])", R"(error: ParseError at 1:1: expected expression, found ']' ']')"},
    {R"([])", R"(error: ParseError at 1:2: expected expression, found ']' ']')"},
    {R"([[1]])", R"(error: ParseError at 1:2: expected expression, found '[' '[')"},
    {R"([replace])", R"(error: ParseError at 1:2: expected expression, found 'replace' 'replace')"},
    {R"([1] !)", R"(error: ParseError at 1:5: unexpected '!')"},
    {R"({)", R"(error: ParseError at 1:1: unexpected '{')"},
    {R"([1] $)", R"(error: ParseError at 1:5: unexpected character '$')"},
    {R"([1;2])", R"(error: ParseError at 1:3: expected ']', found ';' ';')"},
    {R"([1 2] [3] $)", R"(error: ParseError at 1:11: unexpected character '$')"},
    {R"([x] $)", R"(error: ParseError at 1:5: unexpected character '$')"},
    {R"([1,] 'abc)", R"(error: ParseError at 1:6: unterminated string literal)"},
    {R"([x] 'abc)", R"(error: ParseError at 1:5: unterminated string literal)"},
    {R"([1] [2 3] [4] !x)", R"(error: ParseError at 1:15: unexpected '!')"},
    {R"([1]
  [x)", R"(error: multiset element fields must be literals, got 'x')"},
    {R"([1]
  [2,,3])", R"(error: ParseError at 2:6: expected expression, found ',' ',')"},
    // A real literal out of double's range is a located ParseError, as an
    // out-of-range int is (it escaped as std::out_of_range "stod" before).
    {R"(1e400)", R"(error: ParseError at 1:1: real literal out of range: 1e400)"},
    {R"(-1e400)", R"(error: ParseError at 1:2: real literal out of range: 1e400)"},
    {R"(1e-400)", R"(error: ParseError at 1:1: real literal out of range: 1e-400)"},
};

TEST(ElementReader, GoldenTable) {
  for (const Golden& g : kGolden) {
    EXPECT_EQ(read(g.text), g.read) << "text: " << g.text;
  }
}

TEST(ElementReader, NestingCapHolds) {
  const auto nested = [](std::size_t depth) {
    return std::string("[")
        .append(depth, '(')
        .append("1")
        .append(depth, ')')
        .append("]");
  };
  EXPECT_EQ(read(nested(256)), "[int 1]");
  EXPECT_EQ(read(nested(300)),
            "error: ParseError at 1:258: nesting deeper than 256");
}

TEST(ElementReader, GoldenTableMatchesTheEagerReader) {
  for (const Golden& g : kGolden) {
    EXPECT_EQ(outcome(eager_parse_elements, g.text), g.read)
        << "text: " << g.text;
  }
}

/// Texts shaped like perfbench's `--init` (ints, labelled pairs, the sieve's
/// scaled ints) and like the serve protocol's injects.
std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  Rng rng(23);
  std::string ints, pairs, bare;
  for (int i = 0; i < 12; ++i) {
    const auto v = static_cast<std::int64_t>(rng.bounded(2001)) - 1000;
    ints.append(i == 0 ? "[" : " [").append(std::to_string(v)).append("]");
    pairs.append(i == 0 ? "[" : " [")
        .append(std::to_string(rng.bounded(1000)))
        .append(",'k")
        .append(std::to_string(i % 64))
        .append("']");
    bare.append(i == 0 ? "" : ", ").append(std::to_string(v * 7));
  }
  corpus.push_back(ints);
  corpus.push_back(pairs);
  corpus.push_back(bare);
  corpus.push_back("[1.5, -2e3, true, nil, 'x y'] [-0.0] [ -7 , 'a' ]");
  corpus.push_back("[3 - -2, 2*3, (4), not false] # note\n[1 < 2, 'b']");
  for (const Golden& g : kGolden) corpus.emplace_back(g.text);
  return corpus;
}

/// One seeded byte mutation: replace, insert, delete or duplicate, drawing
/// new bytes from the characters the element grammar cares about.
std::string mutate(std::string text, Rng& rng) {
  static constexpr std::string_view kBytes =
      "[],'-+*/%<>=!() \n#.eE0123456789xtn_$";
  const auto byte = [&] { return kBytes[rng.bounded(kBytes.size())]; };
  const std::size_t edits = 1 + rng.bounded(3);
  for (std::size_t k = 0; k < edits; ++k) {
    const std::size_t at = text.empty() ? 0 : rng.bounded(text.size() + 1);
    switch (rng.bounded(4)) {
      case 0:
        if (at < text.size()) text[at] = byte();
        break;
      case 1:
        text.insert(at, 1, byte());
        break;
      case 2:
        if (at < text.size()) text.erase(at, 1 + rng.bounded(3));
        break;
      default:
        if (at < text.size()) {
          text.insert(at, text.substr(at, 1 + rng.bounded(8)));
        }
        break;
    }
  }
  return text;
}

TEST(ElementReader, MutatedTextReadsAsTheEagerReaderReadsIt) {
  // Equal multisets in the same order, or the identical error text.
  const std::vector<std::string> corpus = seed_corpus();
  Rng rng(0x5eed);
  std::size_t errors = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const std::string text = mutate(corpus[rng.bounded(corpus.size())], rng);
    const std::string want = outcome(eager_parse_elements, text);
    ASSERT_EQ(read(text), want) << "text: " << text;
    if (want.rfind("error: ", 0) == 0) ++errors;
  }
  // Both outcomes are well represented.
  EXPECT_GT(errors, 1000u);
  EXPECT_LT(errors, 9000u);
}

}  // namespace
}  // namespace gammaflow::gamma::dsl
