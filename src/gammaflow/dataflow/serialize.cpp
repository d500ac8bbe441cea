#include "gammaflow/dataflow/serialize.hpp"

#include <charconv>
#include <map>
#include <ostream>
#include <sstream>

#include "gammaflow/expr/lexer.hpp"

namespace gammaflow::dataflow {
namespace {

void write_value(std::ostream& os, const Value& v) {
  // Value's stream form is already unambiguous: ints bare, reals with a
  // decimal marker, strings single-quoted, bools true/false, nil.
  os << v;
}

std::string quote(const std::string& s) { return "'" + s + "'"; }

// Splits a line into whitespace-separated key=value fields, honoring single
// quotes in values.
std::map<std::string, std::string> parse_fields(const std::string& line,
                                                int line_no) {
  std::map<std::string, std::string> fields;
  std::size_t i = 0;
  const auto n = line.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= n) break;
    const std::size_t key_start = i;
    while (i < n && line[i] != '=' &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= n || line[i] != '=') {
      throw ParseError("expected key=value field", line_no,
                       static_cast<int>(key_start + 1));
    }
    const std::string key = line.substr(key_start, i - key_start);
    ++i;  // '='
    std::string value;
    if (i < n && line[i] == '\'') {
      // Keep the quotes so consumers can distinguish the string '5' from
      // the integer 5; unquote() strips them.
      value += line[i++];
      while (i < n && line[i] != '\'') value += line[i++];
      if (i >= n) {
        throw ParseError("unterminated quoted value", line_no,
                         static_cast<int>(key_start + 1));
      }
      value += line[i++];  // closing quote
    } else {
      while (i < n && !std::isspace(static_cast<unsigned char>(line[i]))) {
        value += line[i++];
      }
    }
    fields[key] = value;
  }
  return fields;
}

std::string unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '\'' && s.back() == '\'') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

Value parse_value(const std::string& s, int line_no) {
  if (!s.empty() && s.front() == '\'') return Value(unquote(s));
  if (s == "nil") return {};
  if (s == "true") return Value(true);
  if (s == "false") return Value(false);
  if (!s.empty() &&
      (std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '-')) {
    return expr::decode_number(s, line_no, 1);
  }
  throw ParseError("cannot decode value '" + s + "'", line_no, 1);
}

expr::BinOp parse_op(const std::string& s, int line_no) {
  using expr::BinOp;
  static const std::map<std::string, BinOp> ops = {
      {"+", BinOp::Add}, {"-", BinOp::Sub},  {"*", BinOp::Mul},
      {"/", BinOp::Div}, {"%", BinOp::Mod},  {"<", BinOp::Lt},
      {"<=", BinOp::Le}, {">", BinOp::Gt},   {">=", BinOp::Ge},
      {"==", BinOp::Eq}, {"!=", BinOp::Ne},
  };
  auto it = ops.find(s);
  if (it == ops.end()) throw ParseError("unknown operator '" + s + "'", line_no, 1);
  return it->second;
}

NodeKind parse_kind(const std::string& s, int line_no) {
  static const std::map<std::string, NodeKind> kinds = {
      {"const", NodeKind::Const},   {"arith", NodeKind::Arith},
      {"cmp", NodeKind::Cmp},       {"steer", NodeKind::Steer},
      {"inctag", NodeKind::IncTag}, {"dectag", NodeKind::DecTag},
      {"output", NodeKind::Output},
  };
  auto it = kinds.find(s);
  if (it == kinds.end()) {
    throw ParseError("unknown node kind '" + s + "'", line_no, 1);
  }
  return it->second;
}

template <typename T>
T parse_uint(const std::map<std::string, std::string>& fields,
             const std::string& key, int line_no) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    throw ParseError("missing field '" + key + "'", line_no, 1);
  }
  T v{};
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("bad integer in field '" + key + "'", line_no, 1);
  }
  return v;
}

}  // namespace

void write_text(std::ostream& os, const Graph& graph) {
  os << "dataflow v1\n";
  for (const Node& n : graph.nodes()) {
    os << "node kind=" << to_string(n.kind);
    if (n.kind == NodeKind::Arith || n.kind == NodeKind::Cmp) {
      os << " op=" << expr::to_string(n.op);
      if (n.has_immediate) {
        os << " imm=";
        write_value(os, n.constant);
      }
    }
    if (n.kind == NodeKind::Const) {
      os << " value=";
      write_value(os, n.constant);
    }
    if (!n.name.empty()) os << " name=" << quote(n.name);
    os << '\n';
  }
  for (const Edge& e : graph.edges()) {
    os << "edge src=" << e.src << " sport=" << e.src_port << " dst=" << e.dst
       << " dport=" << e.dst_port << " label=" << quote(e.label) << '\n';
  }
}

Graph parse_text(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  int line_no = 0;
  GraphBuilder builder;
  bool saw_header = false;

  while (std::getline(is, line)) {
    ++line_no;
    // strip comments and blanks
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const auto first =
        line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;

    if (!saw_header) {
      if (line.substr(first, 11) != "dataflow v1") {
        throw ParseError("expected 'dataflow v1' header", line_no, 1);
      }
      saw_header = true;
      continue;
    }

    std::istringstream ls(line);
    std::string word;
    ls >> word;
    std::string rest;
    std::getline(ls, rest);
    const auto fields = parse_fields(rest, line_no);

    if (word == "node") {
      auto kind_it = fields.find("kind");
      if (kind_it == fields.end()) {
        throw ParseError("node line missing kind", line_no, 1);
      }
      Node n;
      n.kind = parse_kind(kind_it->second, line_no);
      if (auto it = fields.find("op"); it != fields.end()) {
        n.op = parse_op(it->second, line_no);
      }
      if (auto it = fields.find("value"); it != fields.end()) {
        n.constant = parse_value(it->second, line_no);
      }
      if (auto it = fields.find("imm"); it != fields.end()) {
        n.constant = parse_value(it->second, line_no);
        n.has_immediate = true;
      }
      if (auto it = fields.find("name"); it != fields.end()) {
        n.name = unquote(it->second);
      }
      builder.add_node(std::move(n));
    } else if (word == "edge") {
      auto label_it = fields.find("label");
      const std::string label =
          label_it == fields.end() ? std::string{} : unquote(label_it->second);
      builder.connect(
          GraphBuilder::Port{parse_uint<NodeId>(fields, "src", line_no),
                             parse_uint<PortId>(fields, "sport", line_no)},
          parse_uint<NodeId>(fields, "dst", line_no),
          parse_uint<PortId>(fields, "dport", line_no), label);
    } else {
      throw ParseError("unknown directive '" + word + "'", line_no, 1);
    }
  }
  if (!saw_header) throw ParseError("empty graph text", 1, 1);
  return std::move(builder).build();
}

}  // namespace gammaflow::dataflow
