#include "gammaflow/expr/lexer.hpp"

#include <charconv>
#include <string>

namespace gammaflow::expr {

const char* to_string(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::End: return "<end>";
    case TokenKind::Ident: return "identifier";
    case TokenKind::IntLit: return "integer";
    case TokenKind::RealLit: return "real";
    case TokenKind::StrLit: return "string";
    case TokenKind::KwReplace: return "'replace'";
    case TokenKind::KwBy: return "'by'";
    case TokenKind::KwIf: return "'if'";
    case TokenKind::KwElse: return "'else'";
    case TokenKind::KwWhere: return "'where'";
    case TokenKind::KwAnd: return "'and'";
    case TokenKind::KwOr: return "'or'";
    case TokenKind::KwNot: return "'not'";
    case TokenKind::KwTrue: return "'true'";
    case TokenKind::KwFalse: return "'false'";
    case TokenKind::KwNil: return "'nil'";
    case TokenKind::Plus: return "'+'";
    case TokenKind::Minus: return "'-'";
    case TokenKind::Star: return "'*'";
    case TokenKind::Slash: return "'/'";
    case TokenKind::Percent: return "'%'";
    case TokenKind::Lt: return "'<'";
    case TokenKind::Le: return "'<='";
    case TokenKind::Gt: return "'>'";
    case TokenKind::Ge: return "'>='";
    case TokenKind::EqEq: return "'=='";
    case TokenKind::Ne: return "'!='";
    case TokenKind::Assign: return "'='";
    case TokenKind::Comma: return "','";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::Pipe: return "'|'";
    case TokenKind::Semicolon: return "';'";
    case TokenKind::KwFor: return "'for'";
    case TokenKind::KwWhile: return "'while'";
    case TokenKind::KwOutput: return "'output'";
    case TokenKind::KwVar: return "'var'";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::PlusPlus: return "'++'";
    case TokenKind::MinusMinus: return "'--'";
    case TokenKind::PlusEq: return "'+='";
    case TokenKind::MinusEq: return "'-='";
  }
  return "?";
}

namespace {

struct Keyword {
  std::string_view word;  // lower case
  TokenKind kind;
};

constexpr Keyword kKeywords[] = {
    {"replace", TokenKind::KwReplace}, {"by", TokenKind::KwBy},
    {"if", TokenKind::KwIf},           {"else", TokenKind::KwElse},
    {"where", TokenKind::KwWhere},     {"and", TokenKind::KwAnd},
    {"or", TokenKind::KwOr},           {"not", TokenKind::KwNot},
    {"true", TokenKind::KwTrue},       {"false", TokenKind::KwFalse},
    {"nil", TokenKind::KwNil},
};

// The frontend's keywords; type words are interchangeable with 'var'.
constexpr Keyword kImperative[] = {
    {"for", TokenKind::KwFor}, {"while", TokenKind::KwWhile},
    {"output", TokenKind::KwOutput},
    {"var", TokenKind::KwVar}, {"int", TokenKind::KwVar},
    {"real", TokenKind::KwVar}, {"bool", TokenKind::KwVar},
};

// The "C" locale's classes, spelled out so they inline.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
bool is_ident(char c) { return is_ident_start(c) || is_digit(c); }

/// Case-insensitive: the paper's listings mix "if"/"If".
bool spells(std::string_view ident, std::string_view lower) {
  if (ident.size() != lower.size()) return false;
  for (std::size_t i = 0; i < ident.size(); ++i) {
    const char c = ident[i];
    if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) !=
        lower[i]) {
      return false;
    }
  }
  return true;
}

TokenKind keyword_kind(std::string_view ident, LexMode mode) {
  if (mode == LexMode::Imperative) {
    for (const Keyword& k : kImperative) {
      if (spells(ident, k.word)) return k.kind;
    }
  }
  for (const Keyword& k : kKeywords) {
    if (spells(ident, k.word)) return k.kind;
  }
  return TokenKind::Ident;
}

/// Where the numeral starting with a digit at s[pos] ends, and whether it
/// is real: digits, then an optional fraction ('.' and a digit) and an
/// optional exponent ('e' or 'E', an optional sign, a digit).
struct Numeral {
  std::size_t end;
  bool is_real;
};

Numeral scan_numeral(std::string_view s, std::size_t pos) {
  const auto at = [s](std::size_t i) { return i < s.size() ? s[i] : '\0'; };
  bool is_real = false;
  while (is_digit(at(pos))) ++pos;
  if (at(pos) == '.' && is_digit(at(pos + 1))) {
    is_real = true;
    ++pos;
    while (is_digit(at(pos))) ++pos;
  }
  if (at(pos) == 'e' || at(pos) == 'E') {
    const char sign = at(pos + 1);
    const bool signed_exp = sign == '+' || sign == '-';
    if (is_digit(signed_exp ? at(pos + 2) : sign)) {
      is_real = true;
      pos += signed_exp ? 2 : 1;
      while (is_digit(at(pos))) ++pos;
    }
  }
  return {pos, is_real};
}

/// Decodes a scanned numeral's spelling, after an optional '-'. Raises
/// ParseError at (line, column) when the value is out of range.
Value decode_numeral(const std::string& spelling, bool is_real, int line,
                     int column) {
  const char* const end = spelling.data() + spelling.size();
  if (is_real) {
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(spelling.data(), end, d);
    if (ec != std::errc{} || ptr != end) {
      throw ParseError("real literal out of range: " + spelling, line, column);
    }
    return Value(d);
  }
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(spelling.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw ParseError("integer literal out of range: " + spelling, line,
                     column);
  }
  return Value(v);
}

}  // namespace

Value decode_number(std::string_view text, int line, int column) {
  const std::size_t start = !text.empty() && text.front() == '-' ? 1 : 0;
  const Numeral numeral = scan_numeral(text, start);
  if (start == text.size() || !is_digit(text[start]) ||
      numeral.end != text.size()) {
    throw ParseError("malformed number: " + std::string(text), line, column);
  }
  return decode_numeral(std::string(text), numeral.is_real, line, column);
}

void Lexer::fail(const std::string& what, int line, int column) {
  pos_ = src_.size();
  throw ParseError(what, line, column);
}

void Lexer::next(Token& out) {
  const bool imperative = mode_ == LexMode::Imperative;
  while (pos_ < src_.size()) {
    const char c = peek();
    if (c == '\n') {
      ++line_;
      line_start_ = ++pos_;
    } else if (is_space(c)) {
      ++pos_;
    } else if (c == '#' || (imperative && c == '/' && peek(1) == '/')) {
      while (pos_ < src_.size() && peek() != '\n') ++pos_;  // line comment
    } else {
      break;
    }
  }

  const int line = line_;
  const int column = static_cast<int>(pos_ - line_start_) + 1;
  const std::size_t start = pos_;
  out.line = line;
  out.column = column;
  out.value = Value();
  // The token's spelling is the source slice it covers.
  const auto spelled = [&](TokenKind kind) {
    out.kind = kind;
    out.text.assign(src_.substr(start, pos_ - start));
  };
  if (pos_ >= src_.size()) {
    out.kind = TokenKind::End;
    out.text.clear();
    return;
  }

  const char c = peek();
  if (is_ident_start(c)) {
    while (is_ident(peek())) ++pos_;
    spelled(keyword_kind(src_.substr(start, pos_ - start), mode_));
    if (out.kind == TokenKind::KwTrue) out.value = Value(true);
    if (out.kind == TokenKind::KwFalse) out.value = Value(false);
    return;
  }
  if (is_digit(c)) {
    const Numeral numeral = scan_numeral(src_, pos_);
    pos_ = numeral.end;
    spelled(numeral.is_real ? TokenKind::RealLit : TokenKind::IntLit);
    try {
      out.value = decode_numeral(out.text, numeral.is_real, line, column);
    } catch (const ParseError&) {
      pos_ = src_.size();
      throw;
    }
    return;
  }
  if (c == '\'') {
    ++pos_;
    while (pos_ < src_.size() && peek() != '\'') {
      if (peek() == '\n') fail("unterminated string literal", line, column);
      ++pos_;
    }
    if (pos_ >= src_.size()) fail("unterminated string literal", line, column);
    out.kind = TokenKind::StrLit;
    out.text.assign(src_.substr(start + 1, pos_ - start - 1));
    out.value = Value(out.text);
    ++pos_;  // closing quote
    return;
  }

  ++pos_;
  // A one-character token, or two when `second` follows.
  const auto pair = [&](char second, TokenKind two, TokenKind one) {
    if (peek() == second) {
      ++pos_;
      return two;
    }
    return one;
  };
  TokenKind kind = TokenKind::End;
  switch (c) {
    case '+':
      kind = TokenKind::Plus;
      if (imperative) {
        kind = peek() == '+' ? pair('+', TokenKind::PlusPlus, kind)
                             : pair('=', TokenKind::PlusEq, kind);
      }
      break;
    case '-':
      kind = TokenKind::Minus;
      if (imperative) {
        kind = peek() == '-' ? pair('-', TokenKind::MinusMinus, kind)
                             : pair('=', TokenKind::MinusEq, kind);
      }
      break;
    case '{':
      if (!imperative) fail("unexpected '{'", line, column);
      kind = TokenKind::LBrace;
      break;
    case '}':
      if (!imperative) fail("unexpected '}'", line, column);
      kind = TokenKind::RBrace;
      break;
    case '*': kind = TokenKind::Star; break;
    case '/': kind = TokenKind::Slash; break;
    case '%': kind = TokenKind::Percent; break;
    case ',': kind = TokenKind::Comma; break;
    case '[': kind = TokenKind::LBracket; break;
    case ']': kind = TokenKind::RBracket; break;
    case '(': kind = TokenKind::LParen; break;
    case ')': kind = TokenKind::RParen; break;
    case '|': kind = TokenKind::Pipe; break;
    case ';': kind = TokenKind::Semicolon; break;
    case '<': kind = pair('=', TokenKind::Le, TokenKind::Lt); break;
    case '>': kind = pair('=', TokenKind::Ge, TokenKind::Gt); break;
    case '=': kind = pair('=', TokenKind::EqEq, TokenKind::Assign); break;
    case '!':
      if (peek() != '=') fail("unexpected '!'", line, column);
      ++pos_;
      kind = TokenKind::Ne;
      break;
    default:
      fail(std::string("unexpected character '") + c + "'", line, column);
  }
  spelled(kind);
}

void Lexer::drain() {
  Token t;
  do {
    next(t);
  } while (t.kind != TokenKind::End);
}

std::vector<Token> tokenize(std::string_view source, LexMode mode) {
  std::vector<Token> tokens;
  Lexer lexer(source, mode);
  do {
    lexer.next(tokens.emplace_back());
  } while (tokens.back().kind != TokenKind::End);
  return tokens;
}

}  // namespace gammaflow::expr
