#include "query/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/string_util.h"

namespace kaskade::query {

namespace {

enum class TokKind {
  kIdent,
  kInt,
  kFloat,
  kString,
  kPunct,  // ( ) [ ] , . : * - > < = ! and two-char ops
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  /// Magnitude of an integer literal; at most 2^63, so that a leading
  /// '-' can reach INT64_MIN.
  uint64_t int_value = 0;
  double float_value = 0;
};

/// Largest integer-literal magnitude: -2^63 is an int64, 2^63 is not.
constexpr uint64_t kMaxIntMagnitude = uint64_t{1} << 63;

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ >= text_.size()) {
        out.push_back(Token{TokKind::kEof, "", 0, 0});
        return out;
      }
      char c = text_[pos_];
      // Identifiers; a digit run immediately followed by a letter or '_'
      // also lexes as an identifier (edge types like 2_HOP_JOB_TO_JOB).
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
          (std::isdigit(static_cast<unsigned char>(c)) && StartsIdent())) {
        size_t end = pos_;
        while (end < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '_')) {
          ++end;
        }
        out.push_back(Token{TokKind::kIdent, text_.substr(pos_, end - pos_), 0, 0});
        pos_ = end;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t end = pos_;
        while (end < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[end]))) {
          ++end;
        }
        bool is_float = false;
        // A '.' starts a fraction only if followed by a digit ("0..8" must
        // lex as INT RANGE INT). A fraction may carry an exponent
        // ("1.5e-07").
        if (end + 1 < text_.size() && text_[end] == '.' &&
            std::isdigit(static_cast<unsigned char>(text_[end + 1]))) {
          is_float = true;
          end = SkipDigits(end + 1);
          if (end < text_.size() && (text_[end] == 'e' || text_[end] == 'E')) {
            size_t exp = end + 1;
            if (exp < text_.size() &&
                (text_[exp] == '+' || text_[exp] == '-')) {
              ++exp;
            }
            if (exp < text_.size() &&
                std::isdigit(static_cast<unsigned char>(text_[exp]))) {
              end = SkipDigits(exp);
            }
          }
        }
        Token tok;
        std::string digits = text_.substr(pos_, end - pos_);
        const char* first = digits.data();
        const char* last = first + digits.size();
        if (is_float) {
          tok.kind = TokKind::kFloat;
          auto [ptr, ec] = std::from_chars(first, last, tok.float_value);
          if (ec != std::errc() || ptr != last) {
            return Status::InvalidArgument("float literal '" + digits +
                                           "' out of range");
          }
        } else {
          tok.kind = TokKind::kInt;
          auto [ptr, ec] = std::from_chars(first, last, tok.int_value);
          if (ec != std::errc() || ptr != last ||
              tok.int_value > kMaxIntMagnitude) {
            return Status::InvalidArgument("integer literal '" + digits +
                                           "' out of range");
          }
        }
        tok.text = digits;
        out.push_back(std::move(tok));
        pos_ = end;
        continue;
      }
      if (c == '\'') {
        // A doubled quote inside a string stands for one quote.
        std::string value;
        size_t end = pos_ + 1;
        while (true) {
          const size_t quote = text_.find('\'', end);
          if (quote == std::string::npos) {
            return Status::InvalidArgument("unterminated string literal");
          }
          value.append(text_, end, quote - end);
          if (quote + 1 < text_.size() && text_[quote + 1] == '\'') {
            value += '\'';
            end = quote + 2;
            continue;
          }
          end = quote + 1;
          break;
        }
        out.push_back(Token{TokKind::kString, std::move(value), 0, 0});
        pos_ = end;
        continue;
      }
      // Two-char punctuation.
      if (pos_ + 1 < text_.size()) {
        std::string two = text_.substr(pos_, 2);
        if (two == ".." || two == "->" || two == "<>" || two == "<=" ||
            two == ">=" || two == "!=") {
          out.push_back(Token{TokKind::kPunct, two, 0, 0});
          pos_ += 2;
          continue;
        }
      }
      static const std::string kSingles = "()[],.:*-><=;";
      if (kSingles.find(c) != std::string::npos) {
        out.push_back(Token{TokKind::kPunct, std::string(1, c), 0, 0});
        ++pos_;
        continue;
      }
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' in query");
    }
  }

 private:
  /// End of the digit run starting at `from`.
  size_t SkipDigits(size_t from) const {
    while (from < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[from]))) {
      ++from;
    }
    return from;
  }

  /// True when the digit run starting at pos_ runs into a letter or '_'
  /// (then the whole run is an identifier).
  bool StartsIdent() const {
    size_t end = pos_;
    while (end < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[end]))) {
      ++end;
    }
    return end < text_.size() &&
           (std::isalpha(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '_');
  }

  const std::string& text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    KASKADE_ASSIGN_OR_RETURN(Query q, ParseQueryInner());
    // Tolerate a trailing semicolon.
    if (IsPunct(";")) ++pos_;
    if (Peek().kind != TokKind::kEof) {
      return Status::InvalidArgument("trailing tokens after query: '" +
                                     Peek().text + "'");
    }
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool IsKeyword(const char* kw, size_t ahead = 0) const {
    return Peek(ahead).kind == TokKind::kIdent &&
           EqualsIgnoreCase(Peek(ahead).text, kw);
  }

  bool IsPunct(const char* p, size_t ahead = 0) const {
    return Peek(ahead).kind == TokKind::kPunct && Peek(ahead).text == p;
  }

  Status ExpectPunct(const char* p) {
    if (!IsPunct(p)) {
      return Status::InvalidArgument(std::string("expected '") + p +
                                     "' but found '" + Peek().text + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw +
                                     " but found '" + Peek().text + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected identifier but found '" +
                                     Peek().text + "'");
    }
    std::string name = Peek().text;
    ++pos_;
    return name;
  }

  Result<Query> ParseQueryInner() {
    if (IsKeyword("SELECT")) return ParseSelect();
    if (IsKeyword("MATCH")) return ParseMatch();
    return Status::InvalidArgument("query must start with SELECT or MATCH");
  }

  Result<Query> ParseSelect() {
    KASKADE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectQuery select;
    while (true) {
      KASKADE_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      select.items.push_back(std::move(item));
      if (IsPunct(",")) {
        ++pos_;
        continue;
      }
      break;
    }
    KASKADE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    KASKADE_RETURN_IF_ERROR(ExpectPunct("("));
    KASKADE_ASSIGN_OR_RETURN(Query sub, ParseQueryInner());
    select.from = std::make_unique<Query>(std::move(sub));
    KASKADE_RETURN_IF_ERROR(ExpectPunct(")"));
    if (IsKeyword("WHERE")) {
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(select.where, ParseConditions());
    }
    if (IsKeyword("GROUP")) {
      ++pos_;
      KASKADE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        KASKADE_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        select.group_by.push_back(std::move(ref));
        if (IsPunct(",")) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    Query q;
    q.node = std::move(select);
    return q;
  }

  std::optional<AggFunc> AggKeyword() const {
    if (Peek().kind != TokKind::kIdent) return std::nullopt;
    const std::string& t = Peek().text;
    if (EqualsIgnoreCase(t, "SUM")) return AggFunc::kSum;
    if (EqualsIgnoreCase(t, "AVG")) return AggFunc::kAvg;
    if (EqualsIgnoreCase(t, "COUNT")) return AggFunc::kCount;
    if (EqualsIgnoreCase(t, "MIN")) return AggFunc::kMin;
    if (EqualsIgnoreCase(t, "MAX")) return AggFunc::kMax;
    return std::nullopt;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    std::optional<AggFunc> agg = AggKeyword();
    if (agg.has_value() && IsPunct("(", 1)) {
      item.agg = *agg;
      pos_ += 2;
      if (IsPunct("*")) {
        item.star = true;
        ++pos_;
      } else {
        KASKADE_ASSIGN_OR_RETURN(item.ref, ParseColumnRef());
      }
      KASKADE_RETURN_IF_ERROR(ExpectPunct(")"));
    } else {
      KASKADE_ASSIGN_OR_RETURN(item.ref, ParseColumnRef());
    }
    if (IsKeyword("AS")) {
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
    }
    return item;
  }

  Result<ColumnRef> ParseColumnRef() {
    ColumnRef ref;
    KASKADE_ASSIGN_OR_RETURN(ref.base, ExpectIdent());
    if (IsPunct(".")) {
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(ref.property, ExpectIdent());
    }
    return ref;
  }

  Result<std::vector<Condition>> ParseConditions() {
    std::vector<Condition> out;
    while (true) {
      Condition cond;
      KASKADE_ASSIGN_OR_RETURN(cond.lhs, ParseColumnRef());
      if (IsPunct("=")) {
        cond.op = CompareOp::kEq;
      } else if (IsPunct("<>") || IsPunct("!=")) {
        cond.op = CompareOp::kNe;
      } else if (IsPunct("<=")) {
        cond.op = CompareOp::kLe;
      } else if (IsPunct(">=")) {
        cond.op = CompareOp::kGe;
      } else if (IsPunct("<")) {
        cond.op = CompareOp::kLt;
      } else if (IsPunct(">")) {
        cond.op = CompareOp::kGt;
      } else {
        return Status::InvalidArgument("expected comparison operator");
      }
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(cond.rhs, ParseLiteral());
      out.push_back(std::move(cond));
      if (IsKeyword("AND")) {
        ++pos_;
        continue;
      }
      break;
    }
    return out;
  }

  /// A condition's right-hand side: an optionally negated int or float,
  /// a quoted string, `true`, `false` or `null` (the last three in any
  /// case, like keywords).
  Result<graph::PropertyValue> ParseLiteral() {
    const bool negative = IsPunct("-");
    if (negative) ++pos_;
    const Token& lit = Peek();
    ++pos_;
    if (lit.kind == TokKind::kInt) {
      if (negative) {
        // Two's-complement negation reaches -2^63 without overflow.
        return graph::PropertyValue(static_cast<int64_t>(0 - lit.int_value));
      }
      if (lit.int_value == kMaxIntMagnitude) {
        return Status::InvalidArgument("integer literal '" + lit.text +
                                       "' out of range");
      }
      return graph::PropertyValue(static_cast<int64_t>(lit.int_value));
    }
    if (lit.kind == TokKind::kFloat) {
      return graph::PropertyValue(negative ? -lit.float_value
                                           : lit.float_value);
    }
    if (!negative) {
      if (lit.kind == TokKind::kString) return graph::PropertyValue(lit.text);
      if (lit.kind == TokKind::kIdent) {
        if (EqualsIgnoreCase(lit.text, "true")) {
          return graph::PropertyValue(true);
        }
        if (EqualsIgnoreCase(lit.text, "false")) {
          return graph::PropertyValue(false);
        }
        if (EqualsIgnoreCase(lit.text, "null")) return graph::PropertyValue();
      }
    }
    return Status::InvalidArgument("expected literal in condition");
  }

  // -- MATCH ------------------------------------------------------------

  Status AddNode(MatchQuery* m, const NodePattern& node) {
    for (NodePattern& existing : m->nodes) {
      if (existing.name == node.name) {
        if (existing.type.empty()) existing.type = node.type;
        if (!node.type.empty() && !existing.type.empty() &&
            node.type != existing.type) {
          return Status::InvalidArgument("node '" + node.name +
                                         "' declared with conflicting types");
        }
        return Status::OK();
      }
    }
    m->nodes.push_back(node);
    return Status::OK();
  }

  Result<NodePattern> ParseNode() {
    KASKADE_RETURN_IF_ERROR(ExpectPunct("("));
    NodePattern node;
    KASKADE_ASSIGN_OR_RETURN(node.name, ExpectIdent());
    if (IsPunct(":")) {
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(node.type, ExpectIdent());
    }
    KASKADE_RETURN_IF_ERROR(ExpectPunct(")"));
    return node;
  }

  /// Consumes the int token at the cursor as a hop bound.
  Result<int> HopBound() {
    const Token& tok = Peek();
    ++pos_;
    if (tok.int_value >
        static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("hop bound '" + tok.text +
                                     "' out of range");
    }
    return static_cast<int>(tok.int_value);
  }

  /// Parses the bracket part of an edge: `[var][:TYPE][*L..U]`.
  Status ParseEdgeBody(EdgePattern* edge) {
    KASKADE_RETURN_IF_ERROR(ExpectPunct("["));
    if (Peek().kind == TokKind::kIdent) {
      edge->var = Peek().text;
      ++pos_;
    }
    if (IsPunct(":")) {
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(edge->type, ExpectIdent());
      // Accept '-' continuations inside type names (paper's
      // "2_HOP-JOB_TO_JOB" spelling).
      while (IsPunct("-") && Peek(1).kind == TokKind::kIdent) {
        edge->type += "_";
        edge->type += Peek(1).text;
        pos_ += 2;
      }
    }
    if (IsPunct("*")) {
      ++pos_;
      edge->variable_length = true;
      edge->min_hops = 1;
      edge->max_hops = 1;
      if (Peek().kind == TokKind::kInt) {
        KASKADE_ASSIGN_OR_RETURN(edge->min_hops, HopBound());
        edge->max_hops = edge->min_hops;
        if (IsPunct("..")) {
          ++pos_;
          if (Peek().kind != TokKind::kInt) {
            return Status::InvalidArgument("expected upper bound after '..'");
          }
          KASKADE_ASSIGN_OR_RETURN(edge->max_hops, HopBound());
        }
      } else {
        return Status::InvalidArgument(
            "variable-length edge requires explicit bounds *L..U");
      }
      if (edge->min_hops < 0 || edge->max_hops < edge->min_hops) {
        return Status::InvalidArgument("invalid variable-length bounds");
      }
    }
    KASKADE_RETURN_IF_ERROR(ExpectPunct("]"));
    return Status::OK();
  }

  Result<Query> ParseMatch() {
    KASKADE_RETURN_IF_ERROR(ExpectKeyword("MATCH"));
    MatchQuery m;
    // Pattern chains: (a)-[..]->(b)-[..]->(c), separated by commas or
    // juxtaposition.
    while (true) {
      KASKADE_ASSIGN_OR_RETURN(NodePattern left, ParseNode());
      KASKADE_RETURN_IF_ERROR(AddNode(&m, left));
      while (IsPunct("-")) {
        ++pos_;
        EdgePattern edge;
        edge.from = left.name;
        KASKADE_RETURN_IF_ERROR(ParseEdgeBody(&edge));
        KASKADE_RETURN_IF_ERROR(ExpectPunct("->"));
        KASKADE_ASSIGN_OR_RETURN(NodePattern right, ParseNode());
        KASKADE_RETURN_IF_ERROR(AddNode(&m, right));
        edge.to = right.name;
        m.edges.push_back(std::move(edge));
        left = right;
      }
      if (IsPunct(",")) {
        ++pos_;
        continue;
      }
      if (IsPunct("(")) continue;  // juxtaposed chain (Listing 1 style)
      break;
    }
    if (IsKeyword("WHERE")) {
      ++pos_;
      KASKADE_ASSIGN_OR_RETURN(m.where, ParseConditions());
    }
    KASKADE_RETURN_IF_ERROR(ExpectKeyword("RETURN"));
    while (true) {
      ReturnItem item;
      KASKADE_ASSIGN_OR_RETURN(item.variable, ExpectIdent());
      if (IsKeyword("AS")) {
        ++pos_;
        KASKADE_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      }
      m.return_items.push_back(std::move(item));
      if (IsPunct(",")) {
        ++pos_;
        continue;
      }
      break;
    }
    Query q;
    q.node = std::move(m);
    return q;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQueryText(const std::string& text) {
  Lexer lexer(text);
  KASKADE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

}  // namespace kaskade::query
