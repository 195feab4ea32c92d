#include "query/ast.h"

#include <charconv>
#include <cmath>

namespace kaskade::query {

namespace {

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "";
}

const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

/// `v` as the parser reads it back: strings quoted with inner quotes
/// doubled, doubles at round-trip precision with a '.' in the mantissa
/// (so they never read back as ints). NaN and the infinities have no
/// literal and render as `nan` / `inf`, which do not parse.
std::string RenderLiteral(const graph::PropertyValue& v) {
  if (v.is_string()) {
    std::string out = "'";
    for (char c : v.as_string()) {
      out += c;
      if (c == '\'') out += '\'';
    }
    return out + "'";
  }
  if (!v.is_double() || !std::isfinite(v.as_double())) return v.ToString();
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, v.as_double());
  std::string out(buf, result.ptr);
  if (out.find('.') == std::string::npos) {
    const size_t exp = out.find('e');
    out.insert(exp == std::string::npos ? out.size() : exp, ".0");
  }
  return out;
}

std::string RenderConditions(const std::vector<Condition>& where) {
  std::string out;
  for (size_t i = 0; i < where.size(); ++i) {
    if (i > 0) out += " AND ";
    out += where[i].lhs.ToString();
    out += " ";
    out += OpName(where[i].op);
    out += " ";
    out += RenderLiteral(where[i].rhs);
  }
  return out;
}

std::string RenderMatch(const MatchQuery& m) {
  std::string out = "MATCH ";
  auto render_node = [&](const std::string& name) {
    const NodePattern* n = m.FindNode(name);
    std::string s = "(" + name;
    if (n != nullptr && !n->type.empty()) s += ":" + n->type;
    return s + ")";
  };
  for (size_t i = 0; i < m.edges.size(); ++i) {
    const EdgePattern& e = m.edges[i];
    if (i > 0) out += " ";
    out += render_node(e.from);
    out += "-[";
    out += e.var;
    if (!e.type.empty()) out += ":" + e.type;
    if (e.variable_length) {
      out += "*" + std::to_string(e.min_hops) + ".." + std::to_string(e.max_hops);
    }
    out += "]->";
    out += render_node(e.to);
  }
  if (m.edges.empty() && !m.nodes.empty()) {
    for (size_t i = 0; i < m.nodes.size(); ++i) {
      if (i > 0) out += " ";
      out += render_node(m.nodes[i].name);
    }
  }
  if (!m.where.empty()) out += " WHERE " + RenderConditions(m.where);
  out += " RETURN ";
  for (size_t i = 0; i < m.return_items.size(); ++i) {
    if (i > 0) out += ", ";
    out += m.return_items[i].variable;
    if (!m.return_items[i].alias.empty()) {
      out += " AS " + m.return_items[i].alias;
    }
  }
  return out;
}

std::string RenderSelect(const SelectQuery& s) {
  std::string out = "SELECT ";
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = s.items[i];
    if (item.agg != AggFunc::kNone) {
      out += std::string(AggName(item.agg)) + "(" +
             (item.star ? "*" : item.ref.ToString()) + ")";
    } else {
      out += item.ref.ToString();
    }
    if (!item.alias.empty()) out += " AS " + item.alias;
  }
  out += " FROM (" + s.from->ToString() + ")";
  if (!s.where.empty()) out += " WHERE " + RenderConditions(s.where);
  if (!s.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += s.group_by[i].ToString();
    }
  }
  return out;
}

}  // namespace

std::string SelectItem::OutputName() const {
  if (!alias.empty()) return alias;
  if (agg != AggFunc::kNone) {
    return std::string(AggName(agg)) + "(" + (star ? "*" : ref.ToString()) + ")";
  }
  return ref.ToString();
}

Query Query::Clone() const {
  Query out;
  if (is_match()) {
    out.node = match();  // MatchQuery is value-copyable
  } else {
    const SelectQuery& s = select();
    SelectQuery copy;
    copy.items = s.items;
    copy.where = s.where;
    copy.group_by = s.group_by;
    copy.from = std::make_unique<Query>(s.from->Clone());
    out.node = std::move(copy);
  }
  return out;
}

const MatchQuery* Query::InnermostMatch() const {
  if (is_match()) return &match();
  const SelectQuery& s = select();
  return s.from == nullptr ? nullptr : s.from->InnermostMatch();
}

MatchQuery* Query::MutableInnermostMatch() {
  if (is_match()) return &match();
  SelectQuery& s = select();
  return s.from == nullptr ? nullptr : s.from->MutableInnermostMatch();
}

std::string Query::ToString() const {
  return is_match() ? RenderMatch(match()) : RenderSelect(select());
}

}  // namespace kaskade::query
