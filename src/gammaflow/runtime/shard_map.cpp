#include "gammaflow/runtime/shard_map.hpp"

#include <algorithm>

#include "gammaflow/expr/ast.hpp"

namespace gammaflow::runtime {
namespace {

/// The pattern's label when it follows the [value, 'label', ...] convention
/// (>= 2 fields, field 1 a literal string); nullopt otherwise.
std::optional<std::string> pattern_label(const gamma::Pattern& p) {
  const auto& fields = p.fields();
  if (fields.size() < 2) return std::nullopt;
  const gamma::PatternField& f = fields[1];
  if (f.is_binder() || !f.value().is_str()) return std::nullopt;
  return f.value().as_str();
}

/// The output tuple's label when field 1 is a string LITERAL expression;
/// nullopt for anything dynamic (a computed label defeats static routing).
std::optional<std::string> output_label(
    const std::vector<expr::ExprPtr>& tuple) {
  if (tuple.size() < 2) return std::nullopt;
  const expr::ExprPtr& field1 = tuple[1];
  if (field1 == nullptr || field1->kind() != expr::Expr::Kind::Literal ||
      !field1->literal().is_str()) {
    return std::nullopt;
  }
  return field1->literal().as_str();
}

}  // namespace

std::optional<std::size_t> ShardMap::home(const gamma::Element& e) const {
  if (label_shard_.empty()) return std::nullopt;
  if (e.arity() < 2 || !e.field(1).is_str()) return std::nullopt;
  const auto it = label_shard_.find(e.field(1).as_str());
  if (it == label_shard_.end()) return std::nullopt;
  return it->second % shards_;
}

ShardPlan plan_shards(const std::vector<gamma::Reaction>& stage,
                      const std::map<std::string, std::size_t>& conflict_classes) {
  ShardPlan plan;
  if (conflict_classes.empty() || stage.size() < 2) return plan;

  // Rule 1: full coverage; collect each reaction's class.
  std::vector<std::size_t> cls(stage.size());
  for (std::size_t i = 0; i < stage.size(); ++i) {
    const auto it = conflict_classes.find(stage[i].name());
    if (it == conflict_classes.end()) return plan;
    cls[i] = it->second;
  }

  // Rules 2 + 3: label-literal patterns, one class per consumed label.
  std::unordered_map<std::string, std::size_t> label_class;
  for (std::size_t i = 0; i < stage.size(); ++i) {
    for (const gamma::Pattern& p : stage[i].patterns()) {
      const auto label = pattern_label(p);
      if (!label) return plan;
      const auto [it, inserted] = label_class.emplace(*label, cls[i]);
      if (!inserted && it->second != cls[i]) return plan;
    }
  }

  // Rule 4: literal output labels; a produced label someone consumes must
  // stay in the producer's class. Labels nobody consumes are inert under
  // rule 2 (every pattern demands a mapped label) and may land anywhere.
  for (std::size_t i = 0; i < stage.size(); ++i) {
    for (const gamma::Branch& b : stage[i].branches()) {
      for (const auto& tuple : b.outputs) {
        const auto label = output_label(tuple);
        if (!label) return plan;
        const auto it = label_class.find(*label);
        if (it != label_class.end() && it->second != cls[i]) return plan;
      }
    }
  }

  // Renumber the classes present into dense shard ids.
  std::map<std::size_t, std::size_t> shard_of_class;
  for (const std::size_t c : cls) {
    shard_of_class.emplace(c, shard_of_class.size());
  }
  if (shard_of_class.size() < 2) return plan;

  plan.sharded = true;
  plan.shard_count = shard_of_class.size();
  plan.reaction_shard.reserve(stage.size());
  for (const std::size_t c : cls) {
    plan.reaction_shard.push_back(shard_of_class.at(c));
  }
  for (const auto& [label, c] : label_class) {
    plan.label_shard.emplace(label, shard_of_class.at(c));
  }
  return plan;
}

}  // namespace gammaflow::runtime
