#include "gammaflow/gamma/reaction.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <set>
#include <sstream>

#include "gammaflow/common/error.hpp"
#include "gammaflow/expr/eval.hpp"

namespace gammaflow::gamma {

CompiledReaction::CompiledReaction(const Reaction& reaction) {
  const auto t0 = std::chrono::steady_clock::now();
  joins_.resize(reaction.patterns().size());
  field_ops_.resize(reaction.patterns().size());
  // Slot -> the (pattern, field) that binds it first; past the uint16 range
  // the field reads as kNoField, which no join field equals.
  std::vector<std::pair<std::uint16_t, std::uint16_t>> bound_at;
  for (std::size_t d = 0; d < reaction.patterns().size(); ++d) {
    const std::size_t outer_slots = slots_.size();
    const auto& fields = reaction.patterns()[d].fields();
    std::vector<FieldOp>& ops = field_ops_[d];
    ops.reserve(fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const PatternField& f = fields[i];
      if (!f.is_binder()) {
        ops.push_back(FieldOp{FieldOp::Kind::Lit,
                              static_cast<std::uint32_t>(literals_.size())});
        literals_.push_back(f.value());
        continue;
      }
      const auto it = std::find(slots_.begin(), slots_.end(), f.name());
      const auto slot = static_cast<std::size_t>(it - slots_.begin());
      ops.push_back(FieldOp{
          it == slots_.end() ? FieldOp::Kind::Bind : FieldOp::Kind::Eq,
          static_cast<std::uint32_t>(slot)});
      // A field or slot past the uint16 range keeps the base-bucket scan.
      if (slot < outer_slots &&
          std::max(i, slot) < BatchPlan::kNoField) {
        joins_[d].push_back(JoinField{static_cast<std::uint16_t>(i),
                                      static_cast<std::uint16_t>(slot),
                                      bound_at[slot].first,
                                      bound_at[slot].second});
      } else if (it == slots_.end()) {
        slots_.push_back(f.name());
        const bool fits = std::max(d, i) < BatchPlan::kNoField;
        bound_at.emplace_back(static_cast<std::uint16_t>(fits ? d : 0),
                              fits ? static_cast<std::uint16_t>(i)
                                   : BatchPlan::kNoField);
      }
    }
  }
  pattern_literals_ = literals_.size();
  const std::span<const std::string> slot_span(slots_);
  branches_.reserve(reaction.branches().size());
  for (const Branch& br : reaction.branches()) {
    BranchCode bc;
    bc.is_else = br.is_else;
    if (br.condition) bc.condition = expr::compile(br.condition, slot_span);
    for (const auto& tuple : br.outputs) {
      for (const auto& field : tuple) {
        expr::Chunk chunk = expr::compile(field, slot_span);
        // A bare load (one load, then its return) produces a slot's value or
        // a constant as it is.
        const auto& code = chunk.code;
        const bool bare = code.size() == 2 && code[1].op == expr::OpCode::Ret &&
                          code[1].a == code[0].dst;
        if (bare && code[0].op == expr::OpCode::LoadSlot) {
          bc.fields.push_back({OutputField::Kind::Slot, code[0].a});
        } else if (bare && code[0].op == expr::OpCode::LoadConst) {
          bc.fields.push_back({OutputField::Kind::Literal,
                               static_cast<std::uint32_t>(literals_.size())});
          literals_.push_back(chunk.consts[code[0].a]);
        } else {
          bc.fields.push_back(
              {OutputField::Kind::Computed,
               static_cast<std::uint32_t>(bc.chunks.size())});
        }
        bc.chunks.push_back(std::move(chunk));
      }
    }
    branches_.push_back(std::move(bc));
  }
  build_batch_plan(reaction);
  compile_ms_ = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
}

void CompiledReaction::build_batch_plan(const Reaction& reaction) {
  const Pattern& inner = reaction.patterns().back();
  BatchPlan plan;
  plan.arity = inner.arity();
  plan.slot_is_vector.assign(slots_.size(), 0);

  const auto slot_index = [&](const std::string& name) {
    const auto it = std::find(slots_.begin(), slots_.end(), name);
    return static_cast<std::uint16_t>(it - slots_.begin());
  };

  // A binder already bound by an OUTER pattern (an innermost join field)
  // reaches the innermost match as an equality constraint (broadcast
  // scalar); one first bound by the innermost pattern itself becomes a lane
  // column.
  std::vector<std::uint8_t> outer_bound(slots_.size(), 0);
  for (const JoinField& j : joins_.back()) outer_bound[j.slot] = 1;

  if (const auto key = inner.key_field()) {
    plan.key_field = static_cast<std::uint16_t>(*key);
  }

  using Check = BatchPlan::FieldCheck;
  std::vector<std::uint16_t> first_field(slots_.size(), BatchPlan::kNoField);
  const auto& fields = inner.fields();
  const std::vector<FieldOp>& inner_ops = field_ops_.back();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const PatternField& f = fields[i];
    const auto fi = static_cast<std::uint16_t>(i);
    if (!f.is_binder()) {
      if (const std::int64_t* v = f.value().if_int()) {
        plan.checks.emplace_back(Check::Kind::LitInt, fi, 0, 0, *v);
      } else {
        plan.checks.emplace_back(Check::Kind::Lit, fi, 0, 0,
                                 std::int64_t{inner_ops[i].index});
      }
      continue;
    }
    const std::uint16_t s = slot_index(f.name());
    if (outer_bound[s] != 0) {
      plan.checks.emplace_back(Check::Kind::EqSlot, fi, 0, s);
    } else if (first_field[s] != BatchPlan::kNoField) {
      plan.checks.emplace_back(Check::Kind::EqField, fi, first_field[s]);
    } else {
      first_field[s] = fi;
      plan.vector_slots.push_back(BatchPlan::VectorSlot{s, fi});
      plan.slot_is_vector[s] = 1;
    }
  }

  // Batch-compile every guard; any refusal disables the plan wholesale —
  // mixing lane bitmaps with scalar branch probes cannot preserve the
  // first-firing-branch order.
  plan.cond_slot_used.assign(slots_.size(), 0);
  plan.conditions.reserve(branches_.size());
  for (const BranchCode& bc : branches_) {
    if (!bc.condition) {
      plan.conditions.emplace_back(std::nullopt);
      continue;
    }
    auto batch = expr::compile_batch(*bc.condition, plan.slot_is_vector);
    if (!batch) return;  // not batchable: leave batch_ empty
    for (std::size_t s = 0; s < batch->slot_used.size(); ++s) {
      if (batch->slot_used[s] != 0) plan.cond_slot_used[s] = 1;
    }
    plan.conditions.emplace_back(std::move(*batch));
  }
  batch_ = std::move(plan);
}

std::size_t CompiledReaction::instr_count() const noexcept {
  std::size_t n = 0;
  for (const BranchCode& bc : branches_) {
    if (bc.condition) n += bc.condition->code.size();
    for (const expr::Chunk& c : bc.chunks) n += c.code.size();
  }
  return n;
}

std::optional<std::uint32_t> CompiledReaction::select(
    std::span<const Value* const> slots, expr::Vm& vm) const {
  for (std::uint32_t firing = 0; firing < branches_.size(); ++firing) {
    const BranchCode& bc = branches_[firing];
    if (bc.is_else || !bc.condition) return firing;
    if (vm.run(*bc.condition, slots).truthy()) return firing;
  }
  return std::nullopt;
}

Reaction::Reaction(std::string name, std::vector<Pattern> patterns,
                   std::vector<Branch> branches)
    : name_(std::move(name)),
      patterns_(std::move(patterns)),
      branches_(std::move(branches)) {
  validate();
  compiled_ = std::make_shared<const CompiledReaction>(*this);
}

void Reaction::validate() const {
  if (patterns_.empty()) {
    throw ProgramError("reaction '" + name_ + "' has an empty replace list");
  }
  if (branches_.empty()) {
    throw ProgramError("reaction '" + name_ + "' has no by clause");
  }
  std::set<std::string> bound;
  for (const Pattern& p : patterns_) {
    if (p.arity() == 0) {
      throw ProgramError("reaction '" + name_ + "' has an empty pattern");
    }
    for (const std::string& b : p.binders()) bound.insert(b);
  }
  for (std::size_t i = 0; i < branches_.size(); ++i) {
    const Branch& br = branches_[i];
    if (br.is_else && i + 1 != branches_.size()) {
      throw ProgramError("reaction '" + name_ + "': else branch must be last");
    }
    if (br.is_else && br.condition) {
      throw ProgramError("reaction '" + name_ +
                         "': else branch cannot carry a condition");
    }
    if (!br.is_else && !br.condition && branches_.size() > 1) {
      throw ProgramError(
          "reaction '" + name_ +
          "': an unconditional branch cannot coexist with other branches");
    }
    auto check_vars = [&](const expr::ExprPtr& e, const char* where) {
      for (const std::string& v : e->free_vars()) {
        if (!bound.contains(v)) {
          throw ProgramError("reaction '" + name_ + "': " + where +
                             " references unbound variable '" + v + "'");
        }
      }
    };
    if (br.condition) check_vars(br.condition, "condition");
    for (const auto& tuple : br.outputs) {
      if (tuple.empty()) {
        throw ProgramError("reaction '" + name_ + "' produces an empty tuple");
      }
      for (const auto& field : tuple) check_vars(field, "output");
    }
  }
}

bool Reaction::match(std::span<const Element* const> elements,
                     expr::Env& env) const {
  if (elements.size() != patterns_.size()) return false;
  env.clear();
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    if (!patterns_[i].match(*elements[i], env)) return false;
  }
  return true;
}

std::optional<std::vector<Element>> Reaction::apply(const expr::Env& env) const {
  const Branch* firing = nullptr;
  for (const Branch& br : branches_) {
    if (br.is_else || !br.condition) {
      firing = &br;
      break;
    }
    if (expr::eval(br.condition, env).truthy()) {
      firing = &br;
      break;
    }
  }
  if (!firing) return std::nullopt;

  std::vector<Element> produced;
  produced.reserve(firing->outputs.size());
  for (const auto& tuple : firing->outputs) {
    std::vector<Value> fields;
    fields.reserve(tuple.size());
    for (const auto& field : tuple) fields.push_back(expr::eval(field, env));
    produced.emplace_back(std::move(fields));
  }
  return produced;
}

bool Reaction::is_shrinking() const noexcept {
  return std::all_of(branches_.begin(), branches_.end(), [&](const Branch& br) {
    return br.outputs.size() < patterns_.size();
  });
}

std::string Reaction::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Reaction& r) {
  os << r.name() << " = replace ";
  for (std::size_t i = 0; i < r.patterns().size(); ++i) {
    if (i > 0) os << ", ";
    os << r.patterns()[i];
  }
  for (const Branch& br : r.branches()) {
    os << "\n  by ";
    if (br.outputs.empty()) {
      os << '0';
    } else {
      for (std::size_t i = 0; i < br.outputs.size(); ++i) {
        if (i > 0) os << ", ";
        os << '[';
        for (std::size_t j = 0; j < br.outputs[i].size(); ++j) {
          if (j > 0) os << ", ";
          os << br.outputs[i][j]->to_string();
        }
        os << ']';
      }
    }
    if (br.condition) {
      os << " if " << br.condition->to_string();
    } else if (br.is_else) {
      os << " else";
    }
  }
  return os;
}

}  // namespace gammaflow::gamma
