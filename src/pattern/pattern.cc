#include "pattern/pattern.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace cepjoin {

const char* OperatorName(OperatorKind op) {
  switch (op) {
    case OperatorKind::kSeq:
      return "SEQ";
    case OperatorKind::kAnd:
      return "AND";
    case OperatorKind::kOr:
      return "OR";
  }
  return "?";
}

const char* SelectionStrategyName(SelectionStrategy s) {
  switch (s) {
    case SelectionStrategy::kSkipTillAny:
      return "skip-till-any-match";
    case SelectionStrategy::kSkipTillNext:
      return "skip-till-next-match";
    case SelectionStrategy::kStrictContiguity:
      return "strict-contiguity";
    case SelectionStrategy::kPartitionContiguity:
      return "partition-contiguity";
  }
  return "?";
}

SimplePattern::SimplePattern(OperatorKind op, std::vector<EventSpec> events,
                             std::vector<ConditionPtr> conditions,
                             Timestamp window, SelectionStrategy strategy)
    : op_(op),
      events_(std::move(events)),
      conditions_(std::move(conditions)),
      window_(window),
      strategy_(strategy) {
  CEPJOIN_CHECK(op_ != OperatorKind::kOr)
      << "OR is only valid in nested patterns; use NestedPattern + ToDnf";
  CEPJOIN_CHECK_GT(window_, 0.0) << "pattern requires a positive time window";
  CEPJOIN_CHECK(!events_.empty());
  for (int i = 0; i < size(); ++i) {
    const EventSpec& spec = events_[i];
    CEPJOIN_CHECK(spec.type != kInvalidTypeId);
    CEPJOIN_CHECK(!(spec.negated && spec.kleene))
        << "a slot cannot be both negated and Kleene-closed";
    if (spec.negated) {
      negated_positions_.push_back(i);
      pure_ = false;
    } else {
      positive_positions_.push_back(i);
    }
    if (spec.kleene) {
      ++kleene_count_;
      pure_ = false;
    }
  }
  CEPJOIN_CHECK(!positive_positions_.empty())
      << "pattern must contain at least one positive event";
  CEPJOIN_CHECK_LE(kleene_count_, 1)
      << "the runtime supports at most one Kleene slot per simple pattern "
         "(the plan-time rewrite of Corollary 4 supports more)";
  // Validate condition position ranges eagerly.
  ConditionSet validate(size(), conditions_);
  (void)validate;
}

bool SamePattern(const SimplePattern& a, const SimplePattern& b) {
  const Timestamp wa = a.window();
  const Timestamp wb = b.window();
  if (a.op() != b.op() || a.strategy() != b.strategy() ||
      a.delta_input() != b.delta_input() ||
      std::memcmp(&wa, &wb, sizeof wa) != 0 ||
      a.events().size() != b.events().size() ||
      a.conditions().size() != b.conditions().size()) {
    return false;
  }
  for (size_t i = 0; i < a.events().size(); ++i) {
    const EventSpec& x = a.events()[i];
    const EventSpec& y = b.events()[i];
    if (x.type != y.type || x.name != y.name || x.negated != y.negated ||
        x.kleene != y.kleene) {
      return false;
    }
  }
  for (size_t i = 0; i < a.conditions().size(); ++i) {
    if (!SameCondition(a.conditions()[i], b.conditions()[i])) return false;
  }
  return true;
}

SimplePattern SimplePattern::WithStrategy(SelectionStrategy s) const {
  SimplePattern copy(op_, events_, conditions_, window_, s);
  copy.delta_input_ = delta_input_;
  return copy;
}

SimplePattern SimplePattern::WithDeltaInput(bool delta_input) const {
  SimplePattern copy = *this;
  copy.delta_input_ = delta_input;
  return copy;
}

std::string SimplePattern::Describe(const EventTypeRegistry* registry) const {
  std::ostringstream os;
  os << "PATTERN " << OperatorName(op_) << "(";
  for (int i = 0; i < size(); ++i) {
    if (i > 0) os << ", ";
    const EventSpec& spec = events_[i];
    if (spec.negated) os << "NOT ";
    if (spec.kleene) os << "KL ";
    if (registry != nullptr) {
      os << registry->Info(spec.type).name;
    } else {
      os << "T" << spec.type;
    }
    os << " " << spec.name;
  }
  os << ")";
  if (!conditions_.empty()) {
    os << " WHERE (";
    for (size_t i = 0; i < conditions_.size(); ++i) {
      if (i > 0) os << " AND ";
      os << conditions_[i]->Describe();
    }
    os << ")";
  }
  os << " WITHIN " << window_ << "s [" << SelectionStrategyName(strategy_)
     << "]";
  return os.str();
}

PatternBuilder::PatternBuilder(OperatorKind op,
                               const EventTypeRegistry& registry)
    : registry_(registry), op_(op) {}

PatternBuilder& PatternBuilder::Event(const std::string& type,
                                      const std::string& name) {
  events_.push_back(EventSpec{registry_.Require(type), name, false, false});
  return *this;
}

PatternBuilder& PatternBuilder::NegatedEvent(const std::string& type,
                                             const std::string& name) {
  events_.push_back(EventSpec{registry_.Require(type), name, true, false});
  return *this;
}

PatternBuilder& PatternBuilder::KleeneEvent(const std::string& type,
                                            const std::string& name) {
  events_.push_back(EventSpec{registry_.Require(type), name, false, true});
  return *this;
}

int PatternBuilder::PositionOf(const std::string& name) const {
  for (size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].name == name) return static_cast<int>(i);
  }
  CEPJOIN_CHECK(false) << "no event named '" << name << "' in pattern";
}

PatternBuilder& PatternBuilder::Where(const std::string& left_name,
                                      const std::string& left_attr, CmpOp op,
                                      const std::string& right_name,
                                      const std::string& right_attr,
                                      double offset) {
  int l = PositionOf(left_name);
  int r = PositionOf(right_name);
  AttrId la = registry_.RequireAttr(events_[l].type, left_attr);
  AttrId ra = registry_.RequireAttr(events_[r].type, right_attr);
  conditions_.push_back(std::make_shared<AttrCompare>(l, la, op, r, ra, offset));
  return *this;
}

PatternBuilder& PatternBuilder::WhereConst(const std::string& name,
                                           const std::string& attr, CmpOp op,
                                           double constant) {
  int pos = PositionOf(name);
  AttrId a = registry_.RequireAttr(events_[pos].type, attr);
  conditions_.push_back(std::make_shared<AttrThreshold>(pos, a, op, constant));
  return *this;
}

PatternBuilder& PatternBuilder::WhereCondition(ConditionPtr condition) {
  conditions_.push_back(std::move(condition));
  return *this;
}

PatternBuilder& PatternBuilder::Within(Timestamp window) {
  window_ = window;
  return *this;
}

PatternBuilder& PatternBuilder::WithStrategy(SelectionStrategy strategy) {
  strategy_ = strategy;
  return *this;
}

PatternBuilder& PatternBuilder::WithDeltaInput(bool delta_input) {
  delta_input_ = delta_input;
  return *this;
}

SimplePattern PatternBuilder::Build() const {
  return SimplePattern(op_, events_, conditions_, window_, strategy_)
      .WithDeltaInput(delta_input_);
}

}  // namespace cepjoin
