#ifndef CEPJOIN_PATTERN_PATTERN_H_
#define CEPJOIN_PATTERN_PATTERN_H_

#include <string>
#include <vector>

#include "event/event_type.h"
#include "pattern/condition.h"

namespace cepjoin {

/// N-ary pattern operators (Sec. 2.1). OR appears only in nested patterns.
enum class OperatorKind { kSeq, kAnd, kOr };

const char* OperatorName(OperatorKind op);

/// Event selection strategies (Sec. 6.2).
enum class SelectionStrategy {
  kSkipTillAny,
  kSkipTillNext,
  kStrictContiguity,
  kPartitionContiguity,
};

const char* SelectionStrategyName(SelectionStrategy s);

/// One event slot of a pattern: a type plus optional unary operator
/// (NOT — the event must be absent; KL — one or more instances match).
struct EventSpec {
  TypeId type = kInvalidTypeId;
  std::string name;
  bool negated = false;
  bool kleene = false;
};

/// A simple pattern (Sec. 2.1): a single n-ary operator (SEQ or AND) over
/// event slots, at most one unary operator per slot, a CNF of (at most
/// pairwise) conditions, a time window, and a selection strategy.
///
/// Positions in conditions index into `events()`. A *pure* pattern has no
/// NOT/KL slots; a pure AND pattern is a "conjunctive pattern", a pure SEQ
/// pattern a "sequence pattern" in the paper's taxonomy.
class SimplePattern {
 public:
  SimplePattern(OperatorKind op, std::vector<EventSpec> events,
                std::vector<ConditionPtr> conditions, Timestamp window,
                SelectionStrategy strategy = SelectionStrategy::kSkipTillAny);

  OperatorKind op() const { return op_; }
  const std::vector<EventSpec>& events() const { return events_; }
  const std::vector<ConditionPtr>& conditions() const { return conditions_; }
  Timestamp window() const { return window_; }
  SelectionStrategy strategy() const { return strategy_; }

  /// Number of event slots (positive + negated).
  int size() const { return static_cast<int>(events_.size()); }

  /// Positions of non-negated slots, in pattern order. Evaluation plans
  /// cover exactly these positions.
  const std::vector<int>& positive_positions() const {
    return positive_positions_;
  }
  int num_positive() const {
    return static_cast<int>(positive_positions_.size());
  }

  /// Positions of negated slots, in pattern order.
  const std::vector<int>& negated_positions() const {
    return negated_positions_;
  }

  bool is_pure() const { return pure_; }
  bool has_kleene() const { return kleene_count_ > 0; }

  /// True iff the pattern evaluates a ± delta stream: engines then track
  /// emitted matches so a retraction can revoke them, and accept
  /// polarity=-1 events. Insert-only patterns (the default) skip all of
  /// that bookkeeping. Only skip-till-any patterns support delta input
  /// (retraction semantics under skip-till-next/contiguity pruning are
  /// undefined); engines CHECK this, CepService rejects it with a
  /// Status.
  bool delta_input() const { return delta_input_; }

  std::string Describe(const EventTypeRegistry* registry = nullptr) const;

  /// Returns a copy with a different strategy (used by benches).
  SimplePattern WithStrategy(SelectionStrategy s) const;

  /// Returns a copy that expects (or stops expecting) delta input.
  SimplePattern WithDeltaInput(bool delta_input = true) const;

 private:
  OperatorKind op_;
  std::vector<EventSpec> events_;
  std::vector<ConditionPtr> conditions_;
  Timestamp window_;
  SelectionStrategy strategy_;
  std::vector<int> positive_positions_;
  std::vector<int> negated_positions_;
  int kleene_count_ = 0;
  bool pure_ = true;
  bool delta_input_ = false;
};

/// True iff `a` and `b` describe the same query field by field: operator,
/// event slots (type, name, NOT/KL flags), window and strategy bit-
/// identical, the delta flag equal, and the conditions pairwise
/// SameCondition in the same order. Two such patterns evaluate
/// identically under the same plan; CepService shares one engine set
/// between registrations whose patterns compare equal here.
bool SamePattern(const SimplePattern& a, const SimplePattern& b);

/// Fluent builder for SimplePattern, the main user entry point:
///
///   auto p = PatternBuilder(OperatorKind::kSeq, registry)
///       .Event("MSFT", "m").Event("GOOG", "g").NegatedEvent("INTC", "i")
///       .Where("m", "difference", CmpOp::kLt, "g", "difference")
///       .Within(20 * 60)
///       .Build();
class PatternBuilder {
 public:
  PatternBuilder(OperatorKind op, const EventTypeRegistry& registry);

  PatternBuilder& Event(const std::string& type, const std::string& name);
  PatternBuilder& NegatedEvent(const std::string& type,
                               const std::string& name);
  PatternBuilder& KleeneEvent(const std::string& type,
                              const std::string& name);

  /// Adds `left.attr OP right.attr + offset`.
  PatternBuilder& Where(const std::string& left_name,
                        const std::string& left_attr, CmpOp op,
                        const std::string& right_name,
                        const std::string& right_attr, double offset = 0.0);
  /// Adds `name.attr OP constant`.
  PatternBuilder& WhereConst(const std::string& name, const std::string& attr,
                             CmpOp op, double constant);
  /// Adds an arbitrary prebuilt condition (positions resolved by caller).
  PatternBuilder& WhereCondition(ConditionPtr condition);

  PatternBuilder& Within(Timestamp window);
  PatternBuilder& WithStrategy(SelectionStrategy strategy);
  PatternBuilder& WithDeltaInput(bool delta_input = true);

  SimplePattern Build() const;

  /// Position of a named event added so far; aborts if unknown.
  int PositionOf(const std::string& name) const;

 private:
  const EventTypeRegistry& registry_;
  OperatorKind op_;
  std::vector<EventSpec> events_;
  std::vector<ConditionPtr> conditions_;
  Timestamp window_ = 0.0;
  SelectionStrategy strategy_ = SelectionStrategy::kSkipTillAny;
  bool delta_input_ = false;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PATTERN_PATTERN_H_
