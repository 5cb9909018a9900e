#ifndef CEPJOIN_PATTERN_CONDITION_H_
#define CEPJOIN_PATTERN_CONDITION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "event/event.h"

namespace cepjoin {

/// Comparison operators for attribute conditions.
enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CmpOpName(CmpOp op);

/// IEEE comparison class of (lhs, rhs) as a one-hot nibble:
/// 1 = less, 2 = equal, 4 = greater, 8 = unordered (NaN operand).
inline unsigned CmpClass(double lhs, double rhs) {
  unsigned cls = (lhs < rhs ? 1u : 0u) | (lhs == rhs ? 2u : 0u) |
                 (lhs > rhs ? 4u : 0u);
  return cls != 0 ? cls : 8u;
}

/// The comparison classes a CmpOp accepts (IEEE semantics: only kNe is
/// true on NaN).
inline unsigned CmpMask(CmpOp op) {
  constexpr unsigned kMasks[6] = {/*kLt*/ 1u, /*kLe*/ 3u,  /*kGt*/ 4u,
                                  /*kGe*/ 6u, /*kEq*/ 2u, /*kNe*/ 13u};
  return kMasks[static_cast<int>(op)];
}

/// Inline and branchless: this sits on the innermost predicate loop of
/// both the virtual Condition::Eval path and the compiled predicate
/// interpreter, where a data-dependent `op` makes a switch's indirect
/// jump mispredict. The class/mask split keeps everything in registers
/// (no jump table, no stack-materialized lookup) and lets the compiled
/// program pre-resolve CmpMask at lowering time.
inline bool CmpApply(CmpOp op, double lhs, double rhs) {
  return (CmpMask(op) & CmpClass(lhs, rhs)) != 0;
}

/// A (at most pairwise) predicate between two pattern positions.
///
/// `left()` and `right()` are indices into the pattern's event list; a
/// condition with left() == right() is a unary filter. Engines evaluate
/// conditions as soon as both endpoints are bound (lazy-NFA style), so
/// Eval must be pure.
class Condition {
 public:
  Condition(int left, int right) : left_(left), right_(right) {}
  virtual ~Condition() = default;

  int left() const { return left_; }
  int right() const { return right_; }
  bool unary() const { return left_ == right_; }

  /// Evaluates the condition with `l` bound to position left() and `r`
  /// bound to position right(). For unary conditions both are the event.
  virtual bool Eval(const Event& l, const Event& r) const = 0;

  virtual std::string Describe() const = 0;

  /// Analytic selectivity if known a priori, NaN if it must be measured
  /// from data by the statistics collector.
  virtual double DeclaredSelectivity() const;

 private:
  int left_;
  int right_;
};

using ConditionPtr = std::shared_ptr<const Condition>;

/// left.attr OP right.attr + offset  (binary attribute comparison).
class AttrCompare final : public Condition {
 public:
  AttrCompare(int left, AttrId left_attr, CmpOp op, int right, AttrId right_attr,
              double offset = 0.0)
      : Condition(left, right),
        left_attr_(left_attr),
        right_attr_(right_attr),
        op_(op),
        offset_(offset) {}

  bool Eval(const Event& l, const Event& r) const override {
    return CmpApply(op_, l.Attr(left_attr_), r.Attr(right_attr_) + offset_);
  }
  std::string Describe() const override;

  AttrId left_attr() const { return left_attr_; }
  AttrId right_attr() const { return right_attr_; }
  CmpOp op() const { return op_; }
  double offset() const { return offset_; }

 private:
  AttrId left_attr_;
  AttrId right_attr_;
  CmpOp op_;
  double offset_;
};

/// event.attr OP constant  (unary filter).
class AttrThreshold final : public Condition {
 public:
  AttrThreshold(int pos, AttrId attr, CmpOp op, double constant)
      : Condition(pos, pos), attr_(attr), op_(op), constant_(constant) {}

  bool Eval(const Event& l, const Event&) const override {
    return CmpApply(op_, l.Attr(attr_), constant_);
  }
  std::string Describe() const override;

  AttrId attr() const { return attr_; }
  CmpOp op() const { return op_; }
  double constant() const { return constant_; }

 private:
  AttrId attr_;
  CmpOp op_;
  double constant_;
};

/// left.ts < right.ts — the temporal-order predicate the SEQ→AND rewrite
/// introduces (Theorem 3). Declared selectivity 1/2 under the standard
/// independence assumption.
class TsOrder final : public Condition {
 public:
  TsOrder(int left, int right) : Condition(left, right) {}

  bool Eval(const Event& l, const Event& r) const override {
    return l.ts < r.ts;
  }
  std::string Describe() const override;
  double DeclaredSelectivity() const override { return 0.5; }
};

/// right immediately follows left in the stream (strict contiguity,
/// Sec. 6.2). The planner supplies the declared selectivity because it
/// depends on the total stream rate, which the condition cannot know.
class SerialAdjacent final : public Condition {
 public:
  SerialAdjacent(int left, int right, double declared_selectivity)
      : Condition(left, right), declared_selectivity_(declared_selectivity) {}

  bool Eval(const Event& l, const Event& r) const override {
    return r.serial == l.serial + 1;
  }
  std::string Describe() const override;
  double DeclaredSelectivity() const override {
    return declared_selectivity_;
  }

 private:
  double declared_selectivity_;
};

/// Partition contiguity (Sec. 6.2): if the two events share a partition,
/// their per-partition sequence numbers must be adjacent; events from
/// different partitions are unconstrained.
class PartitionAdjacent final : public Condition {
 public:
  PartitionAdjacent(int left, int right, double declared_selectivity)
      : Condition(left, right), declared_selectivity_(declared_selectivity) {}

  bool Eval(const Event& l, const Event& r) const override {
    return l.partition != r.partition || r.partition_seq == l.partition_seq + 1;
  }
  std::string Describe() const override;
  double DeclaredSelectivity() const override {
    return declared_selectivity_;
  }

 private:
  double declared_selectivity_;
};

/// Escape hatch for arbitrary user predicates. The user must declare the
/// selectivity (or leave NaN to have it measured).
class CustomCondition final : public Condition {
 public:
  using Fn = std::function<bool(const Event&, const Event&)>;
  CustomCondition(int left, int right, Fn fn, double declared_selectivity,
                  std::string description)
      : Condition(left, right),
        fn_(std::move(fn)),
        declared_selectivity_(declared_selectivity),
        description_(std::move(description)) {}

  bool Eval(const Event& l, const Event& r) const override { return fn_(l, r); }
  std::string Describe() const override { return description_; }
  double DeclaredSelectivity() const override {
    return declared_selectivity_;
  }

 private:
  Fn fn_;
  double declared_selectivity_;
  std::string description_;
};

/// True iff `a` and `b` accept exactly the same event pairs by
/// construction: the same object, or the same built-in kind with equal
/// positions and bit-identical fields. A CustomCondition equals only
/// itself (its function cannot be compared). Conservative: false means
/// "not provably equal", never "different".
bool SameCondition(const ConditionPtr& a, const ConditionPtr& b);

/// Conditions of one pattern bucketed by (position, position) pair for O(1)
/// lookup during evaluation. Pairs are normalized to (min, max); EvalPair
/// passes the events in the orientation each condition expects.
class ConditionSet {
 public:
  ConditionSet() : n_(0) {}
  ConditionSet(int num_positions, const std::vector<ConditionPtr>& conditions);

  /// All conditions between positions i and j (i != j), in either
  /// orientation.
  const std::vector<ConditionPtr>& Between(int i, int j) const;
  /// All unary conditions on position i.
  const std::vector<ConditionPtr>& UnaryAt(int i) const;

  /// True iff every condition between i and j accepts (ei at i, ej at j).
  bool EvalPair(int i, int j, const Event& ei, const Event& ej) const;
  /// True iff every unary condition on i accepts e.
  bool EvalUnary(int i, const Event& e) const;

  int num_positions() const { return n_; }

 private:
  int n_;
  // buckets_[i * n_ + j] for i < j; unary_[i] for the diagonal.
  std::vector<std::vector<ConditionPtr>> buckets_;
  std::vector<std::vector<ConditionPtr>> unary_;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PATTERN_CONDITION_H_
