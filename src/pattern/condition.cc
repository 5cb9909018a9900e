#include "pattern/condition.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace cepjoin {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

double Condition::DeclaredSelectivity() const {
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool SameCondition(const ConditionPtr& a, const ConditionPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->left() != b->left() || a->right() != b->right()) return false;
  if (auto* x = dynamic_cast<const AttrCompare*>(a.get())) {
    auto* y = dynamic_cast<const AttrCompare*>(b.get());
    return y != nullptr && x->left_attr() == y->left_attr() &&
           x->right_attr() == y->right_attr() && x->op() == y->op() &&
           SameBits(x->offset(), y->offset());
  }
  if (auto* x = dynamic_cast<const AttrThreshold*>(a.get())) {
    auto* y = dynamic_cast<const AttrThreshold*>(b.get());
    return y != nullptr && x->attr() == y->attr() && x->op() == y->op() &&
           SameBits(x->constant(), y->constant());
  }
  if (dynamic_cast<const TsOrder*>(a.get()) != nullptr) {
    return dynamic_cast<const TsOrder*>(b.get()) != nullptr;
  }
  if (dynamic_cast<const SerialAdjacent*>(a.get()) != nullptr) {
    return dynamic_cast<const SerialAdjacent*>(b.get()) != nullptr &&
           SameBits(a->DeclaredSelectivity(), b->DeclaredSelectivity());
  }
  if (dynamic_cast<const PartitionAdjacent*>(a.get()) != nullptr) {
    return dynamic_cast<const PartitionAdjacent*>(b.get()) != nullptr &&
           SameBits(a->DeclaredSelectivity(), b->DeclaredSelectivity());
  }
  return false;  // CustomCondition (or an unknown kind): pointer identity only
}

std::string AttrCompare::Describe() const {
  std::ostringstream os;
  os << "e" << left() << ".a" << left_attr_ << " " << CmpOpName(op_) << " e"
     << right() << ".a" << right_attr_;
  if (offset_ != 0.0) os << " + " << offset_;
  return os.str();
}

std::string AttrThreshold::Describe() const {
  std::ostringstream os;
  os << "e" << left() << ".a" << attr_ << " " << CmpOpName(op_) << " "
     << constant_;
  return os.str();
}

std::string TsOrder::Describe() const {
  std::ostringstream os;
  os << "e" << left() << ".ts < e" << right() << ".ts";
  return os.str();
}

std::string SerialAdjacent::Describe() const {
  std::ostringstream os;
  os << "e" << right() << ".serial == e" << left() << ".serial + 1";
  return os.str();
}

std::string PartitionAdjacent::Describe() const {
  std::ostringstream os;
  os << "partition-contiguous(e" << left() << ", e" << right() << ")";
  return os.str();
}

ConditionSet::ConditionSet(int num_positions,
                           const std::vector<ConditionPtr>& conditions)
    : n_(num_positions),
      buckets_(static_cast<size_t>(num_positions) * num_positions),
      unary_(num_positions) {
  for (const ConditionPtr& c : conditions) {
    CEPJOIN_CHECK(c != nullptr);
    CEPJOIN_CHECK(c->left() >= 0 && c->left() < n_ && c->right() >= 0 &&
                  c->right() < n_)
        << "condition references position outside the pattern: "
        << c->Describe();
    if (c->unary()) {
      unary_[c->left()].push_back(c);
    } else {
      int lo = std::min(c->left(), c->right());
      int hi = std::max(c->left(), c->right());
      buckets_[static_cast<size_t>(lo) * n_ + hi].push_back(c);
    }
  }
}

const std::vector<ConditionPtr>& ConditionSet::Between(int i, int j) const {
  CEPJOIN_CHECK(i != j);
  int lo = std::min(i, j);
  int hi = std::max(i, j);
  return buckets_[static_cast<size_t>(lo) * n_ + hi];
}

const std::vector<ConditionPtr>& ConditionSet::UnaryAt(int i) const {
  return unary_[i];
}

bool ConditionSet::EvalPair(int i, int j, const Event& ei,
                            const Event& ej) const {
  for (const ConditionPtr& c : Between(i, j)) {
    const Event& l = (c->left() == i) ? ei : ej;
    const Event& r = (c->left() == i) ? ej : ei;
    if (!c->Eval(l, r)) return false;
  }
  return true;
}

bool ConditionSet::EvalUnary(int i, const Event& e) const {
  for (const ConditionPtr& c : unary_[i]) {
    if (!c->Eval(e, e)) return false;
  }
  return true;
}

}  // namespace cepjoin
