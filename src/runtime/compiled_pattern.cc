#include "runtime/compiled_pattern.h"

#include <algorithm>

#include "common/check.h"
#include "pattern/rewrite.h"

namespace cepjoin {

namespace {

// At runtime contiguity predicates are exact; the declared selectivity is
// a planning-only concern and is irrelevant here.
constexpr double kRuntimeAdjacencySelectivity = 1.0;

}  // namespace

CompiledPattern::CompiledPattern(const SimplePattern& pattern)
    : original_(pattern),
      rewritten_(RewriteForPlanning(pattern, kRuntimeAdjacencySelectivity)),
      conditions_(rewritten_.size(), rewritten_.conditions()),
      program_(conditions_) {
  int n = original_.size();
  pos_to_slot_.assign(n, -1);
  for (int pos : original_.positive_positions()) {
    pos_to_slot_[pos] = static_cast<int>(slot_to_pos_.size());
    slot_to_pos_.push_back(pos);
    if (original_.events()[pos].kleene) {
      kleene_slot_ = pos_to_slot_[pos];
    }
  }
  for (int pos = 0; pos < n; ++pos) {
    TypeId type = original_.events()[pos].type;
    if (type == kInvalidTypeId) continue;  // no event carries it
    if (type >= positions_of_type_.size()) {
      positions_of_type_.resize(static_cast<size_t>(type) + 1);
    }
    positions_of_type_[type].push_back(pos);
  }

  // Compile negation checks.
  for (int np : original_.negated_positions()) {
    NegationSpec neg;
    neg.neg_pos = np;
    if (original_.op() == OperatorKind::kSeq) {
      for (int pos : original_.positive_positions()) {
        if (pos < np) neg.prev_pos = pos;  // positions ascend; last wins
        if (pos > np && neg.next_pos < 0) neg.next_pos = pos;
      }
    }
    std::vector<int> deps;
    if (neg.prev_pos >= 0) deps.push_back(neg.prev_pos);
    if (neg.next_pos >= 0) deps.push_back(neg.next_pos);
    // User-condition partners (original conditions only; the rewrite's
    // TsOrder closure is implied by the prev/next guards).
    for (const ConditionPtr& c : original_.conditions()) {
      int other = -1;
      if (c->left() == np && c->right() != np) other = c->right();
      if (c->right() == np && c->left() != np) other = c->left();
      if (other >= 0 && pos_to_slot_[other] >= 0) deps.push_back(other);
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    neg.dep_positions = std::move(deps);
    if (original_.op() == OperatorKind::kSeq) {
      neg.trailing = neg.next_pos < 0;
      neg.leading_bounded = neg.prev_pos < 0;
    } else {
      // AND: the negated event must be absent from the whole window
      // containing the match — both edges are window-bounded and future
      // candidates can still kill the match.
      neg.trailing = true;
      neg.leading_bounded = true;
    }
    has_trailing_negation_ = has_trailing_negation_ || neg.trailing;
    negations_.push_back(std::move(neg));
  }
}

const std::vector<int> CompiledPattern::kNoPositions;

bool CompiledPattern::NegationViolates(const NegationSpec& neg,
                                       const Event& candidate,
                                       const BoundAccessor& bound,
                                       Timestamp min_ts, Timestamp max_ts,
                                       uint64_t* predicate_evals) const {
  Timestamp w = window();
  // Window-edge bounds: a candidate can only kill the match if it could
  // belong to the same window as every match event.
  if (neg.leading_bounded && candidate.ts < max_ts - w) return false;
  if (neg.trailing && candidate.ts > min_ts + w) return false;
  // Temporal guards and user conditions versus each dependency.
  for (int dep : neg.dep_positions) {
    bool all_ok = true;
    bool saw_bound = false;
    bound.ForEach(dep, [&](const Event& e) {
      saw_bound = true;
      if (!all_ok) return;
      if (!program_.EvalPair(dep, neg.neg_pos, e, candidate,
                             predicate_evals)) {
        all_ok = false;
      }
    });
    CEPJOIN_CHECK(saw_bound)
        << "negation check fired before dependency position " << dep
        << " was bound";
    if (!all_ok) return false;
  }
  return true;
}

}  // namespace cepjoin
