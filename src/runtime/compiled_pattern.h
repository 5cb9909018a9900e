#ifndef CEPJOIN_RUNTIME_COMPILED_PATTERN_H_
#define CEPJOIN_RUNTIME_COMPILED_PATTERN_H_

#include <functional>
#include <vector>

#include "pattern/pattern.h"
#include "runtime/predicate_program.h"

namespace cepjoin {

/// One negated slot's runtime check (Sec. 5.3): the appearance of a
/// matching negated event invalidates (partial) matches. The check fires
/// at the earliest point where all `dep_positions` are bound.
struct NegationSpec {
  /// Pattern position of the negated slot.
  int neg_pos = -1;
  /// Nearest preceding / following positive position in SEQ patterns
  /// (-1 when absent or for AND patterns).
  int prev_pos = -1;
  int next_pos = -1;
  /// Positive pattern positions whose events the check needs: prev/next
  /// temporal guards plus user-condition partners.
  std::vector<int> dep_positions;
  /// True when candidates later than every match event can still kill the
  /// match (SEQ with no following positive, or AND): emission must be
  /// deferred until the window closes.
  bool trailing = false;
  /// True when the candidate interval's lower bound is the window edge
  /// (match.max_ts − W) rather than a preceding positive's timestamp.
  bool leading_bounded = false;
};

/// Read access to the events an engine has bound to pattern positions;
/// adapters are provided by each engine's instance layout. Kleene slots
/// may bind several events.
class BoundAccessor {
 public:
  virtual ~BoundAccessor() = default;
  /// Invokes fn for each event bound at `pos`; no-op if unbound.
  virtual void ForEach(int pos,
                       const std::function<void(const Event&)>& fn) const = 0;
};

/// Pattern form shared by the NFA and tree engines: the SEQ→AND rewrite
/// applied (all temporal constraints explicit as conditions), contiguity
/// predicates materialized, negated slots compiled into NegationSpecs,
/// and lookup tables for types and slots.
///
/// "Slots" index the positive events 0..m−1 in pattern order — the
/// domain of evaluation plans; "positions" index all pattern events.
class CompiledPattern {
 public:
  explicit CompiledPattern(const SimplePattern& pattern);

  const SimplePattern& original() const { return original_; }
  OperatorKind op() const { return original_.op(); }
  Timestamp window() const { return original_.window(); }
  SelectionStrategy strategy() const { return original_.strategy(); }
  bool delta_input() const { return original_.delta_input(); }

  int num_positions() const { return original_.size(); }
  int num_slots() const { return static_cast<int>(slot_to_pos_.size()); }
  int slot_to_pos(int slot) const { return slot_to_pos_[slot]; }
  /// -1 for negated positions.
  int pos_to_slot(int pos) const { return pos_to_slot_[pos]; }
  TypeId pos_type(int pos) const { return original_.events()[pos].type; }
  bool pos_kleene(int pos) const { return original_.events()[pos].kleene; }
  /// Slot index of the Kleene slot, or -1.
  int kleene_slot() const { return kleene_slot_; }

  /// Rewritten conditions over pattern positions (includes TsOrder closure
  /// for SEQ and contiguity predicates).
  const ConditionSet& conditions() const { return conditions_; }

  /// The conditions lowered into a flat, devirtualized opcode array — the
  /// evaluation path engines use on the hot loop. Verdict-equivalent to
  /// conditions() by construction.
  const PredicateProgram& program() const { return program_; }

  const std::vector<NegationSpec>& negations() const { return negations_; }
  bool has_trailing_negation() const { return has_trailing_negation_; }

  /// Pattern positions (positive and negated) accepting events of `type`;
  /// empty for types the pattern does not reference. One bounds check and
  /// one index on the per-event path of every engine.
  const std::vector<int>& positions_of_type(TypeId type) const {
    return type < positions_of_type_.size() ? positions_of_type_[type]
                                            : kNoPositions;
  }

  /// True if `candidate` (an event of the negated slot's type that already
  /// passed its unary filter) invalidates a match whose bound events are
  /// exposed by `bound`. `min_ts`/`max_ts` are the match's current extent
  /// (used for the window-edge bounds of leading/trailing checks).
  /// All dep positions must be bound. `predicate_evals` (may be null) is
  /// incremented per predicate executed against the candidate.
  bool NegationViolates(const NegationSpec& neg, const Event& candidate,
                        const BoundAccessor& bound, Timestamp min_ts,
                        Timestamp max_ts,
                        uint64_t* predicate_evals = nullptr) const;

 private:
  SimplePattern original_;
  SimplePattern rewritten_;
  ConditionSet conditions_;
  PredicateProgram program_;
  std::vector<int> slot_to_pos_;
  std::vector<int> pos_to_slot_;
  int kleene_slot_ = -1;
  std::vector<NegationSpec> negations_;
  bool has_trailing_negation_ = false;
  /// Indexed by TypeId, sized to the largest type the pattern references.
  std::vector<std::vector<int>> positions_of_type_;
  static const std::vector<int> kNoPositions;
};

}  // namespace cepjoin

#endif  // CEPJOIN_RUNTIME_COMPILED_PATTERN_H_
