//===- fscs/Constraint.h - Points-to constraints (Def. 8) -------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to constraints attached to summary tuples (Definition 8 of
/// the paper). Each atom is one of
///
///   l : r -> s    r points to s at location l
///   l : r -/> s   r does not point to s at location l
///   l : r = s     r and s point to the same object at l
///   l : r != s    r and s do not point to the same object at l
///
/// and a Condition is a conjunction of atoms (empty = true). Conditions
/// are kept canonical (sorted, deduplicated) so tuple deduplication and
/// fixpoint termination work; syntactically contradictory conjunctions
/// collapse to false immediately.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_CONSTRAINT_H
#define BSAA_FSCS_CONSTRAINT_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bsaa {
namespace fscs {

/// Atom kinds of Definition 8.
enum class ConstraintKind : uint8_t {
  PointsTo,      ///< l : A -> B
  NotPointsTo,   ///< l : A -/> B
  SameObject,    ///< l : A = B
  NotSameObject, ///< l : A != B
};

/// Returns the negation of \p K.
ConstraintKind negate(ConstraintKind K);

/// One atomic points-to constraint.
struct ConstraintAtom {
  ir::LocId Loc = ir::InvalidLoc;
  ConstraintKind Kind = ConstraintKind::PointsTo;
  ir::VarId A = ir::InvalidVar;
  ir::VarId B = ir::InvalidVar;

  bool operator==(const ConstraintAtom &O) const {
    return Loc == O.Loc && Kind == O.Kind && A == O.A && B == O.B;
  }
  bool operator<(const ConstraintAtom &O) const {
    if (Loc != O.Loc)
      return Loc < O.Loc;
    if (Kind != O.Kind)
      return Kind < O.Kind;
    if (A != O.A)
      return A < O.A;
    return B < O.B;
  }
  /// True if \p O is the syntactic negation of this atom.
  bool contradicts(const ConstraintAtom &O) const {
    return Loc == O.Loc && A == O.A && B == O.B && Kind == negate(O.Kind);
  }
};

/// A conjunction of atoms, kept canonical. The special False state marks
/// a contradictory (dead) condition.
class Condition {
public:
  /// The trivially true condition.
  Condition() = default;

  static Condition falseCondition() {
    Condition C;
    C.IsFalse = true;
    return C;
  }

  bool isTrue() const { return !IsFalse && Atoms.empty(); }
  bool isFalse() const { return IsFalse; }
  const std::vector<ConstraintAtom> &atoms() const { return Atoms; }
  size_t size() const { return Atoms.size(); }

  /// This ∧ Atom. Collapses to false on syntactic contradiction. If the
  /// condition already has \p MaxAtoms atoms, the new atom is dropped
  /// instead (widening: fewer constraints = more satisfiable = sound
  /// over-approximation for may-alias).
  Condition conjoin(const ConstraintAtom &Atom, size_t MaxAtoms) const;

  /// This ∧ Other (atom-wise), with the same widening rule: equal to
  /// conjoining Other's atoms one by one, in order.
  Condition conjoinAll(const Condition &Other, size_t MaxAtoms) const;

  /// Reconstructs a condition from already-canonical parts
  /// (deserialization). Returns false without touching \p Out if the
  /// atoms are not sorted-unique or a false condition carries atoms --
  /// a malformed byte stream cannot construct a non-canonical value.
  static bool fromCanonicalAtoms(std::vector<ConstraintAtom> Atoms,
                                 bool IsFalse, Condition &Out);

  bool operator==(const Condition &O) const {
    return IsFalse == O.IsFalse && Atoms == O.Atoms;
  }

  uint64_t hash() const;
  /// hash() of the one-atom condition {\p A}.
  static uint64_t hashOf(const ConstraintAtom &A);

  std::string toString(const ir::Program &P) const;

private:
  std::vector<ConstraintAtom> Atoms; ///< Sorted, unique.
  bool IsFalse = false;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_CONSTRAINT_H
