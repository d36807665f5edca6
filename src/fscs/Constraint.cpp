//===- fscs/Constraint.cpp - Points-to constraints (Def. 8) ---------------===//

#include "fscs/Constraint.h"

#include <algorithm>
#include <sstream>

using namespace bsaa;
using namespace bsaa::fscs;

ConstraintKind fscs::negate(ConstraintKind K) {
  switch (K) {
  case ConstraintKind::PointsTo:
    return ConstraintKind::NotPointsTo;
  case ConstraintKind::NotPointsTo:
    return ConstraintKind::PointsTo;
  case ConstraintKind::SameObject:
    return ConstraintKind::NotSameObject;
  case ConstraintKind::NotSameObject:
    return ConstraintKind::SameObject;
  }
  return K;
}

Condition Condition::conjoin(const ConstraintAtom &Atom,
                             size_t MaxAtoms) const {
  if (IsFalse)
    return *this;
  for (const ConstraintAtom &Existing : Atoms) {
    if (Existing == Atom)
      return *this;
    if (Existing.contradicts(Atom))
      return falseCondition();
  }
  if (Atoms.size() >= MaxAtoms) {
    // Widen: drop the new atom rather than growing without bound.
    return *this;
  }
  Condition Out;
  Out.Atoms.reserve(Atoms.size() + 1);
  auto Pos = std::upper_bound(Atoms.begin(), Atoms.end(), Atom);
  Out.Atoms.insert(Out.Atoms.end(), Atoms.begin(), Pos);
  Out.Atoms.push_back(Atom);
  Out.Atoms.insert(Out.Atoms.end(), Pos, Atoms.end());
  return Out;
}

Condition Condition::conjoinAll(const Condition &Other,
                                size_t MaxAtoms) const {
  if (IsFalse || Other.IsFalse)
    return falseCondition();
  if (Other.Atoms.empty())
    return *this;
  // The left fold of conjoin over Other's atoms, built in one buffer
  // sized for the most atoms the cap lets through: each atom is checked
  // against everything accepted so far, in sorted order as conjoin
  // checks, then inserted in place while under the cap.
  size_t Room = MaxAtoms > Atoms.size() ? MaxAtoms - Atoms.size() : 0;
  Condition Out;
  Out.Atoms.reserve(Atoms.size() + std::min(Room, Other.Atoms.size()));
  Out.Atoms.assign(Atoms.begin(), Atoms.end());
  for (const ConstraintAtom &Atom : Other.Atoms) {
    bool Duplicate = false;
    for (const ConstraintAtom &Existing : Out.Atoms) {
      if (Existing == Atom) {
        Duplicate = true;
        break;
      }
      if (Existing.contradicts(Atom))
        return falseCondition();
    }
    if (Duplicate || Out.Atoms.size() >= MaxAtoms)
      continue;
    Out.Atoms.insert(
        std::upper_bound(Out.Atoms.begin(), Out.Atoms.end(), Atom), Atom);
  }
  return Out;
}

bool Condition::fromCanonicalAtoms(std::vector<ConstraintAtom> Atoms,
                                   bool IsFalse, Condition &Out) {
  // A false condition never carries atoms (falseCondition() and every
  // conjoin collapse drop them), and live atom lists are sorted-unique.
  if (IsFalse && !Atoms.empty())
    return false;
  for (size_t I = 1; I < Atoms.size(); ++I)
    if (!(Atoms[I - 1] < Atoms[I]))
      return false;
  Out.Atoms = std::move(Atoms);
  Out.IsFalse = IsFalse;
  return true;
}

namespace {

uint64_t mixAtom(uint64_t H, const ConstraintAtom &A) {
  for (uint64_t V :
       {uint64_t(A.Loc), uint64_t(A.Kind), uint64_t(A.A), uint64_t(A.B)})
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  return H;
}

constexpr uint64_t TrueHash = 0xcbf29ce484222325ull;

} // namespace

uint64_t Condition::hash() const {
  uint64_t H = IsFalse ? 0x12345 : TrueHash;
  for (const ConstraintAtom &A : Atoms)
    H = mixAtom(H, A);
  return H;
}

uint64_t Condition::hashOf(const ConstraintAtom &A) {
  return mixAtom(TrueHash, A);
}

std::string Condition::toString(const ir::Program &P) const {
  if (IsFalse)
    return "false";
  if (Atoms.empty())
    return "true";
  std::ostringstream OS;
  for (size_t I = 0; I < Atoms.size(); ++I) {
    const ConstraintAtom &A = Atoms[I];
    if (I)
      OS << " & ";
    OS << "L" << A.Loc << ": " << P.var(A.A).Name;
    switch (A.Kind) {
    case ConstraintKind::PointsTo:
      OS << " -> ";
      break;
    case ConstraintKind::NotPointsTo:
      OS << " -/> ";
      break;
    case ConstraintKind::SameObject:
      OS << " = ";
      break;
    case ConstraintKind::NotSameObject:
      OS << " != ";
      break;
    }
    OS << P.var(A.B).Name;
  }
  return OS.str();
}
