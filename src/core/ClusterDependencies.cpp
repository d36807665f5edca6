//===- core/ClusterDependencies.cpp - Cluster dependency scopes -----------===//

#include "core/ClusterDependencies.h"

#include "analysis/Steensgaard.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

using namespace bsaa;
using namespace bsaa::core;
using namespace bsaa::ir;

std::vector<FuncId> core::dependentFunctions(const Program &P,
                                             const CallGraph &CG,
                                             const Cluster &C) {
  uint32_t N = P.numFuncs();
  std::vector<uint8_t> InD(N, 0);
  std::vector<FuncId> Out, WL;
  auto Add = [&](FuncId F) {
    if (F != InvalidFunc && F < N && !InD[F]) {
      InD[F] = 1;
      Out.push_back(F);
      WL.push_back(F);
    }
  };
  // R: where traversals start. Global queries anchor at the entry
  // function; member / tracked-ref owners and slice-statement owners
  // are where update sequences live.
  Add(P.entryFunction());
  for (LocId L : C.Statements)
    Add(P.loc(L).Owner);
  for (VarId V : C.Members)
    Add(P.var(V).Owner);
  for (const Ref &R : C.TrackedRefs)
    if (R.valid())
      Add(P.var(R.Var).Owner);
  // callers*(R): unresolved origins propagate upward through every
  // transitive caller (summary splicing and the FSCI caller walk).
  while (!WL.empty()) {
    FuncId F = WL.back();
    WL.pop_back();
    for (FuncId Caller : CG.callers(F))
      Add(Caller);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

namespace {

/// Name standing in for "no partition / no successor".
constexpr uint32_t NoName = 0xffffffffu;

/// Identity, type record and pointee-cell name of one variable, by raw
/// id (a key hit must certify cached VarIds verbatim).
void hashVarRecord(support::ContentHasher &H, const Program &P,
                   const ScopeKeyTables &T, VarId V) {
  H.u32(V);
  if (V == InvalidVar)
    return;
  const Variable &Var = P.var(V);
  H.u32(uint32_t(Var.Kind));
  H.u32(uint32_t(Var.Base));
  H.u32(Var.PtrDepth);
  H.u32(Var.Owner);
  H.u32(T.cellName(V));
}

void hashDigest(support::ContentHasher &H, const support::Digest &D) {
  H.u64(D.Hi);
  H.u64(D.Lo);
}

} // namespace

ScopeKeyTables::ScopeKeyTables(const Program &P,
                               const analysis::SteensgaardAnalysis &S)
    : Prog(P), Steens(S) {
  uint32_t NV = P.numVars();
  uint32_t NP = S.numPartitions();

  // Pointee-cell names. mayAlias between variables is pointee-*cell*
  // equality, strictly finer than sharing a partition; raw cell ids are
  // union-find representatives, meaningless across solver instances.
  // Scanning variables in ascending order, the first one seen per cell
  // is its smallest.
  CellNames.resize(NV);
  {
    std::vector<uint32_t> Cell(NV);
    uint32_t MaxCell = 0;
    for (VarId V = 0; V < NV; ++V) {
      Cell[V] = S.pointeeClassOf(V);
      MaxCell = std::max(MaxCell, Cell[V]);
    }
    std::vector<VarId> First(NV ? size_t(MaxCell) + 1 : 0, InvalidVar);
    for (VarId V = 0; V < NV; ++V) {
      if (First[Cell[V]] == InvalidVar)
        First[Cell[V]] = V;
      CellNames[V] = First[Cell[V]];
    }
  }

  // Partition and hierarchy-node names. Hierarchy nodes are numbered
  // below the partition count (one per condensation component).
  std::vector<VarId> PartMin(NP);
  std::vector<VarId> NodeMin(NP, NoName);
  std::vector<uint8_t> HasPred(NP, 0);
  for (uint32_t Part = 0; Part < NP; ++Part) {
    PartMin[Part] = S.partitionMembers(Part).front(); // Lists ascend.
    VarId &Node = NodeMin[S.hierarchyNodeOf(Part)];
    Node = std::min(Node, PartMin[Part]);
    // hasPred is a *global* property (anything anywhere pointing into
    // the partition makes stores able to reach it), so it is recorded
    // per partition even though the pointing partition may lie outside
    // any one cluster's scope.
    uint32_t Succ = S.pointsToPartition(Part);
    if (Succ != analysis::InvalidPartition)
      HasPred[Succ] = 1;
  }
  std::vector<uint32_t> ByName(NP);
  std::iota(ByName.begin(), ByName.end(), 0u);
  std::sort(ByName.begin(), ByName.end(), [&](uint32_t A, uint32_t B) {
    return PartMin[A] < PartMin[B];
  });
  PartRank.resize(NP);
  for (uint32_t Rank = 0; Rank < NP; ++Rank)
    PartRank[ByName[Rank]] = Rank;

  // The engine consumes partitions and hierarchy nodes through equality
  // tests (mayAlias, sameHierarchyNode), the numeric depth, successor
  // links and member lists (dereference enumeration walks them, so
  // every member's type record counts).
  RankedPartDigests.resize(NP);
  for (uint32_t Part = 0; Part < NP; ++Part) {
    support::ContentHasher H;
    H.u32(S.depthOfPartition(Part));
    H.u32(NodeMin[S.hierarchyNodeOf(Part)]);
    uint32_t Succ = S.pointsToPartition(Part);
    H.u32(Succ == analysis::InvalidPartition ? NoName : PartMin[Succ]);
    H.boolean(HasPred[Part]);
    const std::vector<VarId> &Members = S.partitionMembers(Part);
    H.u64(Members.size());
    for (VarId V : Members)
      hashVarRecord(H, P, *this, V);
    RankedPartDigests[PartRank[Part]] = H.digest();
  }

  // Full function content, raw ids throughout, plus the records of the
  // variables each function names and the partitions they live in.
  uint32_t NF = P.numFuncs();
  FuncDigests.resize(NF);
  FuncParts.resize(NF);
  for (FuncId F = 0; F < NF; ++F) {
    const Function &Fn = P.func(F);
    support::ContentHasher H;
    std::vector<uint32_t> &Parts = FuncParts[F];
    auto Var = [&](VarId V) {
      hashVarRecord(H, P, *this, V);
      if (V != InvalidVar)
        Parts.push_back(S.partitionOf(V));
    };
    H.u32(F);
    H.u32(Fn.Entry);
    H.u32(Fn.Exit);
    Var(Fn.RetVal);
    Var(Fn.FuncObj);
    H.u64(Fn.Params.size());
    for (VarId V : Fn.Params)
      Var(V);
    H.u64(Fn.Locations.size());
    for (LocId L : Fn.Locations) {
      const Location &Loc = P.loc(L);
      H.u32(L);
      H.u32(uint32_t(Loc.Kind));
      Var(Loc.Lhs);
      Var(Loc.Rhs);
      Var(Loc.IndirectTarget);
      H.u64(Loc.Callees.size());
      for (FuncId G : Loc.Callees)
        H.u32(G);
      H.str(Loc.CondKey);
      H.u64(Loc.CondVars.size());
      for (VarId V : Loc.CondVars)
        Var(V);
      H.u64(Loc.SuccArm.size());
      for (uint8_t A : Loc.SuccArm)
        H.u32(A);
      H.u64(Loc.Succs.size());
      for (LocId Succ : Loc.Succs)
        H.u32(Succ);
      // Preds are the transpose of Succs across the scope: derived.
    }
    FuncDigests[F] = H.digest();
    std::sort(Parts.begin(), Parts.end());
    Parts.erase(std::unique(Parts.begin(), Parts.end()), Parts.end());
    Parts.shrink_to_fit();
  }
}

support::Digest
core::clusterScopeKey(const CallGraph &CG, const ScopeKeyTables &T,
                      const Cluster &C,
                      const fscs::SummaryEngine::Options &Opts) {
  const Program &P = T.program();
  const analysis::SteensgaardAnalysis &Steens = T.steensgaard();
  support::ContentHasher H;
  H.u64(0x53434f50'454b5932ull); // "SCOPEKY2"

  H.u64(Opts.MaxCondAtoms);
  H.u64(Opts.MaxResultsPerKey);
  H.u64(Opts.StepBudget);
  H.u64(Opts.MaxDerefFanout);

  // Cluster identity, raw (same fields as the exact-program key).
  H.u64(C.Members.size());
  for (VarId V : C.Members)
    H.u32(V);
  H.u64(C.TrackedRefs.size());
  for (const Ref &R : C.TrackedRefs) {
    H.u32(R.Var);
    H.i64(R.Deref);
  }
  H.u64(C.Statements.size());
  for (LocId L : C.Statements)
    H.u32(L);
  H.u32(P.entryFunction());

  // Full content of the dependency scope D, one digest per function.
  std::vector<FuncId> D = dependentFunctions(P, CG, C);
  H.u64(D.size());
  for (FuncId F : D) {
    H.u32(F);
    hashDigest(H, T.funcDigest(F));
  }

  // Descent decisions at call sites: reaching a call in D, the engine
  // asks whether the callee's subtree carries slice statements and
  // which ones (transMod aggregates the slice-local modification info
  // of every slice owner reachable from the callee). The callee bodies
  // themselves may be outside D; what the engine reads from them is
  // exactly the set of reachable slice owners, so hash that set per
  // (call site, callee). A function that reaches a slice owner is a
  // transitive caller of it, hence in D, and call-graph components lie
  // wholly inside or outside D: reachability is computed bottom-up over
  // D's components only (numbered callees-first), and every callee
  // outside D reaches the empty set.
  const SccResult &Sccs = CG.sccs();
  std::vector<FuncId> Owners;
  for (LocId L : C.Statements)
    if (P.loc(L).Owner != InvalidFunc)
      Owners.push_back(P.loc(L).Owner);
  std::sort(Owners.begin(), Owners.end());
  Owners.erase(std::unique(Owners.begin(), Owners.end()), Owners.end());
  constexpr uint32_t NotInD = 0xffffffffu;
  std::vector<uint32_t> DComps, CompSlot(Sccs.numComponents(), NotInD);
  for (FuncId F : D)
    if (CompSlot[Sccs.Component[F]] == NotInD) {
      CompSlot[Sccs.Component[F]] = 0;
      DComps.push_back(Sccs.Component[F]);
    }
  std::sort(DComps.begin(), DComps.end());
  for (uint32_t I = 0; I < DComps.size(); ++I)
    CompSlot[DComps[I]] = I;
  // Reach sets as bitmasks over Owners, W words per component.
  size_t W = (Owners.size() + 63) / 64;
  std::vector<uint64_t> Reach(DComps.size() * W, 0);
  std::vector<uint64_t> CompDigest(DComps.size());
  for (uint32_t I = 0; I < DComps.size(); ++I) {
    uint64_t *Mine = Reach.data() + I * W;
    for (FuncId F : Sccs.Members[DComps[I]]) {
      auto It = std::lower_bound(Owners.begin(), Owners.end(), F);
      if (It != Owners.end() && *It == F) {
        size_t K = It - Owners.begin();
        Mine[K / 64] |= uint64_t(1) << (K % 64);
      }
      for (FuncId G : CG.callees(F)) {
        uint32_t J = CompSlot[Sccs.Component[G]];
        if (J < I)
          for (size_t Word = 0; Word < W; ++Word)
            Mine[Word] |= Reach[J * W + Word];
      }
    }
    support::ContentHasher CH;
    uint64_t Count = 0;
    for (size_t Word = 0; Word < W; ++Word)
      Count += std::popcount(Mine[Word]);
    CH.u64(Count);
    for (size_t K = 0; K < Owners.size(); ++K)
      if (Mine[K / 64] >> (K % 64) & 1)
        CH.u32(Owners[K]);
    CompDigest[I] = CH.digest().Lo;
  }
  const uint64_t EmptyReach = support::ContentHasher().u64(0).digest().Lo;
  for (FuncId F : D)
    for (LocId L : CG.callLocations(F))
      for (FuncId G : P.loc(L).Callees) {
        uint32_t J = CompSlot[Sccs.Component[G]];
        H.u32(G);
        H.u64(J == NotInD ? EmptyReach : CompDigest[J]);
      }

  // The cluster's own variables (the scope's are in the function
  // digests, the partitions' members in the partition digests).
  H.u64(C.Members.size());
  for (VarId V : C.Members)
    hashVarRecord(H, P, T, V);
  H.u64(C.TrackedRefs.size());
  for (const Ref &R : C.TrackedRefs)
    hashVarRecord(H, P, T, R.Var);

  // Steensgaard facts the run consults: the partitions of every
  // variable the scope and the cluster name, closed under the
  // points-to successor chain (dereference enumeration walks succ
  // partitions and their member lists), hashed in canonical order.
  std::vector<uint8_t> InRP(Steens.numPartitions(), 0);
  std::vector<uint32_t> RP;
  auto AddPart = [&](uint32_t Part) {
    if (Part != analysis::InvalidPartition && !InRP[Part]) {
      InRP[Part] = 1;
      RP.push_back(Part);
    }
  };
  for (VarId V : C.Members)
    AddPart(Steens.partitionOf(V));
  for (const Ref &R : C.TrackedRefs)
    if (R.Var != InvalidVar)
      AddPart(Steens.partitionOf(R.Var));
  for (FuncId F : D)
    for (uint32_t Part : T.funcPartitions(F))
      AddPart(Part);
  for (size_t I = 0; I < RP.size(); ++I)
    AddPart(Steens.pointsToPartition(RP[I]));
  // Canonical order: by partition name. A partition's digest covers its
  // member list, name included.
  for (uint32_t &Part : RP)
    Part = T.partitionRank(Part);
  std::sort(RP.begin(), RP.end());
  H.u64(RP.size());
  for (uint32_t Rank : RP)
    hashDigest(H, T.rankedPartitionDigest(Rank));

  return H.digest();
}

support::Digest
core::clusterScopeKey(const Program &P, const CallGraph &CG,
                      const analysis::SteensgaardAnalysis &Steens,
                      const Cluster &C,
                      const fscs::SummaryEngine::Options &Opts) {
  return clusterScopeKey(CG, ScopeKeyTables(P, Steens), C, Opts);
}

std::vector<std::vector<uint32_t>>
core::buildClusterDependencyIndex(const Program &P, const CallGraph &CG,
                                  const std::vector<Cluster> &Cover) {
  std::vector<std::vector<uint32_t>> Index(P.numFuncs());
  for (uint32_t I = 0; I < Cover.size(); ++I)
    for (FuncId F : dependentFunctions(P, CG, Cover[I]))
      Index[F].push_back(I);
  return Index;
}
