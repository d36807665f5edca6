//===- fscs/ClusterAliasAnalysis.cpp - Per-cluster FSCS queries -----------===//

#include "fscs/ClusterAliasAnalysis.h"

#include "analysis/Steensgaard.h"
#include "fscs/Dovetail.h"
#include "support/FlatHashSet.h"
#include "support/SparseBitVector.h"

#include <algorithm>
#include <deque>

using namespace bsaa;
using namespace bsaa::fscs;
using namespace bsaa::ir;

namespace {

uint64_t refHash(Ref R) {
  return (uint64_t(R.Var) << 2) | uint64_t(uint8_t(R.Deref + 1));
}

} // namespace

ClusterAliasAnalysis::ClusterAliasAnalysis(
    const Program &P, const CallGraph &CG,
    const analysis::SteensgaardAnalysis &Steens, const core::Cluster &C)
    : ClusterAliasAnalysis(P, CG, Steens, C, SummaryEngine::Options()) {}

ClusterAliasAnalysis::ClusterAliasAnalysis(
    const Program &P, const CallGraph &CG,
    const analysis::SteensgaardAnalysis &Steens, const core::Cluster &C,
    SummaryEngine::Options Opts)
    : Prog(P), CG(CG), Steens(Steens), Clu(C), EngineOpts(Opts),
      Engine(std::make_unique<SummaryEngine>(P, CG, Steens, C, Opts)) {}

void ClusterAliasAnalysis::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  // After preparePartial() this re-runs the same deterministic order:
  // the warmed prefix is memoized and fast-forwards.
  DoveStats = dovetail(*Engine, Prog, Steens, Clu);
}

bool ClusterAliasAnalysis::preparePartial(size_t MaxFsciQueries) {
  if (Prepared)
    return true;
  if (!Partial)
    Partial = std::make_unique<PartialState>();
  DoveStats = dovetail(*Engine, Prog, Steens, Clu, MaxFsciQueries);
  if (DoveStats.Complete)
    Prepared = true;
  return Prepared;
}

void ClusterAliasAnalysis::adoptState(SummaryEngine::State S,
                                      const DovetailStats &D) {
  Engine->importState(std::move(S));
  DoveStats = D;
  // The adopted state already contains the dovetail warmup's FSCI memo;
  // running prepare() again would only re-issue memoized queries. Any
  // walker engine seeded from the pre-adoption memo is stale by
  // construction -- drop it so the next definite query re-seeds.
  Partial.reset();
  Prepared = true;
}

void ClusterAliasAnalysis::ensurePrepared() { prepare(); }

//===--------------------------------------------------------------------===//
// FSCI queries
//===--------------------------------------------------------------------===//

/// The FSCI caller-walk shared by the full and definite-only queries:
/// resolve origins at \p Loc, then splice unresolved ones through every
/// caller chain (Algorithm 3's any-context union).
SparseBitVector ClusterAliasAnalysis::walkOrigins(SummaryEngine &E, VarId V,
                                                  LocId Loc) {
  SparseBitVector Objects;
  FlatHashSet Visited;
  std::deque<std::pair<FuncId, Ref>> Queue;
  std::vector<SummaryEngine::OriginResult> Origins;

  auto Handle = [&](FuncId Owner) {
    for (const SummaryEngine::OriginResult &T : Origins) {
      if (!E.satisfiable(T.Cond))
        continue;
      if (T.isResolved()) {
        Objects.set(T.Origin.Var);
        continue;
      }
      if (Owner == Prog.entryFunction() || CG.callers(Owner).empty()) {
        // Value flows from an uninitialized entry state: the chain is
        // complete (it has no origin object).
        continue;
      }
      uint64_t H = (uint64_t(Owner) << 34) ^ refHash(T.Origin);
      if (Visited.insert(H))
        Queue.emplace_back(Owner, T.Origin);
    }
  };

  E.originsBefore(Loc, Ref::direct(V), Origins);
  Handle(Prog.loc(Loc).Owner);
  while (!Queue.empty()) {
    auto [F, W] = Queue.front();
    Queue.pop_front();
    for (FuncId Caller : CG.callers(F))
      for (LocId C : CG.callSites(Caller, F)) {
        E.originsBefore(C, W, Origins);
        Handle(Caller);
      }
  }
  return Objects;
}

ClusterAliasAnalysis::PointsToResult
ClusterAliasAnalysis::pointsTo(VarId V, LocId Loc) {
  ensurePrepared();
  PointsToResult Out;
  Out.Objects = walkOrigins(*Engine, V, Loc).toVector();
  Out.Complete =
      !Engine->budgetExhausted() && !Engine->hasApproximation();
  return Out;
}

SummaryEngine &ClusterAliasAnalysis::definiteEngine() {
  if (!Partial)
    Partial = std::make_unique<PartialState>();
  size_t MemoSize = Engine->fsciMemoSize();
  if (!Partial->DefEngine) {
    SummaryEngine::Options DefOpts = EngineOpts;
    DefOpts.DefiniteOnly = true;
    Partial->DefEngine = std::make_unique<SummaryEngine>(
        Prog, CG, Steens, Clu, DefOpts);
  } else if (Partial->InjectedMemoSize == MemoSize) {
    return *Partial->DefEngine;
  } else {
    // The dovetail advanced since the last injection: rebuild the
    // walker so it sees the longer exact prefix. (Its summary keys are
    // cheap to recompute -- definite-only chains never branch.)
    SummaryEngine::Options DefOpts = EngineOpts;
    DefOpts.DefiniteOnly = true;
    Partial->DefEngine = std::make_unique<SummaryEngine>(
        Prog, CG, Steens, Clu, DefOpts);
  }
  SummaryEngine::State Seed;
  Seed.FsciMemo = Engine->fsciMemoSnapshot();
  Partial->DefEngine->importState(std::move(Seed));
  Partial->InjectedMemoSize = MemoSize;
  return *Partial->DefEngine;
}

ClusterAliasAnalysis::PointsToResult
ClusterAliasAnalysis::pointsToDefinite(VarId V, LocId Loc) {
  PointsToResult Out;
  Out.Objects = walkOrigins(definiteEngine(), V, Loc).toVector();
  // Definite-only results under-approximate: a "no" verdict needs the
  // fully prepared analysis, so the result is never complete.
  Out.Complete = false;
  return Out;
}

bool ClusterAliasAnalysis::mayAlias(VarId A, VarId B, LocId Loc) {
  if (A == B)
    return true;
  PointsToResult PA = pointsTo(A, Loc);
  PointsToResult PB = pointsTo(B, Loc);
  // Sorted vectors: linear intersection test.
  size_t I = 0, J = 0;
  while (I < PA.Objects.size() && J < PB.Objects.size()) {
    if (PA.Objects[I] < PB.Objects[J])
      ++I;
    else if (PA.Objects[I] > PB.Objects[J])
      ++J;
    else
      return true;
  }
  return false;
}

bool ClusterAliasAnalysis::mustAlias(VarId A, VarId B, LocId Loc) {
  if (A == B)
    return true;
  PointsToResult PA = pointsTo(A, Loc);
  PointsToResult PB = pointsTo(B, Loc);
  return PA.Complete && PB.Complete && PA.Objects.size() == 1 &&
         PA.Objects == PB.Objects;
}

//===--------------------------------------------------------------------===//
// Context-sensitive queries
//===--------------------------------------------------------------------===//

ClusterAliasAnalysis::PointsToResult
ClusterAliasAnalysis::pointsToInContext(VarId V, LocId Loc,
                                        const Context &Ctx) {
  ensurePrepared();
  PointsToResult Out;
  SparseBitVector Objects;
  bool Complete = true;

  // Work items: (ref, location to query before, remaining context
  // depth). The context is consumed innermost-out.
  struct Item {
    Ref R;
    LocId At;
    size_t Depth; ///< Number of context frames still below us.
  };
  std::deque<Item> Queue;
  FlatHashSet Visited;
  auto Push = [&](Ref R, LocId At, size_t Depth) {
    uint64_t H = refHash(R) ^ (uint64_t(At) << 24) ^
                 (uint64_t(Depth) << 54);
    if (Visited.insert(H))
      Queue.push_back(Item{R, At, Depth});
  };
  Push(Ref::direct(V), Loc, Ctx.size());

  std::vector<SummaryEngine::OriginResult> Origins;
  while (!Queue.empty()) {
    Item It = Queue.front();
    Queue.pop_front();
    Engine->originsBefore(It.At, It.R, Origins);
    for (const SummaryEngine::OriginResult &T : Origins) {
      if (!Engine->satisfiable(T.Cond))
        continue;
      if (T.isResolved()) {
        Objects.set(T.Origin.Var);
        continue;
      }
      if (It.Depth == 0) {
        // Unresolved at the outermost frame's entry: uninitialized.
        continue;
      }
      // Splice into the caller at the specific context call site.
      LocId CallSite = Ctx[It.Depth - 1];
      Push(T.Origin, CallSite, It.Depth - 1);
    }
  }

  Out.Objects = Objects.toVector();
  Out.Complete = Complete && !Engine->budgetExhausted() &&
                 !Engine->hasApproximation();
  return Out;
}

bool ClusterAliasAnalysis::mayAliasInContext(VarId A, VarId B, LocId Loc,
                                             const Context &Ctx) {
  if (A == B)
    return true;
  PointsToResult PA = pointsToInContext(A, Loc, Ctx);
  PointsToResult PB = pointsToInContext(B, Loc, Ctx);
  size_t I = 0, J = 0;
  while (I < PA.Objects.size() && J < PB.Objects.size()) {
    if (PA.Objects[I] < PB.Objects[J])
      ++I;
    else if (PA.Objects[I] > PB.Objects[J])
      ++J;
    else
      return true;
  }
  return false;
}

bool ClusterAliasAnalysis::mustAliasInContext(VarId A, VarId B, LocId Loc,
                                              const Context &Ctx) {
  if (A == B)
    return true;
  PointsToResult PA = pointsToInContext(A, Loc, Ctx);
  PointsToResult PB = pointsToInContext(B, Loc, Ctx);
  return PA.Complete && PB.Complete && PA.Objects.size() == 1 &&
         PA.Objects == PB.Objects;
}
