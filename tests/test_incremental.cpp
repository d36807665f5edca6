//===- tests/test_incremental.cpp - Incremental re-analysis tests ---------===//
//
// The incremental-driver correctness oracle (byte-identical stats JSON
// against a cold full run after every edit of a 50-edit stream), the
// strictly-fewer-clusters guarantees for single-function edits, the
// one-key-per-run cache and store accounting, the Steensgaard adoption
// fast path, and the stability properties of the dependency-scope
// machinery in core/ClusterDependencies.h.
//
//===----------------------------------------------------------------------===//

#include "core/ClusterDependencies.h"
#include "core/IncrementalDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "ir/Fingerprint.h"
#include "support/Statistics.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>

using namespace bsaa;
using namespace bsaa::core;

namespace {

std::unique_ptr<ir::Program> compileOk(const std::string &Src) {
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

std::unique_ptr<ir::Program> compileVersion(const workload::GeneratorConfig &C,
                                            const workload::EditState &St) {
  return compileOk(workload::generateProgram(C, St));
}

/// The bench/ablation_incremental.cpp workload shrunk for test time:
/// no recursion and no cross-community copies keep dependency cones
/// small, so single-function edits invalidate few clusters.
workload::GeneratorConfig editableConfig(uint32_t NumFunctions) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = NumFunctions;
  Cfg.StmtsPerFunction = 18;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

BootstrapOptions baseOptions() {
  BootstrapOptions Opts;
  Opts.AndersenThreshold = 60;
  Opts.EngineOpts.StepBudget = 50000;
  return Opts;
}

/// Timing- and cache-counter-stripped stats JSON: the byte-identity
/// oracle format (timings are never repeatable; cache counters are
/// cumulative over the cache's lifetime).
const StatsJsonOptions Strip{/*IncludeTimings=*/false,
                             /*IncludeCacheStats=*/false};

/// A cold full run over the current version with fresh caches and a
/// fresh Statistics registry -- the reference the incremental result
/// must match byte for byte.
std::string coldReferenceJson(const workload::GeneratorConfig &Cfg,
                              const workload::EditState &St,
                              const BootstrapOptions &Opts) {
  Statistics::global().clear();
  std::unique_ptr<ir::Program> P = compileVersion(Cfg, St);
  BootstrapDriver Full(*P, Opts);
  BootstrapResult R = Full.runAll();
  return toStatsJson(R, Strip);
}

} // namespace

//===--------------------------------------------------------------------===//
// The oracle: 50 edits, byte-identical to a cold run after each.
//===--------------------------------------------------------------------===//

TEST(Incremental, FiftyEditStreamMatchesColdRunByteForByte) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  Cfg.StmtsPerFunction = 10; // Keep 51 full re-runs affordable.
  BootstrapOptions Opts = baseOptions();
  Opts.AndersenThreshold = 6; // Exercise the Andersen refinement path too.
  Opts.EngineOpts.StepBudget = 20000;

  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, /*NumEdits=*/50, /*StreamSeed=*/7);
  ASSERT_EQ(Edits.size(), 50u);
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  for (uint32_t I = 0; I <= Edits.size(); ++I) {
    if (I > 0)
      workload::applyEdit(St, Edits[I - 1]);
    UpdateReport Rep;
    const BootstrapResult &IR = Incr.update(compileVersion(Cfg, St), &Rep);
    std::string IncrJson = toStatsJson(IR, Strip);
    ASSERT_EQ(IncrJson, coldReferenceJson(Cfg, St, Opts))
        << "divergence at edit " << I << " (kind "
        << (I == 0 ? -1 : int(Edits[I - 1].Kind)) << ")";
    // Every cluster is accounted for exactly once.
    EXPECT_EQ(Rep.ClustersReanalyzed + Rep.ClustersFromCache, Rep.NumClusters)
        << "at edit " << I;
  }
}

//===--------------------------------------------------------------------===//
// One key per run.
//===--------------------------------------------------------------------===//

TEST(Incremental, EveryComputedRunIsCachedAndStoredUnderOneKey) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / "bsaa_incr_XXXXXX").string();
  ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
  {
    workload::GeneratorConfig Cfg = editableConfig(10);
    workload::EditState St = workload::initialEditState(Cfg);
    BootstrapOptions Opts = baseOptions();
    Opts.StorePath = Dir;
    IncrementalDriver Incr(Opts);
    UpdateReport Rep;
    Incr.update(compileVersion(Cfg, St), &Rep);

    // Fresh caches: every cluster computes, and each computed run is
    // memoized -- and written through -- exactly once, under its one
    // (scope) key.
    const fscs::SummaryCache &Cache = *Incr.options().SummaryCache;
    ASSERT_GT(Rep.ClustersReanalyzed, 0u);
    EXPECT_EQ(Cache.size(), Rep.ClustersReanalyzed);
    EXPECT_EQ(Cache.counters().StorePuts, Rep.ClustersReanalyzed);
    EXPECT_EQ(Cache.counters().Inserts, Rep.ClustersReanalyzed);
  }
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

//===--------------------------------------------------------------------===//
// Reuse guarantees per edit kind.
//===--------------------------------------------------------------------===//

TEST(Incremental, SingleMutateReanalyzesStrictlyFewerClusters) {
  workload::GeneratorConfig Cfg = editableConfig(12);
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  UpdateReport Init;
  Incr.update(compileVersion(Cfg, St), &Init);
  // The first version is all-cold by definition.
  EXPECT_EQ(Init.ClustersFromCache, 0u);
  EXPECT_EQ(Init.ClustersReanalyzed, Init.NumClusters);
  EXPECT_FALSE(Init.SteensgaardAdopted);

  // Mutate one function: shape (and therefore every id in the program)
  // is stable, so exactly the clusters whose dependency cone contains
  // the edited function can miss.
  workload::applyEdit(St, {workload::EditKind::Mutate, /*Function=*/4});
  UpdateReport Rep;
  Incr.update(compileVersion(Cfg, St), &Rep);

  EXPECT_EQ(Rep.NumClusters, Init.NumClusters);
  EXPECT_GT(Rep.ClustersFromCache, 0u) << "no reuse on a one-function edit";
  EXPECT_LT(Rep.ClustersReanalyzed, Rep.NumClusters);
  EXPECT_GT(Rep.ClustersReanalyzed, 0u) << "the edited cone must re-run";
  // The dependency index predicted every miss.
  EXPECT_LE(Rep.ClustersReanalyzed, Rep.PredictedInvalidated);
  ASSERT_EQ(Rep.ChangedFunctions.size(), 1u);
  EXPECT_EQ(Rep.ChangedFunctions[0], "f4");
  EXPECT_TRUE(Rep.AddedFunctions.empty());
  EXPECT_TRUE(Rep.RemovedFunctions.empty());
}

TEST(Incremental, AppendReanalyzesOnlyTheNewFunctionsClusters) {
  workload::GeneratorConfig Cfg = editableConfig(12);
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  UpdateReport Init;
  Incr.update(compileVersion(Cfg, St), &Init);

  // Appended functions are named and shaped to land strictly at the end
  // of the frontend's numbering, so every pre-existing cluster replays.
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/0});
  UpdateReport Rep;
  Incr.update(compileVersion(Cfg, St), &Rep);

  EXPECT_GE(Rep.NumClusters, Init.NumClusters);
  EXPECT_EQ(Rep.ClustersFromCache, Init.NumClusters)
      << "an append must replay every pre-existing cluster";
  EXPECT_EQ(Rep.ClustersReanalyzed, Rep.NumClusters - Init.NumClusters);
  ASSERT_EQ(Rep.AddedFunctions.size(), 1u);
  EXPECT_EQ(Rep.AddedFunctions[0], "x0");
  EXPECT_TRUE(Rep.ChangedFunctions.empty());
  EXPECT_TRUE(Rep.RemovedFunctions.empty());
}

TEST(Incremental, TouchAdoptsSteensgaardAndReplaysEverything) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  UpdateReport Init;
  std::string First =
      toStatsJson(Incr.update(compileVersion(Cfg, St), &Init), Strip);

  // Resubmitting the identical program is the no-op-edit fast path:
  // the partition-relevant fingerprint matches, so Steensgaard is
  // adopted and every cluster replays from cache.
  UpdateReport Rep;
  std::string Second =
      toStatsJson(Incr.update(compileVersion(Cfg, St), &Rep), Strip);

  EXPECT_TRUE(Rep.SteensgaardAdopted);
  EXPECT_EQ(Rep.ClustersReanalyzed, 0u);
  EXPECT_EQ(Rep.ClustersFromCache, Rep.NumClusters);
  EXPECT_TRUE(Rep.ChangedFunctions.empty());
  EXPECT_TRUE(Rep.AddedFunctions.empty());
  EXPECT_TRUE(Rep.RemovedFunctions.empty());
  EXPECT_EQ(First, Second);
}

TEST(Incremental, StubForcesConservativeButCorrectReanalysis) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  Cfg.StmtsPerFunction = 10;
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  Incr.update(compileVersion(Cfg, St), nullptr);

  // A stub shrinks the body, shifting every downstream id: reuse may
  // collapse, but the oracle must still hold.
  workload::applyEdit(St, {workload::EditKind::Stub, /*Function=*/3});
  UpdateReport Rep;
  const BootstrapResult &IR = Incr.update(compileVersion(Cfg, St), &Rep);
  // The shrunken body shifts the LocIds of every function lowered after
  // f3, so the fingerprint delta legitimately names them all -- but the
  // stubbed function itself must be in it.
  EXPECT_TRUE(std::find(Rep.ChangedFunctions.begin(),
                        Rep.ChangedFunctions.end(),
                        "f3") != Rep.ChangedFunctions.end());
  EXPECT_EQ(toStatsJson(IR, Strip), coldReferenceJson(Cfg, St, Opts));
}

//===--------------------------------------------------------------------===//
// Dependency-scope machinery.
//===--------------------------------------------------------------------===//

TEST(ClusterDependencies, DependentFunctionsContainOwnersAndCallers) {
  const char *Src = R"(
    int *leaf(int *p) { return p; }
    int *mid(int *q) { int *t; t = leaf(q); return t; }
    void main(void) {
      int a; int *x; int *y;
      x = &a;
      y = mid(x);
    }
  )";
  auto P = compileOk(Src);
  BootstrapOptions Opts;
  Opts.AndersenThreshold = 1;
  BootstrapDriver Driver(*P, Opts);
  Driver.steensgaard();
  std::vector<Cluster> Cover = Driver.buildCover();
  const ir::CallGraph &CG = Driver.callGraph();

  for (const Cluster &C : Cover) {
    std::vector<ir::FuncId> D = dependentFunctions(*P, CG, C);
    std::set<ir::FuncId> InD(D.begin(), D.end());
    // Anchors: the entry function and every owner of a member, tracked
    // ref, or slice statement.
    EXPECT_TRUE(InD.count(P->entryFunction()));
    for (ir::VarId V : C.Members) {
      if (P->var(V).Owner != ir::InvalidFunc) {
        EXPECT_TRUE(InD.count(P->var(V).Owner))
            << "member owner missing for " << P->var(V).Name;
      }
    }
    for (ir::LocId L : C.Statements)
      EXPECT_TRUE(InD.count(P->loc(L).Owner));
    // Closure: callers of anything in D are in D.
    for (ir::FuncId F : D)
      for (ir::FuncId Caller : CG.callers(F))
        EXPECT_TRUE(InD.count(Caller))
            << P->func(Caller).Name << " calls " << P->func(F).Name
            << " but is outside the dependency cone";
  }
}

TEST(ClusterDependencies, ScopeKeysSurviveAnAppendEdit) {
  // The whole point of the scope key: clusters untouched by an edit
  // keep their key even though partition ids, hierarchy-node ids and
  // the whole-program fingerprint all change.
  workload::GeneratorConfig Cfg = editableConfig(10);
  workload::EditState St = workload::initialEditState(Cfg);
  auto P0 = compileVersion(Cfg, St);
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/0});
  auto P1 = compileVersion(Cfg, St);

  BootstrapOptions Opts = baseOptions();
  BootstrapDriver D0(*P0, Opts), D1(*P1, Opts);
  const analysis::SteensgaardAnalysis &S0 = D0.steensgaard();
  const analysis::SteensgaardAnalysis &S1 = D1.steensgaard();
  std::vector<Cluster> Cover0 = D0.buildCover();
  std::vector<Cluster> Cover1 = D1.buildCover();

  // Appends preserve every existing VarId, so clusters pair up by
  // member list.
  std::map<std::vector<ir::VarId>, support::Digest> Keys0;
  for (const Cluster &C : Cover0)
    Keys0.emplace(C.Members,
                  clusterScopeKey(*P0, D0.callGraph(), S0, C, Opts.EngineOpts));
  uint32_t Matched = 0;
  for (const Cluster &C : Cover1) {
    auto It = Keys0.find(C.Members);
    if (It == Keys0.end())
      continue; // The appended function's own clusters are new.
    ++Matched;
    support::Digest K1 =
        clusterScopeKey(*P1, D1.callGraph(), S1, C, Opts.EngineOpts);
    EXPECT_EQ(It->second.Hi, K1.Hi);
    EXPECT_EQ(It->second.Lo, K1.Lo);
  }
  // Every pre-existing cluster must have survived and matched.
  EXPECT_EQ(Matched, Cover0.size());
}

TEST(ClusterDependencies, TableKeysMatchTheWrapperAndAgreeAcrossDrivers) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  workload::EditState St = workload::initialEditState(Cfg);
  auto P = compileVersion(Cfg, St);
  BootstrapOptions Opts = baseOptions();
  Opts.ScopedSummaryKeys = true;

  // The driver derives every run key from its per-version tables.
  BootstrapDriver D0(*P, Opts), D1(*P, Opts);
  std::vector<Cluster> Cover0 = D0.buildCover();
  std::vector<Cluster> Cover1 = D1.buildCover();
  BootstrapResult R0 = D0.runAll(Cover0);
  BootstrapResult R1 = D1.runAll(Cover1);
  ASSERT_EQ(R0.Clusters.size(), Cover0.size());
  ASSERT_EQ(R1.Clusters.size(), R0.Clusters.size());
  ASSERT_FALSE(Cover0.empty());
  for (size_t I = 0; I < Cover0.size(); ++I) {
    support::Digest Wrapped = clusterScopeKey(*P, D0.callGraph(),
                                              D0.steensgaard(), Cover0[I],
                                              Opts.EngineOpts);
    EXPECT_EQ(R0.Clusters[I].RunKey, Wrapped) << "cluster " << I;
    // A second, independently solved driver over the same program.
    EXPECT_EQ(R1.Clusters[I].RunKey, R0.Clusters[I].RunKey) << "cluster " << I;
  }
}

TEST(ClusterDependencies, AdoptedMutateKeepsEveryKeyOutsideTheEditedCone) {
  // A mutate edit (same statement shape, new operands) to `pick` that
  // touches no unification-relevant statement: it re-draws a branch
  // condition, so the Steensgaard adoption gate holds and every id stays
  // put. (Generated mutate streams re-draw copies too, which re-solves.)
  const char *Before = R"(
    int x; int y; int z;
    int *g1;
    int *pick(int *a, int *b, int c, int d, int e) {
      int *r;
      if (c == d) { r = a; } else { r = b; }
      return r;
    }
    void other(void) {
      int *s; int *t;
      s = &z;
      t = s;
    }
    void main(void) {
      int *p; int *q; int c; int d; int e;
      p = &x;
      q = &y;
      g1 = pick(p, q, c, d, e);
      other();
    }
  )";
  std::string After = Before;
  After.replace(After.find("if (c == d)"), 11, "if (c == e)");
  auto P0 = compileOk(Before);
  auto P1 = compileOk(After);
  ASSERT_EQ(ir::partitionRelevantFingerprint(*P0),
            ir::partitionRelevantFingerprint(*P1));
  ir::FuncId Edited = P1->findFunction("pick");
  ASSERT_NE(Edited, ir::InvalidFunc);
  ASSERT_NE(ir::functionFingerprint(*P0, Edited),
            ir::functionFingerprint(*P1, Edited));

  BootstrapOptions Opts = baseOptions();
  Opts.AndersenThreshold = 1;
  BootstrapDriver D0(*P0, Opts);
  const analysis::SteensgaardAnalysis &S0 = D0.steensgaard();
  BootstrapOptions AdoptOpts = Opts;
  AdoptOpts.AdoptSteensgaard = &S0;
  BootstrapDriver D1(*P1, AdoptOpts);
  const analysis::SteensgaardAnalysis &S1 = D1.steensgaard();
  std::vector<Cluster> Cover0 = D0.buildCover();
  std::vector<Cluster> Cover1 = D1.buildCover();
  ScopeKeyTables T0(*P0, S0), T1(*P1, S1);

  std::map<std::vector<ir::VarId>, support::Digest> Keys0;
  for (const Cluster &C : Cover0)
    Keys0.emplace(C.Members,
                  clusterScopeKey(D0.callGraph(), T0, C, Opts.EngineOpts));
  uint32_t Kept = 0, Changed = 0;
  for (const Cluster &C : Cover1) {
    auto It = Keys0.find(C.Members);
    if (It == Keys0.end())
      continue;
    support::Digest K1 =
        clusterScopeKey(D1.callGraph(), T1, C, Opts.EngineOpts);
    std::vector<ir::FuncId> Cone = dependentFunctions(*P1, D1.callGraph(), C);
    if (std::find(Cone.begin(), Cone.end(), Edited) == Cone.end()) {
      EXPECT_EQ(It->second, K1)
          << "a cluster whose cone excludes the edit lost its key";
      ++Kept;
    } else if (It->second != K1) {
      ++Changed;
    }
  }
  EXPECT_GT(Kept, 0u);
  EXPECT_GT(Changed, 0u) << "no cluster over the edited function re-keyed";
}

TEST(ClusterDependencies, StubShiftedIdsChangeEveryKeyWhoseScopeHoldsThem) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  Cfg.StmtsPerFunction = 10;
  workload::EditState St = workload::initialEditState(Cfg);
  auto P0 = compileVersion(Cfg, St);
  workload::applyEdit(St, {workload::EditKind::Stub, /*Function=*/3});
  auto P1 = compileVersion(Cfg, St);

  BootstrapOptions Opts = baseOptions();
  BootstrapDriver D0(*P0, Opts), D1(*P1, Opts);
  ScopeKeyTables T0(*P0, D0.steensgaard()), T1(*P1, D1.steensgaard());
  std::vector<Cluster> Cover0 = D0.buildCover();
  std::vector<Cluster> Cover1 = D1.buildCover();
  std::set<std::pair<uint64_t, uint64_t>> Keys0;
  for (const Cluster &C : Cover0) {
    support::Digest K =
        clusterScopeKey(D0.callGraph(), T0, C, Opts.EngineOpts);
    Keys0.insert({K.Hi, K.Lo});
  }

  // A function holds a shifted id when its signature or location ids
  // differ from its namesake's in the previous version.
  auto Shifted = [&](ir::FuncId F) {
    const ir::Function &New = P1->func(F);
    ir::FuncId OldF = P0->findFunction(New.Name);
    if (OldF == ir::InvalidFunc)
      return true;
    const ir::Function &Old = P0->func(OldF);
    return Old.Locations != New.Locations || Old.Params != New.Params ||
           Old.RetVal != New.RetVal || Old.Entry != New.Entry;
  };
  uint32_t ShiftedScopes = 0;
  for (const Cluster &C : Cover1) {
    std::vector<ir::FuncId> Cone = dependentFunctions(*P1, D1.callGraph(), C);
    if (std::none_of(Cone.begin(), Cone.end(), Shifted))
      continue;
    ++ShiftedScopes;
    support::Digest K =
        clusterScopeKey(D1.callGraph(), T1, C, Opts.EngineOpts);
    EXPECT_EQ(Keys0.count({K.Hi, K.Lo}), 0u)
        << "a scope holding shifted ids kept a previous version's key";
  }
  EXPECT_GT(ShiftedScopes, 0u);
}

TEST(ClusterDependencies, IndexCoversEveryClusterThroughItsCone) {
  workload::GeneratorConfig Cfg = editableConfig(8);
  workload::EditState St = workload::initialEditState(Cfg);
  auto P = compileVersion(Cfg, St);
  BootstrapOptions Opts = baseOptions();
  BootstrapDriver D(*P, Opts);
  D.steensgaard();
  std::vector<Cluster> Cover = D.buildCover();

  std::vector<std::vector<uint32_t>> Index =
      buildClusterDependencyIndex(*P, D.callGraph(), Cover);
  ASSERT_EQ(Index.size(), P->numFuncs());
  // Index[F] lists exactly the clusters whose cone contains F.
  for (uint32_t I = 0; I < Cover.size(); ++I) {
    std::vector<ir::FuncId> D_I = dependentFunctions(*P, D.callGraph(), Cover[I]);
    std::set<ir::FuncId> InD(D_I.begin(), D_I.end());
    for (ir::FuncId F = 0; F < P->numFuncs(); ++F) {
      bool Listed = std::find(Index[F].begin(), Index[F].end(), I) !=
                    Index[F].end();
      EXPECT_EQ(Listed, InD.count(F) > 0)
          << "cluster " << I << " vs function " << P->func(F).Name;
    }
  }
}
