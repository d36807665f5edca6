//===- tests/test_query.cpp - Query-serving subsystem ---------------------===//
//
// The QueryEngine correctness artillery:
//
//  * a differential oracle over 100 generated programs: every
//    mayAlias / pointsToAt answer the engine serves must equal (when
//    the whole-program FSCS baseline is complete) or soundly
//    over-approximate the baseline's answer;
//  * the fallback chain, forced by a tiny step budget: flagged clusters
//    must route through Andersen / Steensgaard and stay sound;
//  * the inverted index short-circuit, LRU materialization cap, and
//    summary-cache adoption;
//  * concurrent readers during snapshot swaps (run under -DBSAA_TSAN=ON
//    to check the wait-free publish claim for real).
//
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"

#include "analysis/Steensgaard.h"
#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "ir/CallGraph.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace bsaa;
using query::AliasAnswer;
using query::AnswerSource;
using query::PointsToAnswer;
using query::QueryOptions;
using query::QuerySnapshot;

namespace {

std::shared_ptr<ir::Program> makeProgram(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 5;
  Cfg.StmtsPerFunction = 6;
  Cfg.Communities = 2;
  Cfg.LocalsPerFunction = 2;
  Cfg.RecursionPercent = 10;
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P =
      frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return std::shared_ptr<ir::Program>(std::move(P));
}

/// Runs the cascade and wraps its products into a serving snapshot --
/// the same wiring AliasService does, minus the incremental driver.
std::shared_ptr<const QuerySnapshot>
buildSnapshot(std::shared_ptr<const ir::Program> P,
              core::BootstrapOptions BOpts, QueryOptions QOpts) {
  QOpts.EngineOpts = BOpts.EngineOpts;
  core::BootstrapDriver Driver(*P, BOpts);
  Driver.steensgaard();
  std::vector<core::Cluster> Cover = Driver.buildCover();
  core::BootstrapResult Result = Driver.runAll(Cover);
  return QuerySnapshot::build(std::move(P), std::move(Cover),
                              &Result.Clusters, QOpts, BOpts.SummaryCache);
}

bool intersects(const std::vector<ir::VarId> &A,
                const std::vector<ir::VarId> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else
      return true;
  }
  return false;
}

bool isSubset(const std::vector<ir::VarId> &Small,
              const std::vector<ir::VarId> &Big) {
  return std::includes(Big.begin(), Big.end(), Small.begin(), Small.end());
}

std::vector<ir::VarId> pointerVars(const ir::Program &P) {
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isPointer())
      Ptrs.push_back(V);
  return Ptrs;
}

//===--------------------------------------------------------------------===//
// Differential oracle: engine vs whole-program FSCS baseline
//===--------------------------------------------------------------------===//

/// Checks every pointer pair and every pointer's points-to set of one
/// snapshot against a fresh whole-program FSCS baseline, with
/// whole-program Andersen as the soundness corroborator. The engine
/// may be *more precise* than the monolithic baseline -- the smaller
/// per-cluster problems resolve exactly where the whole-program engine
/// had to widen (the paper's precision argument for bootstrapping) --
/// so the contract is:
///
///  * shared-cluster (Fscs-source) verdicts equal the baseline's;
///  * an index-source "no alias" that contradicts the baseline must be
///    corroborated by Andersen (the baseline alias was spurious);
///  * on every rung, an alias both sound analyses report is never
///    missed: (baseline && Andersen) => engine.
///
/// Returns the number of pairs whose baseline verdict was complete
/// (used by the callers to assert the oracle had teeth).
size_t checkAgainstBaseline(const QuerySnapshot &Snap, const ir::Program &P,
                            bool ExpectExact) {
  analysis::SteensgaardAnalysis Steens(P);
  Steens.run();
  ir::CallGraph CG(P);
  core::Cluster Whole = core::wholeProgramCluster(P);
  fscs::ClusterAliasAnalysis Baseline(P, CG, Steens, Whole);
  analysis::AndersenAnalysis And(P);
  And.run();

  std::vector<ir::VarId> Ptrs = pointerVars(P);
  size_t CompletePairs = 0;

  for (size_t I = 0; I < Ptrs.size(); ++I) {
    for (size_t J = I + 1; J < Ptrs.size(); ++J) {
      ir::VarId A = Ptrs[I], B = Ptrs[J];
      ir::LocId Loc = query::canonicalAliasLoc(P, A, B);
      if (Loc == ir::InvalidLoc)
        continue;
      auto PA = Baseline.pointsTo(A, Loc);
      auto PB = Baseline.pointsTo(B, Loc);
      bool BaseMay = intersects(PA.Objects, PB.Objects);
      bool BaseComplete = PA.Complete && PB.Complete;
      bool AndMay = And.mayAlias(A, B);
      AliasAnswer Ans = Snap.mayAliasAt(A, B, Loc);

      // Soundness on every rung: an alias both sound analyses report
      // is real enough that no serving path may drop it.
      if (BaseMay && AndMay)
        EXPECT_TRUE(Ans.MayAlias)
            << "unsound miss on (" << P.var(A).Name << ", "
            << P.var(B).Name << ") via "
            << query::answerSourceName(Ans.Source);

      if (!BaseComplete)
        continue;
      ++CompletePairs;
      if (!ExpectExact)
        continue;
      if (Ans.Source == AnswerSource::Fscs) {
        // A shared cluster reproduces the whole-program verdict
        // exactly (the cascade-agreement property).
        EXPECT_EQ(Ans.MayAlias, BaseMay)
            << "pair (" << P.var(A).Name << ", " << P.var(B).Name << ")";
      } else if (Ans.Source == AnswerSource::Index && !Ans.MayAlias &&
                 BaseMay) {
        // The index was strictly more precise than the monolithic
        // baseline; only legitimate when Andersen corroborates that
        // the baseline's alias was a widening artifact.
        EXPECT_FALSE(AndMay)
            << "index dropped (" << P.var(A).Name << ", "
            << P.var(B).Name << ") without Andersen backing";
      }
    }

    // Points-to: exact on the precise path, sound lower bound
    // (baseline intersected with Andersen) on every path.
    ir::VarId V = Ptrs[I];
    ir::LocId Loc = query::canonicalAliasLoc(P, V, V);
    if (Loc == ir::InvalidLoc)
      continue;
    auto Base = Baseline.pointsTo(V, Loc);
    PointsToAnswer Ans = Snap.pointsToAt(V, Loc);
    if (Base.Complete) {
      std::vector<ir::VarId> AndPts = And.pointsToVars(V);
      std::vector<ir::VarId> Corroborated;
      std::set_intersection(Base.Objects.begin(), Base.Objects.end(),
                            AndPts.begin(), AndPts.end(),
                            std::back_inserter(Corroborated));
      EXPECT_TRUE(isSubset(Corroborated, Ans.Objects)) << P.var(V).Name;
      if (Ans.Complete && ExpectExact)
        EXPECT_EQ(Ans.Objects, Base.Objects) << P.var(V).Name;
    }
  }
  return CompletePairs;
}

TEST(QueryOracle, MatchesWholeProgramBaselineOn100Seeds) {
  size_t TotalCompletePairs = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    BOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
    auto Snap = buildSnapshot(P, BOpts, QueryOptions());
    TotalCompletePairs += checkAgainstBaseline(*Snap, *P, true);

    // Unbudgeted cascade + unbudgeted serving: nothing may have fallen
    // back, and the index must have short-circuited at least sometimes.
    query::SnapshotStats St = Snap->stats();
    EXPECT_EQ(St.AndersenAnswers + St.SteensgaardAnswers, 0u)
        << "fallback taken without any flagged cluster";
    EXPECT_GT(St.IndexAnswers, 0u);
  }
  // The oracle only has teeth if the baseline actually decided pairs.
  EXPECT_GT(TotalCompletePairs, 1000u);
}

TEST(QueryOracle, BudgetedCascadeStaysSoundViaFallbackChain) {
  uint64_t TotalFallbackAnswers = 0;
  uint64_t TotalFlaggedClusters = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    // A step budget tiny enough that real clusters get truncated and
    // flagged -- the configuration the fallback chain exists for.
    BOpts.EngineOpts.StepBudget = 50;
    auto Snap = buildSnapshot(P, BOpts, QueryOptions());
    for (uint32_t CI = 0; CI < Snap->cover().size(); ++CI)
      if (Snap->clusterNeedsFallback(CI))
        ++TotalFlaggedClusters;
    checkAgainstBaseline(*Snap, *P, false);
    query::SnapshotStats St = Snap->stats();
    TotalFallbackAnswers += St.AndersenAnswers + St.SteensgaardAnswers;
  }
  // The acceptance bar: the budget actually flagged clusters and the
  // chain actually served answers through the fallback rungs.
  EXPECT_GT(TotalFlaggedClusters, 0u);
  EXPECT_GT(TotalFallbackAnswers, 0u);
}

TEST(QueryOracle, SteensgaardFallbackArmIsSoundToo) {
  uint64_t SteensAnswers = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    BOpts.EngineOpts.StepBudget = 50;
    QueryOptions QOpts;
    QOpts.UseAndersenFallback = false;
    auto Snap = buildSnapshot(P, BOpts, QOpts);
    checkAgainstBaseline(*Snap, *P, false);
    query::SnapshotStats St = Snap->stats();
    EXPECT_EQ(St.AndersenAnswers, 0u);
    SteensAnswers += St.SteensgaardAnswers;
  }
  EXPECT_GT(SteensAnswers, 0u);
}

//===--------------------------------------------------------------------===//
// Index, LRU, and cache adoption
//===--------------------------------------------------------------------===//

TEST(QueryIndex, CrossClusterPairsNeverMaterializeAnything) {
  std::shared_ptr<ir::Program> P = makeProgram(3);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  auto Snap = buildSnapshot(P, BOpts, QueryOptions());

  // Collect pairs sharing no cluster and query only those.
  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  size_t CrossPairs = 0;
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J) {
      const auto &CA = Snap->clustersOf(Ptrs[I]);
      const auto &CB = Snap->clustersOf(Ptrs[J]);
      std::vector<uint32_t> Shared;
      std::set_intersection(CA.begin(), CA.end(), CB.begin(), CB.end(),
                            std::back_inserter(Shared));
      if (!Shared.empty())
        continue;
      ++CrossPairs;
      AliasAnswer Ans = Snap->mayAlias(Ptrs[I], Ptrs[J]);
      EXPECT_FALSE(Ans.MayAlias);
      EXPECT_EQ(Ans.Source, AnswerSource::Index);
    }
  ASSERT_GT(CrossPairs, 0u) << "generator produced a single-cluster cover";
  query::SnapshotStats St = Snap->stats();
  EXPECT_EQ(St.Materializations, 0u)
      << "index-answerable queries touched FSCS data";
  EXPECT_EQ(St.IndexAnswers, CrossPairs);
}

TEST(QueryLru, CapOfOneStillAnswersExactlyAndEvicts) {
  std::shared_ptr<ir::Program> P = makeProgram(5);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 2; // Many small clusters.
  QueryOptions Tiny;
  Tiny.MaxMaterializedClusters = 1;
  auto Capped = buildSnapshot(P, BOpts, Tiny);
  auto Roomy = buildSnapshot(P, BOpts, QueryOptions());

  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J) {
      AliasAnswer A = Capped->mayAlias(Ptrs[I], Ptrs[J]);
      AliasAnswer B = Roomy->mayAlias(Ptrs[I], Ptrs[J]);
      EXPECT_EQ(A.MayAlias, B.MayAlias);
    }

  query::SnapshotStats St = Capped->stats();
  EXPECT_LE(St.Resident, 1u);
  ASSERT_GT(Roomy->stats().Resident, 1u)
      << "cover too small for the eviction test to mean anything";
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_GT(St.Materializations, St.Resident);
}

TEST(QueryCache, MaterializationAdoptsTheCascadesSummaryRuns) {
  std::shared_ptr<ir::Program> P = makeProgram(7);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  BOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  auto Snap = buildSnapshot(P, BOpts, QueryOptions());

  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J)
      (void)Snap->mayAlias(Ptrs[I], Ptrs[J]);

  query::SnapshotStats St = Snap->stats();
  ASSERT_GT(St.Materializations, 0u);
  // Every materialized cluster replays the cascade's cached run instead
  // of re-running the dovetail from scratch.
  EXPECT_EQ(St.CacheAdoptions, St.Materializations);

  // Scope-keyed runs: after a Mutate edit, AliasService's snapshot
  // adopts both the replayed and the re-analyzed clusters through the
  // keys the incremental cascade recorded. Small dependency cones (no
  // recursion, no cross-community copies) leave clusters to replay.
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = 10;
  Cfg.StmtsPerFunction = 10;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  auto Compile = [&Cfg](const workload::EditState &State) {
    frontend::Diagnostics Diags;
    std::unique_ptr<ir::Program> Q =
        frontend::compileString(workload::generateProgram(Cfg, State), Diags);
    EXPECT_TRUE(Q != nullptr) << Diags.toString();
    return Q;
  };
  core::BootstrapOptions IOpts;
  IOpts.AndersenThreshold = 4;
  query::AliasService Service(IOpts);
  workload::EditState State = workload::initialEditState(Cfg);
  Service.update(Compile(State));
  workload::applyEdit(State, {workload::EditKind::Mutate, /*Function=*/1});
  core::UpdateReport Rep = Service.update(Compile(State));
  EXPECT_GT(Rep.ClustersFromCache, 0u);
  EXPECT_GT(Rep.ClustersReanalyzed, 0u);

  std::shared_ptr<const QuerySnapshot> Edited = Service.engine().snapshot();
  std::vector<ir::VarId> EPtrs = pointerVars(Edited->program());
  for (size_t I = 0; I < EPtrs.size(); ++I)
    for (size_t J = I + 1; J < EPtrs.size(); ++J)
      (void)Edited->mayAlias(EPtrs[I], EPtrs[J]);
  query::SnapshotStats ESt = Edited->stats();
  ASSERT_GT(ESt.Materializations, 0u);
  EXPECT_EQ(ESt.CacheAdoptions, ESt.Materializations);
}

//===--------------------------------------------------------------------===//
// Shared solves
//===--------------------------------------------------------------------===//

TEST(QuerySharing, PublishedSnapshotCoOwnsTheDriversSolves) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 8;
  Cfg.Communities = 3;
  Cfg.PointerFunctionPercent = 60;
  Cfg.RecursionPercent = 0;
  auto Compile = [&Cfg](const workload::EditState &State) {
    frontend::Diagnostics Diags;
    std::unique_ptr<ir::Program> Q =
        frontend::compileString(workload::generateProgram(Cfg, State), Diags);
    EXPECT_TRUE(Q != nullptr) << Diags.toString();
    return Q;
  };
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  query::AliasService Service(BOpts);
  workload::EditState State = workload::initialEditState(Cfg);
  Service.update(Compile(State));

  // The published snapshot reads the analyzing driver's own Steensgaard
  // solve and call graph; nothing is solved twice.
  std::shared_ptr<const QuerySnapshot> Held = Service.engine().snapshot();
  ASSERT_TRUE(Held != nullptr);
  EXPECT_EQ(&Held->steensgaard(), Service.driver().steensgaardPtr().get());
  EXPECT_EQ(&Held->callGraph(), Service.driver().callGraphPtr().get());

  const ir::Program &P = Held->program();
  std::vector<ir::VarId> Ptrs = pointerVars(P);
  ASSERT_FALSE(Ptrs.empty());
  auto Answers = [&] {
    std::vector<std::pair<bool, AnswerSource>> Out;
    for (size_t I = 0; I < Ptrs.size(); ++I)
      for (size_t J = I + 1; J < Ptrs.size(); ++J) {
        AliasAnswer A = Held->mayAlias(Ptrs[I], Ptrs[J]);
        Out.push_back({A.MayAlias, A.Source});
      }
    return Out;
  };
  auto PointsTo = [&] {
    std::vector<std::vector<ir::VarId>> Out;
    for (ir::VarId V : Ptrs)
      Out.push_back(
          Held->pointsToAt(V, query::canonicalAliasLoc(P, V, V)).Objects);
    return Out;
  };
  auto Before = Answers();
  auto PtsBefore = PointsTo();

  // Two further versions: a touch, whose driver adopts the held
  // snapshot's Steensgaard solve, then a mutate. Both replace the
  // driver that produced the held snapshot.
  Service.update(Compile(State));
  workload::applyEdit(State, {workload::EditKind::Mutate, /*Function=*/2});
  Service.update(Compile(State));
  std::shared_ptr<const QuerySnapshot> Latest = Service.engine().snapshot();
  EXPECT_NE(&Latest->steensgaard(), &Held->steensgaard());
  EXPECT_EQ(&Latest->steensgaard(), Service.driver().steensgaardPtr().get());

  // The held snapshot still owns what it reads and answers as before.
  EXPECT_EQ(Answers(), Before);
  EXPECT_EQ(PointsTo(), PtsBefore);
}

//===--------------------------------------------------------------------===//
// Batched evaluation
//===--------------------------------------------------------------------===//

TEST(QueryBatch, ThreadedBatchMatchesSequential) {
  std::shared_ptr<ir::Program> P = makeProgram(11);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  query::QueryEngine Engine;
  Engine.publish(buildSnapshot(P, BOpts, QueryOptions()));

  std::vector<query::MayAliasQuery> Batch;
  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J)
      Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  ASSERT_FALSE(Batch.empty());

  std::vector<uint8_t> Seq = Engine.evalMayAlias(Batch, 0);
  std::vector<uint8_t> Par = Engine.evalMayAlias(Batch, 4);
  EXPECT_EQ(Seq, Par);
  // And against the single-query path.
  for (size_t I = 0; I < Batch.size(); ++I)
    EXPECT_EQ(Seq[I] != 0,
              Engine.mayAlias(Batch[I].A, Batch[I].B).MayAlias);
}

//===--------------------------------------------------------------------===//
// Snapshot swaps under concurrency
//===--------------------------------------------------------------------===//

// Readers hammer the engine while the service commits one program edit
// after another. Each reader pins a snapshot per iteration and must see
// a fully consistent version (its own program, cover, index); the
// publishes must never block or tear. TSan (-DBSAA_TSAN=ON) turns this
// into a real data-race check.
TEST(QueryConcurrency, ReadersKeepAnsweringAcrossSnapshotSwaps) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 21;
  Cfg.NumFunctions = 6;
  Cfg.StmtsPerFunction = 8;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 2;
  Cfg.RecursionPercent = 10;

  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  BOpts.Threads = 2;
  query::AliasService Service(BOpts);

  auto CompileVersion = [&](const workload::EditState &State) {
    frontend::Diagnostics Diags;
    std::unique_ptr<ir::Program> P =
        frontend::compileString(workload::generateProgram(Cfg, State), Diags);
    EXPECT_TRUE(P != nullptr) << Diags.toString();
    return P;
  };

  workload::EditState State = workload::initialEditState(Cfg);
  Service.update(CompileVersion(State));
  ASSERT_TRUE(Service.engine().hasSnapshot());

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> QueriesServed{0};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&, R] {
      uint64_t Rng = 0x9E3779B97F4A7C15ull * (R + 1);
      auto Next = [&Rng] {
        Rng ^= Rng << 13;
        Rng ^= Rng >> 7;
        Rng ^= Rng << 17;
        return Rng;
      };
      while (!Stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const QuerySnapshot> S =
            Service.engine().snapshot();
        // Queries must use ids of the *pinned* snapshot's program:
        // versions differ in numVars, which is the point of pinning.
        const ir::Program &P = S->program();
        ir::VarId A = static_cast<ir::VarId>(Next() % P.numVars());
        ir::VarId B = static_cast<ir::VarId>(Next() % P.numVars());
        (void)S->mayAlias(A, B);
        if (P.var(A).isPointer())
          (void)S->pointsToAt(A, query::canonicalAliasLoc(P, A, A));
        QueriesServed.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, 6, /*StreamSeed=*/99);
  for (const workload::ProgramEdit &E : Edits) {
    workload::applyEdit(State, E);
    Service.update(CompileVersion(State));
  }

  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(QueriesServed.load(), 0u);

  // The final published snapshot serves the final program version.
  std::shared_ptr<const QuerySnapshot> Final = Service.engine().snapshot();
  EXPECT_EQ(&Final->program(), &Service.driver().program());
}

} // namespace
