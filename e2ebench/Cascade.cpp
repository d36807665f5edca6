//===- e2ebench/Cascade.cpp - cold_cascade and warm_restart ---------------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Both workloads push all 20 Table-1 rows through one per-row path
//
//   frontend::compileString -> BootstrapDriver::steensgaard -> buildCover
//   -> runAll -> QuerySnapshot::build -> first-touch + sampled mayAlias
//
// cold_cascade runs it over fresh in-memory caches and no store, so FSCS
// dominates. warm_restart first runs a persist pass that writes through
// to a fresh store (its set-up), then restarts over all-fresh caches and
// the reopened store, so the store and its codecs dominate.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Andersen.h"
#include "analysis/Steensgaard.h"
#include "core/BootstrapDriver.h"
#include "core/StoreCodecs.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "query/QuerySnapshot.h"
#include "support/CacheStore.h"
#include "support/ContentHash.h"
#include "support/Statistics.h"
#include "workload/BenchmarkSuite.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

using namespace bsaa;
using namespace bsaa::e2e;

namespace {

// Fixed settings of both cascade workloads (see README.md).
constexpr double SuiteScale = 0.02;
constexpr double MinimalSuiteScale = 0.005;
constexpr uint64_t ClusterStepBudget = 30000; // Table 1's per-cluster budget.
constexpr unsigned ClusterWorkers = 2;
constexpr uint32_t SamplePairsPerRow = 64;
constexpr uint32_t RestartsPerEpisode = 2;

/// One Table-1 row: its generated source and, once a pass has built its
/// cover, the query set derived from it (identical for every later pass
/// over the row, because the cover is a deterministic function of the
/// source).
struct Row {
  std::string Name;
  std::string Source;
  bool HasQueries = false;
  std::vector<Query> FirstTouch; ///< One per cluster with >= 2 pointers.
  std::vector<Query> Sample;     ///< Seeded same-cluster pairs.
};

/// What one pass over all rows produced.
struct Pass {
  UnitResult U;
  WorkCounts Work;
  support::Digest Digest;
  /// Kept for the checks that run after the pass: per row, the program
  /// and the replayable stats JSON.
  std::vector<std::shared_ptr<const ir::Program>> Programs;
  std::vector<std::string> ReplayJson;
  support::CacheStoreCounters Store;
};

std::vector<Row> makeRows(uint64_t Seed, double Scale) {
  std::vector<Row> Rows;
  uint64_t Idx = 0;
  for (workload::SuiteEntry &E : workload::table1Suite(Scale)) {
    E.Config.Seed = deriveSeed(Seed, /*Stream=*/1, Idx++);
    Row R;
    R.Name = E.Name;
    R.Source = workload::generateProgram(E.Config);
    Rows.push_back(std::move(R));
  }
  return Rows;
}

void deriveQueries(Row &R, const query::QuerySnapshot &Snap, uint64_t Seed) {
  std::vector<std::vector<uint32_t>> Multi = multiPointerClusters(Snap);
  for (const std::vector<uint32_t> &Ptrs : Multi)
    R.FirstTouch.push_back({Ptrs[0], Ptrs[1]});
  R.Sample = samplePairs(Multi, Seed, SamplePairsPerRow);
  R.HasQueries = true;
}

void addCounters(Layers &L, const std::string &Prefix,
                 const support::CacheCounters &C) {
  L.add(Prefix + ".hits", static_cast<double>(C.Hits));
  L.add(Prefix + ".lookups", static_cast<double>(C.Hits + C.Misses));
}

/// What a pass keeps for the checks that follow it.
enum KeepFlags : unsigned { KeepPrograms = 1, KeepReplay = 2 };

/// One pass over every row, from fresh in-memory caches; \p StoreDir
/// non-empty opens the store there and attaches it behind them.
Pass runPass(std::vector<Row> &Rows, const std::string &StoreDir,
             uint64_t Seed, Tracer &T, unsigned Keep) {
  Pass Run;
  UnitResult &U = Run.U;
  Layers &L = U.L;
  support::ContentHasher H;
  Scope PassSpan(T, "pass");
  double Analyze = 0;

  core::BootstrapOptions Base;
  Base.Threads = ClusterWorkers;
  Base.EngineOpts.StepBudget = ClusterStepBudget;
  Base.SummaryCache = std::make_shared<fscs::SummaryCache>();
  Base.RelevantSliceCache = std::make_shared<core::SliceCache>();
  Base.AndersenRefinementCache = std::make_shared<core::RefinementCache>();
  if (!StoreDir.empty()) {
    Base.StorePath = StoreDir;
    Scope Open(T, "store.open");
    core::openStoreAndAttach(Base);
    double OpenS = Open.stop();
    L.add("store.open_s", OpenS);
    Analyze += OpenS;
    U.TopLevelSeconds += OpenS;
  }

  uint64_t Steps = 0, Tuples = 0, BudgetHits = 0, Clusters = 0,
           SliceStmts = 0;
  uint32_t MaxCluster = 0;
  for (size_t RI = 0; RI < Rows.size(); ++RI) {
    Row &R = Rows[RI];
    H.str(R.Name);
    Scope Compile(T, "frontend.compile");
    frontend::Diagnostics Diags;
    std::shared_ptr<const ir::Program> P(
        frontend::compileString(R.Source, Diags));
    double CompileS = Compile.stop();
    if (!P) {
      std::fprintf(stderr, "row %s failed to compile:\n%s\n", R.Name.c_str(),
                   Diags.toString().c_str());
      U.Verdicts.push_back(2); // Poisons every digest comparison.
      continue;
    }

    core::BootstrapOptions O = Base;
    O.StatsRegistry = std::make_shared<Statistics>();
    Scope Steens(T, "steensgaard.solve");
    auto Driver = std::make_unique<core::BootstrapDriver>(*P, O);
    Driver->steensgaard();
    double SteensS = Steens.stop();

    Scope CoverSpan(T, "cover.build");
    std::vector<core::Cluster> Cover = Driver->buildCover();
    double CoverS = CoverSpan.stop();

    Scope Fscs(T, "fscs.run");
    core::BootstrapResult Res = Driver->runAll(Cover);
    double FscsS = Fscs.stop();

    query::QueryOptions QO;
    QO.EngineOpts = O.EngineOpts;
    Scope SnapSpan(T, "snapshot.build");
    std::shared_ptr<const query::QuerySnapshot> Snap =
        query::QuerySnapshot::build(P, std::move(Cover), &Res.Clusters, QO,
                                    O.SummaryCache);
    double SnapS = SnapSpan.stop();

    double Publish = CompileS + SteensS + CoverS + FscsS + SnapS;
    Analyze += Publish;

    Scope QPrep(T, "bench.query_prep");
    if (!R.HasQueries)
      deriveQueries(R, *Snap, deriveSeed(Seed, /*Stream=*/2, RI));
    double QPrepS = QPrep.stop();

    // First touches (queries that materialize a cluster) come mostly
    // from the first-touch list, plus sampled queries on clusters the
    // snapshot's LRU evicted meanwhile.
    double FirstS = 0;
    Scope FirstSpan(T, "query.first_touch");
    for (const Query &Q : R.FirstTouch)
      FirstS += timeQuery(*Snap, Q.A, Q.B, U);
    double QueryS = FirstSpan.stop();
    Scope WarmSpan(T, "query.warm");
    for (const Query &Q : R.Sample)
      FirstS += timeQuery(*Snap, Q.A, Q.B, U);
    QueryS += WarmSpan.stop();

    double PrepS = 0;
    if (Keep & KeepReplay) {
      Scope Prep(T, "bench.check_prep");
      core::StatsJsonOptions JO;
      JO.IncludeTimings = false;
      JO.IncludeCacheStats = false;
      Run.ReplayJson.push_back(core::toStatsJson(Res, JO, *O.StatsRegistry));
      PrepS = Prep.stop();
    }
    if (Keep & KeepPrograms)
      Run.Programs.push_back(P);
    L.add("andersen.solve_s", Driver->andersenClusteringSeconds());

    // Releasing the row's snapshot, driver and program is the system's
    // work too; timing it keeps the pass fully attributed.
    std::vector<core::ClusterRunResult> Runs = std::move(Res.Clusters);
    uint32_t NumMax = Res.MaxClusterSize;
    double Simulated = Res.SimulatedParallelSeconds;
    query::SnapshotStats SS = Snap->stats();
    Scope Teardown(T, "teardown");
    Snap.reset();
    Driver.reset();
    Res = core::BootstrapResult();
    P.reset();
    double TeardownS = Teardown.stop();
    U.TopLevelSeconds += Publish + QPrepS + QueryS + PrepS + TeardownS;
    L.add("bench.query_prep_s", QPrepS);
    L.add("bench.check_prep_s", PrepS);
    L.add("teardown_s", TeardownS);

    L.add("frontend.compile_s", CompileS);
    L.add("steensgaard.solve_s", SteensS);
    L.add("cover.build_s", CoverS);
    L.add("fscs.run_s", FscsS);
    L.add("snapshot.build_s", SnapS);
    L.add("query.first_touch_s", FirstS);
    L.add("query.warm_s", QueryS - FirstS);
    double ClusterS = 0, BudgetS = 0;
    for (const core::ClusterRunResult &C : Runs) {
      ClusterS += C.Seconds;
      Steps += C.Steps;
      Tuples += C.SummaryTuples;
      SliceStmts += C.SliceSize;
      if (C.BudgetHit) {
        ++BudgetHits;
        BudgetS += C.Seconds;
      }
    }
    Clusters += Runs.size();
    MaxCluster = std::max(MaxCluster, NumMax);
    L.add("fscs.cluster_s", ClusterS);
    // runAll wall minus the per-cluster seconds its workers were busy.
    L.add("fscs.export_s", FscsS - ClusterS / ClusterWorkers);
    L.add("fscs.budget_hit_s", BudgetS);
    L.add("fscs.simulated_5way_s", Simulated);
    L.add("query.materializations", static_cast<double>(SS.Materializations));
    L.add("query.cache_adoptions", static_cast<double>(SS.CacheAdoptions));
  }
  addCounters(L, "summary_cache", Base.SummaryCache->counters());
  addCounters(L, "slice_cache", Base.RelevantSliceCache->counters());
  addCounters(L, "refinement_cache", Base.AndersenRefinementCache->counters());
  L.add("summary_cache.bytes",
        static_cast<double>(Base.SummaryCache->counters().Bytes));
  if (Base.Store) {
    Run.Store = Base.Store->counters();
    L.add("store.gets", static_cast<double>(Run.Store.Gets));
    L.add("store.get_hits", static_cast<double>(Run.Store.GetHits));
  }
  Scope Teardown(T, "teardown");
  Base = core::BootstrapOptions();
  double TeardownS = Teardown.stop();
  L.add("teardown_s", TeardownS);
  U.TopLevelSeconds += TeardownS;
  U.WallSeconds = PassSpan.stop();
  U.AnalyzeSeconds.push_back(Analyze);
  L.add("fscs.steps", static_cast<double>(Steps));
  L.add("fscs.summary_tuples", static_cast<double>(Tuples));
  L.add("fscs.budget_hits", static_cast<double>(BudgetHits));
  L.add("fscs.runs", static_cast<double>(Clusters));
  L.add("cover.clusters", static_cast<double>(Clusters));
  L.add("cover.max_cluster", MaxCluster);
  L.add("cover.slice_stmts", static_cast<double>(SliceStmts));

  uint64_t MayAlias = 0;
  for (uint8_t V : U.Verdicts) {
    MayAlias += V == 1;
    H.u32(V);
  }
  Run.Digest = H.digest();
  Run.Work.add("fscs_steps", Steps);
  Run.Work.add("fscs_summary_tuples", Tuples);
  Run.Work.add("fscs_budget_hits", BudgetHits);
  Run.Work.add("clusters", Clusters);
  Run.Work.add("slice_stmts", SliceStmts);
  Run.Work.add("queries", U.Verdicts.size());
  Run.Work.add("may_alias", MayAlias);
  Run.Work.setDigest(Run.Digest.Hi, Run.Digest.Lo);
  return Run;
}

/// FSCS <= Andersen <= Steensgaard: every "may alias" verdict of the
/// pass must also be "may alias" under both whole-program analyses.
void checkSoundness(const std::vector<Row> &Rows, const Pass &Run, Checks &C) {
  size_t VI = 0;
  for (size_t RI = 0; RI < Rows.size() && RI < Run.Programs.size(); ++RI) {
    const ir::Program &P = *Run.Programs[RI];
    analysis::SteensgaardAnalysis S(P);
    S.run();
    analysis::AndersenAnalysis A(P);
    A.run();
    auto CheckOne = [&](const Query &Q) {
      if (VI >= Run.U.Verdicts.size() || Run.U.Verdicts[VI++] != 1)
        return;
      C.mayAliasChain(A.mayAlias(Q.A, Q.B), S.mayAlias(Q.A, Q.B),
                      Rows[RI].Name);
    };
    for (const Query &Q : Rows[RI].FirstTouch)
      CheckOne(Q);
    for (const Query &Q : Rows[RI].Sample)
      CheckOne(Q);
  }
}

double scaleOf(const Args &A) {
  return A.Minimal ? MinimalSuiteScale : SuiteScale;
}

/// Attempted operations of one pass: every row published plus every
/// query answered.
uint64_t operations(const std::vector<Row> &Rows, const Pass &Run) {
  return Rows.size() + Run.U.Verdicts.size();
}

} // namespace

Outcome e2e::runColdCascade(const Args &A, Tracer &T, Checks &C) {
  Outcome Out;
  Samples S;
  std::vector<double> Setups;
  uint64_t Start = nowNs();
  const uint32_t MinUnits = A.Minimal ? 1 : 2;
  for (uint32_t N = 0;; ++N) {
    double Elapsed = static_cast<double>(nowNs() - Start) * 1e-9;
    if (N >= MinUnits && Elapsed >= A.Seconds)
      break;
    // Every pass analyzes its own inputs, so a run averages over as many
    // independently generated suites as its time allows. Set-up is
    // generating them.
    uint64_t UnitSeed = deriveSeed(A.Seed, /*Stream=*/0, N);
    uint64_t G0 = nowNs();
    std::vector<Row> Rows = makeRows(UnitSeed, scaleOf(A));
    Setups.push_back(static_cast<double>(nowNs() - G0) * 1e-9);

    bool Traced = A.Trace;
    T.Enabled = Traced;
    T.RunId = N;
    Pass Run = runPass(Rows, "", UnitSeed, T, KeepPrograms);
    T.Enabled = false;
    C.attempt(operations(Rows, Run));
    S.add(Run.U, Traced);
    uint64_t Beyond0 = C.beyondAndersen();
    checkSoundness(Rows, Run, C);
    Run.Work.add("beyond_andersen", C.beyondAndersen() - Beyond0);
    if (N < MinUnits)
      Out.Work.merge(Run.Work);
  }
  reportEndToEnd(Out, S, median(Setups), C);
  reportLayers(Out.PerLayer, S, T);
  return Out;
}

Outcome e2e::runWarmRestart(const Args &A, Tracer &T, Checks &C) {
  namespace fs = std::filesystem;
  Outcome Out;
  Samples S;
  std::vector<double> Setups;
  fs::path Root = fs::path(A.WorkDir) /
                  ("warm_restart_store." + std::to_string(::getpid()));
  uint64_t Start = nowNs();
  const uint32_t MinUnits = A.Minimal ? 1 : 2;
  for (uint32_t N = 0;; ++N) {
    double Elapsed = static_cast<double>(nowNs() - Start) * 1e-9;
    if (N >= MinUnits && Elapsed >= A.Seconds)
      break;
    uint64_t UnitSeed = deriveSeed(A.Seed, /*Stream=*/0, N);
    std::vector<Row> Rows = makeRows(UnitSeed, scaleOf(A));
    fs::path Dir = Root / ("episode" + std::to_string(N));
    fs::remove_all(Dir);
    fs::create_directories(Dir);

    bool Traced = A.Trace;
    T.Enabled = Traced;
    T.RunId = N;
    // Set-up: the persist pass, a cold cascade writing through to the
    // empty store.
    Pass Persist = runPass(Rows, Dir.string(), UnitSeed, T,
                           KeepReplay | KeepPrograms);
    Setups.push_back(Persist.U.WallSeconds);
    Persist.Work.add("store_puts", Persist.Store.Puts);
    C.attempt(operations(Rows, Persist));
    S.L.add("store.puts_total", static_cast<double>(Persist.Store.Puts));
    S.L.add("store.bytes_written_total",
            static_cast<double>(Persist.Store.LiveBytes));
    S.L.add("store.persists", 1);
    uint64_t Beyond0 = C.beyondAndersen();
    checkSoundness(Rows, Persist, C);
    Persist.Work.add("beyond_andersen", C.beyondAndersen() - Beyond0);
    Persist.Programs.clear();

    for (uint32_t R = 0; R < RestartsPerEpisode; ++R) {
      Pass Restart = runPass(Rows, Dir.string(), UnitSeed, T, KeepReplay);
      C.attempt(operations(Rows, Restart));
      S.add(Restart.U, Traced);
      std::string What =
          "episode " + std::to_string(N) + " restart " + std::to_string(R);
      C.expect(Restart.Digest == Persist.Digest,
               What + ": verdicts differ from the persist pass");
      C.expect(Restart.ReplayJson == Persist.ReplayJson,
               What + ": replayable stats differ from the persist pass");
      C.expect(Restart.Store.GetHits > 0,
               What + ": nothing was revived from the store");
    }
    T.Enabled = false;
    if (N < MinUnits)
      Out.Work.merge(Persist.Work);
    fs::remove_all(Dir);
  }
  fs::remove_all(Root);
  reportEndToEnd(Out, S, median(Setups), C);
  reportLayers(Out.PerLayer, S, T);
  return Out;
}
