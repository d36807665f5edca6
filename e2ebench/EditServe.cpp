//===- e2ebench/EditServe.cpp - edit_serve --------------------------------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Several editable lock-heavy programs, each behind its own
// racecheck::RaceCheckService and driven through its own edit stream.
// Every edit is generateProgram + compileString + RaceCheckService::update
// (incremental alias update, snapshot publish, race re-check), followed by
// a closed-loop burst of same-cluster mayAlias queries against the
// snapshot just published. Version 0 of every program is the set-up.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Andersen.h"
#include "analysis/Steensgaard.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "query/QueryEngine.h"
#include "racecheck/RaceCheckEngine.h"
#include "racecheck/RaceReport.h"
#include "support/ContentHash.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace bsaa;
using namespace bsaa::e2e;

namespace {

// Fixed settings (see README.md).
constexpr double ProgramScale = 0.15;
constexpr double MinimalProgramScale = 0.1;
constexpr uint32_t NumPrograms = 24;
constexpr uint32_t RoundsPerEpisode = 4;
constexpr uint32_t MinimalRounds = 3;
constexpr uint64_t EditStepBudget = 50000;
constexpr unsigned ClusterWorkers = 2;
constexpr uint32_t BurstQueries = 256;
/// Rounds whose versions are compared against a cold replay (plus the
/// last round).
constexpr uint32_t ReplayEvery = 2;

/// racecheck_bench's editable, lock-heavy program shape: every
/// non-stubbed function gets 1..2 critical sections over 8 shared
/// variables guarded by 6 lock pointers.
workload::GeneratorConfig raceConfig(double Scale, uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = std::max<uint32_t>(8, static_cast<uint32_t>(120 * Scale));
  Cfg.StmtsPerFunction = 14;
  Cfg.Communities = std::max<uint32_t>(4, static_cast<uint32_t>(24 * Scale));
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  Cfg.LockPointers = 6;
  Cfg.SharedVariables = 8;
  Cfg.LockDensity = 2;
  return Cfg;
}

core::BootstrapOptions serviceOptions() {
  core::BootstrapOptions O;
  O.Threads = ClusterWorkers;
  O.EngineOpts.StepBudget = EditStepBudget;
  return O;
}

/// One editable program and the service serving it.
struct Client {
  workload::GeneratorConfig Cfg;
  std::vector<workload::ProgramEdit> Edits;
  workload::EditState State;
  std::unique_ptr<racecheck::RaceCheckService> Service;
};

/// What the checks after a round need from one edit.
struct Published {
  std::string Source;
  std::vector<Query> Queries;
  std::vector<uint8_t> Verdicts;
  std::string ReportJson;
};

std::unique_ptr<ir::Program> compile(const std::string &Src,
                                     const char *What) {
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P)
    std::fprintf(stderr, "%s failed to compile:\n%s\n", What,
                 Diags.toString().c_str());
  return P;
}

void addCacheDelta(Layers &L, const std::string &Prefix,
                   const support::CacheCounters &Before,
                   const support::CacheCounters &After) {
  L.add(Prefix + ".hits", static_cast<double>(After.Hits - Before.Hits));
  L.add(Prefix + ".lookups",
        static_cast<double>(After.Hits + After.Misses - Before.Hits -
                            Before.Misses));
}

/// FSCS <= Andersen <= Steensgaard on every "may alias" verdict, plus the
/// cold-replay identity when \p Replay is set.
void checkVersion(const Published &V, bool Replay, const std::string &What,
                  Checks &C) {
  std::unique_ptr<ir::Program> P = compile(V.Source, What.c_str());
  if (!C.expect(P != nullptr, What + ": recompile failed"))
    return;
  analysis::SteensgaardAnalysis S(*P);
  S.run();
  analysis::AndersenAnalysis A(*P);
  A.run();
  for (size_t I = 0; I < V.Queries.size(); ++I) {
    if (V.Verdicts[I] != 1)
      continue;
    const Query &Q = V.Queries[I];
    C.mayAliasChain(A.mayAlias(Q.A, Q.B), S.mayAlias(Q.A, Q.B), What);
  }
  if (!Replay)
    return;
  racecheck::RaceCheckService Cold(serviceOptions());
  Cold.update(std::move(P));
  C.expect(racecheck::toReportJson(*Cold.report()) == V.ReportJson,
           What + ": race report differs from a cold replay");
  std::shared_ptr<const query::QuerySnapshot> Snap =
      Cold.alias().engine().snapshot();
  bool Same = true;
  for (size_t I = 0; I < V.Queries.size(); ++I)
    Same = Same && (Snap->mayAlias(V.Queries[I].A, V.Queries[I].B).MayAlias
                        ? 1
                        : 0) == V.Verdicts[I];
  C.expect(Same, What + ": query verdicts differ from a cold replay");
}

} // namespace

Outcome e2e::runEditServe(const Args &A, Tracer &T, Checks &C) {
  Outcome Out;
  Samples S;
  std::vector<double> Setups;
  const double Scale = A.Minimal ? MinimalProgramScale : ProgramScale;
  const uint32_t Rounds = A.Minimal ? MinimalRounds : RoundsPerEpisode;
  uint64_t Start = nowNs();
  const uint32_t MinEpisodes = A.Minimal ? 1 : 2;
  for (uint32_t N = 0;; ++N) {
    double Elapsed = static_cast<double>(nowNs() - Start) * 1e-9;
    if (N >= MinEpisodes && Elapsed >= A.Seconds)
      break;
    bool Traced = A.Trace;
    T.RunId = N;
    // Every episode edits its own programs, so a run averages over as
    // many independently generated programs as its time allows.
    uint64_t UnitSeed = deriveSeed(A.Seed, /*Stream=*/0, N);

    // Set-up: version 0 of every program, analyzed cold.
    std::vector<Client> Clients(NumPrograms);
    uint64_t Setup0 = nowNs();
    for (uint32_t PI = 0; PI < NumPrograms; ++PI) {
      Client &Cl = Clients[PI];
      Cl.Cfg = raceConfig(Scale, deriveSeed(UnitSeed, /*Stream=*/3, PI));
      Cl.Edits = workload::generateEditStream(
          Cl.Cfg, Rounds, deriveSeed(UnitSeed, /*Stream=*/4, PI));
      Cl.State = workload::initialEditState(Cl.Cfg);
      Cl.Service =
          std::make_unique<racecheck::RaceCheckService>(serviceOptions());
      std::unique_ptr<ir::Program> P =
          compile(workload::generateProgram(Cl.Cfg, Cl.State), "version 0");
      C.attempt();
      if (!C.expect(P != nullptr, "version 0 compiles"))
        return Out;
      Cl.Service->update(std::move(P));
    }
    Setups.push_back(static_cast<double>(nowNs() - Setup0) * 1e-9);

    WorkCounts Work;
    support::ContentHasher H;
    for (uint32_t R = 0; R < Rounds; ++R) {
      T.Enabled = Traced;
      UnitResult U;
      Layers &L = U.L;
      std::vector<Published> Round(NumPrograms);
      uint32_t RoundMax = 0;
      Scope RoundSpan(T, "round");
      for (uint32_t PI = 0; PI < NumPrograms; ++PI) {
        Client &Cl = Clients[PI];
        Published &Pub = Round[PI];
        workload::applyEdit(Cl.State, Cl.Edits[R]);

        Scope Gen(T, "workload.generate");
        Pub.Source = workload::generateProgram(Cl.Cfg, Cl.State);
        double GenS = Gen.stop();

        Scope Comp(T, "frontend.compile");
        std::unique_ptr<ir::Program> P = compile(Pub.Source, "edit");
        double CompS = Comp.stop();
        C.attempt();
        if (!C.expect(P != nullptr, "edited version compiles"))
          return Out;

        const core::BootstrapOptions &DO =
            Cl.Service->alias().driver().options();
        support::CacheCounters Sum0 = DO.SummaryCache->counters();
        support::CacheCounters Ref0 = DO.AndersenRefinementCache
                                          ? DO.AndersenRefinementCache
                                                ->counters()
                                          : support::CacheCounters();
        support::CacheCounters Slice0 =
            DO.RelevantSliceCache ? DO.RelevantSliceCache->counters()
                                  : support::CacheCounters();
        Scope Upd(T, "racecheck.update");
        racecheck::CheckReport Rep = Cl.Service->update(std::move(P));
        double UpdS = Upd.stop();

        double Edit = CompS + UpdS;
        U.AnalyzeSeconds.push_back(Edit);

        // The burst: closed loop, one query after another.
        std::shared_ptr<const query::QuerySnapshot> Snap =
            Cl.Service->alias().engine().snapshot();
        Scope Prep(T, "bench.query_prep");
        Pub.Queries = samplePairs(
            multiPointerClusters(*Snap),
            deriveSeed(UnitSeed, /*Stream=*/5, R * NumPrograms + PI),
            BurstQueries);
        double PrepS = Prep.stop();
        size_t Verdict0 = U.Verdicts.size();
        double FirstS = 0;
        Scope Burst(T, "query.burst");
        for (const Query &Q : Pub.Queries)
          FirstS += timeQuery(*Snap, Q.A, Q.B, U);
        double BurstS = Burst.stop();
        Pub.Verdicts.assign(U.Verdicts.begin() + Verdict0, U.Verdicts.end());
        C.attempt(Pub.Queries.size());
        Scope Check(T, "bench.check_prep");
        Pub.ReportJson = racecheck::toReportJson(*Cl.Service->report());
        double CheckS = Check.stop();
        U.TopLevelSeconds += GenS + CompS + UpdS + PrepS + BurstS + CheckS;
        L.add("bench.query_prep_s", PrepS);
        L.add("bench.check_prep_s", CheckS);

        // Layer accounting from the spans and the returned reports.
        const core::UpdateReport &UR = Rep.Update;
        const core::BootstrapResult &BR =
            Cl.Service->alias().driver().lastResult();
        L.add("workload.generate_s", GenS);
        L.add("frontend.compile_s", CompS);
        L.add("incremental.update_s", UR.Seconds);
        L.add("racecheck.check_s", Rep.CheckSeconds);
        L.add("serve.publish_s", UpdS - UR.Seconds - Rep.CheckSeconds);
        L.add("query.first_touch_s", FirstS);
        // The rest of the burst span, loop included, so the round's
        // top-level spans add up to its wall-clock.
        L.add("query.warm_s", BurstS - FirstS);
        L.add("steensgaard.solve_s", BR.SteensgaardSeconds);
        L.add("andersen.solve_s", BR.AndersenClusteringSeconds);
        L.add("cover.clusters", BR.NumClusters);
        RoundMax = std::max(RoundMax, BR.MaxClusterSize);
        double ClusterS = 0, BudgetS = 0, Steps = 0, Tuples = 0, Hits = 0,
               Runs = 0, Slice = 0;
        for (const core::ClusterRunResult &CR : BR.Clusters) {
          Slice += CR.SliceSize;
          if (CR.FromCache)
            continue;
          ++Runs;
          ClusterS += CR.Seconds;
          Steps += static_cast<double>(CR.Steps);
          Tuples += static_cast<double>(CR.SummaryTuples);
          if (CR.BudgetHit) {
            ++Hits;
            BudgetS += CR.Seconds;
          }
        }
        L.add("cover.slice_stmts", Slice);
        L.add("fscs.runs", Runs);
        L.add("fscs.cluster_s", ClusterS);
        L.add("fscs.steps", Steps);
        L.add("fscs.summary_tuples", Tuples);
        L.add("fscs.budget_hits", Hits);
        L.add("fscs.budget_hit_s", BudgetS);
        L.add("fscs.simulated_5way_s", BR.SimulatedParallelSeconds);
        L.add("incremental.clusters", UR.NumClusters);
        L.add("incremental.clusters_reanalyzed", UR.ClustersReanalyzed);
        L.add("incremental.clusters_from_cache", UR.ClustersFromCache);
        L.add("incremental.steens_adoptions", UR.SteensgaardAdopted ? 1 : 0);
        L.add("racecheck.functions", Rep.Functions);
        L.add("racecheck.functions_checked", Rep.FunctionsChecked);
        L.add("racecheck.functions_from_cache", Rep.FunctionsFromCache);
        addCacheDelta(L, "summary_cache", Sum0, DO.SummaryCache->counters());
        if (DO.AndersenRefinementCache)
          addCacheDelta(L, "refinement_cache", Ref0,
                        DO.AndersenRefinementCache->counters());
        if (DO.RelevantSliceCache)
          addCacheDelta(L, "slice_cache", Slice0,
                        DO.RelevantSliceCache->counters());
        L.add("summary_cache.bytes",
              static_cast<double>(DO.SummaryCache->counters().Bytes));
        query::SnapshotStats SS = Snap->stats();
        L.add("query.materializations",
              static_cast<double>(SS.Materializations));
        L.add("query.cache_adoptions", static_cast<double>(SS.CacheAdoptions));

        Work.add("clusters_reanalyzed", UR.ClustersReanalyzed);
        Work.add("functions_rechecked", Rep.FunctionsChecked);
        Work.add("fscs_steps", static_cast<uint64_t>(Steps));
        Work.add("fscs_summary_tuples", static_cast<uint64_t>(Tuples));
        Work.add("fscs_budget_hits", static_cast<uint64_t>(Hits));
        Work.add("queries", Pub.Queries.size());
        for (uint8_t V : Pub.Verdicts)
          H.u32(V);
        H.str(Pub.ReportJson);
      }
      U.WallSeconds = RoundSpan.stop();
      L.add("cover.max_cluster", RoundMax);
      T.Enabled = false;
      S.add(U, Traced);

      // Checks, outside the timed round: soundness on every version, and
      // a cold replay of a fixed subset of rounds plus the last one.
      bool Replay = R % ReplayEvery == ReplayEvery - 1 || R + 1 == Rounds;
      uint64_t Beyond0 = C.beyondAndersen();
      for (uint32_t PI = 0; PI < NumPrograms; ++PI)
        checkVersion(Round[PI], Replay,
                     "program " + std::to_string(PI) + " round " +
                         std::to_string(R),
                     C);
      Work.add("beyond_andersen", C.beyondAndersen() - Beyond0);
    }
    support::Digest D = H.digest();
    Work.setDigest(D.Hi, D.Lo);
    if (N < MinEpisodes)
      Out.Work.merge(Work);
  }
  reportEndToEnd(Out, S, median(Setups), C);
  reportLayers(Out.PerLayer, S, T);
  return Out;
}
