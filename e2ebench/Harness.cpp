//===- e2ebench/Harness.cpp - End-to-end benchmark plumbing ---------------===//

#include "Harness.h"

#include "query/QuerySnapshot.h"
#include "support/ContentHash.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace bsaa;
using namespace bsaa::e2e;

uint64_t e2e::deriveSeed(uint64_t Base, uint64_t Stream, uint64_t Index) {
  auto Mix = [](uint64_t X) {
    X += 0x9e3779b97f4a7c15ull;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    return X ^ (X >> 31);
  };
  return Mix(Mix(Mix(Base) ^ Stream) ^ Index);
}

uint64_t e2e::nowNs() {
  static const auto Origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Origin)
          .count());
}

int64_t Tracer::open(const char *Name, uint64_t StartNs) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.Parent = current();
  S.Run = RunId;
  Spans.push_back(std::move(S));
  int64_t Idx = static_cast<int64_t>(Spans.size()) - 1;
  Stack.push_back(Idx);
  return Idx;
}

void Tracer::close(int64_t Idx, uint64_t EndNs) {
  if (Idx < 0)
    return;
  Spans[static_cast<size_t>(Idx)].EndNs = EndNs;
  if (!Stack.empty() && Stack.back() == Idx)
    Stack.pop_back();
}

double Tracer::spanCostSeconds() {
  constexpr int Spans = 100000;
  Tracer On, Off;
  On.Enabled = true;
  uint64_t T0 = nowNs();
  for (int I = 0; I < Spans; ++I)
    Scope S(On, "calibration");
  uint64_t T1 = nowNs();
  for (int I = 0; I < Spans; ++I)
    Scope S(Off, "calibration");
  uint64_t T2 = nowNs();
  double Extra = static_cast<double>(T1 - T0) - static_cast<double>(T2 - T1);
  return std::max(0.0, Extra) * 1e-9 / Spans;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRIu64
                 ", \"end_ns\": %" PRIu64 ", \"parent\": %" PRId64
                 ", \"run\": %u}\n",
                 I, S.Name.c_str(), S.StartNs, S.EndNs, S.Parent, S.Run);
  }
  return std::fclose(F) == 0;
}

Scope::Scope(Tracer &T, const char *Name) : T(T), Start(nowNs()) {
  Idx = T.open(Name, Start);
}

double Scope::stop() {
  if (End == 0) {
    End = nowNs();
    T.close(Idx, End);
  }
  return static_cast<double>(End - Start) * 1e-9;
}

std::vector<std::vector<uint32_t>>
e2e::multiPointerClusters(const query::QuerySnapshot &Snap) {
  const ir::Program &P = Snap.program();
  std::vector<std::vector<uint32_t>> Multi;
  for (const core::Cluster &C : Snap.cover()) {
    std::vector<uint32_t> Ptrs;
    for (ir::VarId V : C.Members)
      if (P.var(V).isPointer())
        Ptrs.push_back(V);
    if (Ptrs.size() >= 2)
      Multi.push_back(std::move(Ptrs));
  }
  return Multi;
}

std::vector<Query>
e2e::samplePairs(const std::vector<std::vector<uint32_t>> &Clusters,
                 uint64_t Seed, uint32_t N) {
  std::vector<Query> Qs;
  support::SplitMix64 Rng(Seed);
  for (uint32_t I = 0; I < N && !Clusters.empty(); ++I) {
    const std::vector<uint32_t> &Ptrs =
        Clusters[Rng.below(static_cast<uint32_t>(Clusters.size()))];
    uint32_t Size = static_cast<uint32_t>(Ptrs.size());
    uint32_t X = Rng.below(Size);
    uint32_t Y = (X + 1 + Rng.below(Size - 1)) % Size;
    Qs.push_back({Ptrs[X], Ptrs[Y]});
  }
  return Qs;
}

double e2e::timeQuery(const query::QuerySnapshot &Snap, uint32_t A,
                      uint32_t B, UnitResult &U) {
  uint64_t Materialized = Snap.stats().Materializations;
  uint64_t T0 = nowNs();
  query::AliasAnswer Ans = Snap.mayAlias(A, B);
  double Dt = static_cast<double>(nowNs() - T0) * 1e-9;
  bool FirstTouch = Snap.stats().Materializations > Materialized;
  U.Verdicts.push_back(Ans.MayAlias ? 1 : 0);
  switch (Ans.Source) {
  case query::AnswerSource::Index:
    U.L.add("query.index_answers", 1);
    break;
  case query::AnswerSource::Fscs:
  case query::AnswerSource::FscsPartial:
    U.L.add("query.fscs_answers", 1);
    break;
  case query::AnswerSource::Andersen:
  case query::AnswerSource::Steensgaard:
    U.L.add("query.fallback_answers", 1);
    break;
  }
  if (!FirstTouch) {
    U.QueryUs.push_back(Dt * 1e6);
    return 0;
  }
  U.FirstTouchMs.push_back(Dt * 1e3);
  return Dt;
}

void Checks::fail(const std::string &What) {
  ++Failed;
  // Cap the noise; the count is what the result reports.
  if (Failed <= 20)
    std::fprintf(stderr, "check failed: %s\n", What.c_str());
}

void Checks::mayAliasChain(bool Andersen, bool Steensgaard,
                           const std::string &What) {
  expect(Steensgaard, What + ": FSCS may-alias not implied by Steensgaard");
  BeyondAndersen += !Andersen;
}

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  Vals.push_back({Name, {Value, Unit}});
}

std::string MetricSet::toJson() const {
  std::string Out = "{";
  char Buf[128];
  for (size_t I = 0; I < Vals.size(); ++I) {
    double V = Vals[I].second.first;
    if (!std::isfinite(V))
      V = 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + Vals[I].first + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Vals[I].second.second + "\"}";
  }
  return Out + "}";
}

void WorkCounts::setDigest(uint64_t Hi, uint64_t Lo) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64 "%016" PRIx64, Hi, Lo);
  Digest = Buf;
}

void WorkCounts::merge(const WorkCounts &O) {
  for (const auto &KV : O.Counts)
    Counts[KV.first] += KV.second;
  if (Digest.empty()) {
    Digest = O.Digest;
    return;
  }
  support::Digest D =
      support::ContentHasher().str(Digest).str(O.Digest).digest();
  setDigest(D.Hi, D.Lo);
}

std::string WorkCounts::toJson(const std::string &Workload,
                               uint64_t Seed) const {
  std::string Out = "{\"work\": {\"workload\": \"" + Workload +
                    "\", \"seed\": " + std::to_string(Seed) +
                    ", \"verdict_digest\": \"" + Digest + "\"";
  for (const auto &KV : Counts)
    Out += ", \"" + KV.first + "\": " + std::to_string(KV.second);
  return Out + "}}";
}

double e2e::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double e2e::median(const std::vector<double> &V) { return quantile(V, 0.5); }

double e2e::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

void Samples::add(const UnitResult &U, bool Traced) {
  AnalyzeSeconds.insert(AnalyzeSeconds.end(), U.AnalyzeSeconds.begin(),
                        U.AnalyzeSeconds.end());
  FirstTouchMs.insert(FirstTouchMs.end(), U.FirstTouchMs.begin(),
                      U.FirstTouchMs.end());
  QueryUs.insert(QueryUs.end(), U.QueryUs.begin(), U.QueryUs.end());
  Queries += U.Verdicts.size();
  for (uint8_t V : U.Verdicts)
    MayAlias += V == 1;
  if (!Traced)
    return;
  L.merge(U.L);
  L.add("wall_s", U.WallSeconds);
  L.add("unattributed_s", U.WallSeconds - U.TopLevelSeconds);
  TracedUnits += 1;
}

void e2e::reportEndToEnd(Outcome &O, const Samples &S, double SetupSeconds,
                         const Checks &C) {
  MetricSet &M = O.EndToEnd;
  M.set("setup_s", SetupSeconds, "s");
  M.set("analyze_s", median(S.AnalyzeSeconds), "s");
  M.set("may_alias_share",
        S.Queries ? double(S.MayAlias) / double(S.Queries) : 0.0, "share");
  M.set("ok_share",
        C.attempted() ? 1.0 - double(C.failed()) / double(C.attempted())
                      : 0.0,
        "share");
  M.set("peak_rss_mb", peakRssMb(), "MB");
  O.Tails.set("analyze_p95_s", quantile(S.AnalyzeSeconds, 0.95), "s");
  O.Tails.set("first_touch_p50_ms", quantile(S.FirstTouchMs, 0.50), "ms");
  O.Tails.set("first_touch_p95_ms", quantile(S.FirstTouchMs, 0.95), "ms");
  O.Tails.set("first_touch_p99_ms", quantile(S.FirstTouchMs, 0.99), "ms");
  O.Tails.set("query_p50_us", quantile(S.QueryUs, 0.50), "us");
  O.Tails.set("query_p90_us", quantile(S.QueryUs, 0.90), "us");
  O.Tails.set("query_p99_us", quantile(S.QueryUs, 0.99), "us");
}

void e2e::reportLayers(MetricSet &M, const Samples &S, const Tracer &T) {
  const Layers &L = S.L;
  double Units = S.TracedUnits > 0 ? S.TracedUnits : 1;
  auto Per = [&](const char *Name) { return L.get(Name) / Units; };
  auto Seconds = [&](const char *Name) { M.set(Name, Per(Name), "s"); };
  auto Count = [&](const char *Name) { M.set(Name, Per(Name), "count"); };
  auto Ratio = [&](const char *Name, const char *Num, const char *Den) {
    M.set(Name, L.ratio(Num, Den), "ratio");
  };

  Seconds("workload.generate_s");
  Seconds("frontend.compile_s");
  Seconds("steensgaard.solve_s");
  Seconds("andersen.solve_s");
  Seconds("cover.build_s");
  Count("cover.clusters");
  Count("cover.max_cluster");
  Count("cover.slice_stmts");
  Seconds("fscs.run_s");
  Seconds("fscs.cluster_s");
  Seconds("fscs.export_s");
  Count("fscs.steps");
  Count("fscs.summary_tuples");
  Count("fscs.budget_hits");
  Seconds("fscs.budget_hit_s");
  M.set("fscs.completion_ratio",
        L.get("fscs.runs") > 0
            ? 1.0 - L.get("fscs.budget_hits") / L.get("fscs.runs")
            : 0.0,
        "ratio");
  Seconds("fscs.simulated_5way_s");
  Ratio("summary_cache.hit_ratio", "summary_cache.hits",
        "summary_cache.lookups");
  M.set("summary_cache.bytes", Per("summary_cache.bytes"), "bytes");
  Ratio("slice_cache.hit_ratio", "slice_cache.hits", "slice_cache.lookups");
  Ratio("refinement_cache.hit_ratio", "refinement_cache.hits",
        "refinement_cache.lookups");
  Seconds("store.open_s");
  M.set("store.bytes_written", L.get("store.bytes_written_total") /
                                   std::max(1.0, L.get("store.persists")),
        "bytes");
  M.set("store.puts",
        L.get("store.puts_total") / std::max(1.0, L.get("store.persists")),
        "count");
  Ratio("store.hit_ratio", "store.get_hits", "store.gets");
  Seconds("snapshot.build_s");
  Seconds("query.first_touch_s");
  Seconds("query.warm_s");
  Count("query.materializations");
  Count("query.cache_adoptions");
  double Answers = L.get("query.index_answers") + L.get("query.fscs_answers") +
                   L.get("query.fallback_answers");
  auto Share = [&](const char *Name, const char *Num) {
    M.set(Name, Answers > 0 ? L.get(Num) / Answers : 0.0, "ratio");
  };
  Share("query.index_share", "query.index_answers");
  Share("query.fscs_share", "query.fscs_answers");
  Share("query.fallback_share", "query.fallback_answers");
  Seconds("incremental.update_s");
  Count("incremental.clusters_reanalyzed");
  Ratio("incremental.reuse_ratio", "incremental.clusters_from_cache",
        "incremental.clusters");
  Count("incremental.steens_adoptions");
  Seconds("racecheck.check_s");
  Count("racecheck.functions_checked");
  Ratio("racecheck.reuse_ratio", "racecheck.functions_from_cache",
        "racecheck.functions");
  Seconds("serve.publish_s");
  Seconds("teardown_s");
  Seconds("bench.query_prep_s");
  Seconds("bench.check_prep_s");
  Seconds("unattributed_s");
  Seconds("wall_s");
  M.set("trace.overhead_s",
        static_cast<double>(T.size()) * Tracer::spanCostSeconds() / Units,
        "s");
}
