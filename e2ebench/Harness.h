//===- e2ebench/Harness.h - End-to-end benchmark plumbing -------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the end-to-end benchmark: command-line options,
/// seed derivation, the in-memory span recorder, per-layer accumulation,
/// output-check bookkeeping and the result printer. Layers are observed
/// from outside only: spans wrap the benchmark's own calls into each
/// module's public functions, and counts come from the structs those
/// functions return.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_E2EBENCH_HARNESS_H
#define BSAA_E2EBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bsaa {
namespace query {
class QuerySnapshot;
} // namespace query

namespace e2e {

/// Parsed command line.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string TraceOut;
  /// Scratch directory for the warm-restart store (inside the checkout).
  std::string WorkDir = ".";
  /// Shrinks every workload to a few seconds of work (smoke test).
  bool Minimal = false;
};

/// Independent 64-bit seed for stream \p Stream, item \p Index, derived
/// from the workload seed by splitmix64 so every generator and edit
/// stream in a run depends on --seed alone.
uint64_t deriveSeed(uint64_t Base, uint64_t Stream, uint64_t Index);

/// Nanoseconds on the steady clock since the process-wide origin.
uint64_t nowNs();

/// In-memory span recorder. Every span carries a name, start/end (ns
/// since the origin), its parent's index (-1 for a root) and the run id
/// (one per episode of the workload). Disabled recorders drop spans but
/// Scope still times its interval, so untraced runs take the same code
/// path minus the vector append.
class Tracer {
public:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int64_t Parent = -1;
    uint32_t Run = 0;
  };

  bool Enabled = false;
  uint32_t RunId = 0;

  /// Opens a span and returns its index (-1 when disabled).
  int64_t open(const char *Name, uint64_t StartNs);
  void close(int64_t Idx, uint64_t EndNs);

  /// Index of the innermost open span (-1 at top level).
  int64_t current() const { return Stack.empty() ? -1 : Stack.back(); }

  size_t size() const { return Spans.size(); }

  /// Seconds one recorded span costs over an unrecorded one, measured
  /// on a scratch recorder. Untraced runs time the same calls, so this
  /// is what tracing adds per span.
  static double spanCostSeconds();

  /// Writes every span as one JSON object per line.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
};

/// Times one public call: always measures, and records a span when the
/// tracer is enabled. The span ends at stop() or at destruction.
class Scope {
public:
  Scope(Tracer &T, const char *Name);
  ~Scope() { stop(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

private:
  Tracer &T;
  int64_t Idx;
  uint64_t Start;
  uint64_t End = 0;
};

/// Per-layer accumulator: sums over the traced units of work (passes,
/// restarts or edit rounds); values are reported per unit.
class Layers {
public:
  void add(const std::string &Name, double V) { Sum[Name] += V; }
  double get(const std::string &Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? 0.0 : It->second;
  }
  void merge(const Layers &O) {
    for (const auto &KV : O.Sum)
      Sum[KV.first] += KV.second;
  }
  /// Numerator / denominator of two accumulated sums (0 when empty).
  double ratio(const std::string &Num, const std::string &Den) const {
    double D = get(Den);
    return D > 0 ? get(Num) / D : 0.0;
  }

private:
  std::map<std::string, double> Sum;
};

/// Output-check ledger: every benchmark operation is attempted once and
/// fails when any of its checks does.
class Checks {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Records a failed check (counted once per call) with its reason.
  void fail(const std::string &What);
  /// Records \p Ok; returns it.
  bool expect(bool Ok, const std::string &What) {
    if (!Ok)
      fail(What);
    return Ok;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// The FSCS <= Andersen <= Steensgaard chain on one "may alias"
  /// verdict, given the whole-program analyses' answers for the same
  /// pair. Outside Steensgaard fails the operation. Outside Andersen
  /// alone is counted, not failed: the FSCS engine can report targets
  /// beyond Andersen's (README.md, "Output checks").
  void mayAliasChain(bool Andersen, bool Steensgaard,
                     const std::string &What);
  uint64_t beyondAndersen() const { return BeyondAndersen; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t BeyondAndersen = 0;
};

/// Named metric values with units, in insertion order (one set() per
/// name).
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Renders {"name": {"value": v, "unit": u}, ...}.
  std::string toJson() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Vals;
};

/// Deterministic work counts (identical for two runs on one seed),
/// printed as a JSON line before the result. A run reports the counts of
/// the units every run performs (the first two; later units depend on
/// how many fit in --seconds).
class WorkCounts {
public:
  void add(const std::string &Name, uint64_t V) { Counts[Name] += V; }
  void setDigest(uint64_t Hi, uint64_t Lo);
  /// Adds \p O's counts and folds its digest into this one.
  void merge(const WorkCounts &O);
  std::string toJson(const std::string &Workload, uint64_t Seed) const;

private:
  std::map<std::string, uint64_t> Counts;
  std::string Digest;
};

/// What one timed unit of work (a pass, a restart or an edit round)
/// produced.
struct UnitResult {
  /// Source -> published answers, one sample per analyzed input: the
  /// whole suite for a pass or restart, each program for an edit round.
  std::vector<double> AnalyzeSeconds;
  double WallSeconds = 0;     ///< The unit's own span.
  double TopLevelSeconds = 0; ///< Sum of the unit's top-level spans.
  std::vector<double> FirstTouchMs;
  std::vector<double> QueryUs;
  std::vector<uint8_t> Verdicts; ///< 1 = may alias, per query.
  Layers L;
};

/// One benchmark may-alias query: two pointer VarIds.
struct Query {
  uint32_t A = 0;
  uint32_t B = 0;
};

/// Pointer members of every cluster of \p Snap's cover that has at least
/// two, in cover order.
std::vector<std::vector<uint32_t>>
multiPointerClusters(const query::QuerySnapshot &Snap);

/// \p N same-cluster pointer pairs drawn from \p Clusters with \p Seed.
std::vector<Query>
samplePairs(const std::vector<std::vector<uint32_t>> &Clusters,
            uint64_t Seed, uint32_t N);

/// Answers one benchmark query (A, B) on \p Snap and records it in \p U:
/// the verdict, the answering rung, and the latency -- as a first touch
/// when the query materialized a cluster (SnapshotStats), else as a warm
/// query. Returns the latency in seconds when it was a first touch, 0
/// otherwise.
double timeQuery(const query::QuerySnapshot &Snap, uint32_t A, uint32_t B,
                 UnitResult &U);

/// Samples pooled over the timed units of one run.
struct Samples {
  std::vector<double> AnalyzeSeconds;
  std::vector<double> FirstTouchMs; ///< Per first-touch query.
  std::vector<double> QueryUs;      ///< Per warm query.
  uint64_t Queries = 0;
  uint64_t MayAlias = 0;
  Layers L;          ///< Layer sums over the traced units.
  double TracedUnits = 0;

  /// Pools \p U; its layers count only when it was traced.
  void add(const UnitResult &U, bool Traced);
};

/// Everything a workload produces.
struct Outcome {
  MetricSet EndToEnd;
  /// Quantiles printed for reference only: too seed-sensitive to carry
  /// a regression bound (README.md, "Bounds").
  MetricSet Tails;
  MetricSet PerLayer;
  WorkCounts Work;
};

/// Exact quantile of \p V (linear interpolation between closest ranks);
/// 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(const std::vector<double> &V);

/// Peak resident set size of this process in MiB (VmHWM).
double peakRssMb();

/// Fills the end-to-end metric set every workload reports.
void reportEndToEnd(Outcome &O, const Samples &S, double SetupSeconds,
                    const Checks &C);

/// Fills the per-layer metric set (per traced unit) every workload
/// reports; layers a workload does not exercise read 0. \p T supplies
/// the span count for the tracing overhead.
void reportLayers(MetricSet &M, const Samples &S, const Tracer &T);

/// The workloads.
Outcome runColdCascade(const Args &A, Tracer &T, Checks &C);
Outcome runWarmRestart(const Args &A, Tracer &T, Checks &C);
Outcome runEditServe(const Args &A, Tracer &T, Checks &C);

} // namespace e2e
} // namespace bsaa

#endif // BSAA_E2EBENCH_HARNESS_H
