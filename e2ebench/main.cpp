//===- e2ebench/main.cpp - End-to-end benchmark entry point ---------------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   e2ebench --workload cold_cascade|warm_restart|edit_serve --seed N
//            --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]
//            [--minimal]
//
// Runs one workload closed-loop from this (single client) thread for at
// least S seconds, checks its outputs, and prints two JSON lines: the
// run's deterministic work counts, then the result -- end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. Exits 1 when any
// output check failed, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace bsaa;
using namespace bsaa::e2e;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload "
               "cold_cascade|warm_restart|edit_serve --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--work-dir DIR] "
               "[--minimal]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--minimal") {
      A.Minimal = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(V);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--trace-out")
      A.TraceOut = V;
    else if (Flag == "--work-dir")
      A.WorkDir = V;
    else
      return usage(("unknown flag " + Flag).c_str());
  }

  Outcome (*Run)(const Args &, Tracer &, Checks &) = nullptr;
  if (A.Workload == "cold_cascade")
    Run = runColdCascade;
  else if (A.Workload == "warm_restart")
    Run = runWarmRestart;
  else if (A.Workload == "edit_serve")
    Run = runEditServe;
  else
    return usage("unknown workload");

  Tracer T;
  Checks C;
  Outcome O;
  try {
    O = Run(A, T, C);
  } catch (const std::exception &E) {
    C.attempt();
    C.fail(std::string("workload threw: ") + E.what());
  }
  if (A.Trace && !A.TraceOut.empty() && !T.writeJsonLines(A.TraceOut))
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 A.TraceOut.c_str());

  bool Correct = C.failed() == 0 && C.attempted() > 0;
  std::printf("{\"tails\": %s}\n", O.Tails.toJson().c_str());
  std::printf("%s\n", O.Work.toJson(A.Workload, A.Seed).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()),
              (A.Trace ? O.PerLayer : O.EndToEnd).toJson().c_str());
  return Correct ? 0 : 1;
}
