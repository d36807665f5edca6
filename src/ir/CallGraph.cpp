//===- ir/CallGraph.cpp - Call graph with SCCs ----------------------------===//

#include "ir/CallGraph.h"

#include <algorithm>

using namespace bsaa;
using namespace bsaa::ir;

CallGraph::CallGraph(const Program &P) {
  uint32_t N = P.numFuncs();
  CalleeLists.resize(N);
  CallSiteLists.resize(N);
  CallerLists.resize(N);
  CallLocs.resize(N);
  SelfLoop.assign(N, 0);

  for (LocId L = 0; L < P.numLocs(); ++L) {
    const Location &Loc = P.loc(L);
    if (!Loc.isCall())
      continue;
    FuncId Caller = Loc.Owner;
    CallLocs[Caller].push_back(L);
    for (FuncId Callee : Loc.Callees) {
      if (Callee == Caller)
        SelfLoop[Caller] = 1;
      std::vector<FuncId> &Cs = CalleeLists[Caller];
      auto It = std::find(Cs.begin(), Cs.end(), Callee);
      if (It == Cs.end()) {
        It = Cs.insert(It, Callee);
        CallerLists[Callee].push_back(Caller);
        CallSiteLists[Caller].emplace_back();
      }
      std::vector<LocId> &Sites = CallSiteLists[Caller][It - Cs.begin()];
      if (Sites.empty() || Sites.back() != L)
        Sites.push_back(L);
    }
  }

  Sccs = computeSccs(N, [this](uint32_t F,
                               const std::function<void(uint32_t)> &Visit) {
    for (FuncId Callee : CalleeLists[F])
      Visit(Callee);
  });
}

const std::vector<LocId> &CallGraph::callSites(FuncId Caller,
                                               FuncId Callee) const {
  static const std::vector<LocId> None;
  const std::vector<FuncId> &Cs = CalleeLists[Caller];
  auto It = std::find(Cs.begin(), Cs.end(), Callee);
  return It == Cs.end() ? None : CallSiteLists[Caller][It - Cs.begin()];
}

bool CallGraph::isRecursive(FuncId F) const {
  return SelfLoop[F] || Sccs.inNontrivialScc(F);
}

std::vector<FuncId> CallGraph::reverseTopologicalOrder() const {
  std::vector<FuncId> Order;
  Order.reserve(CalleeLists.size());
  for (uint32_t C = 0; C < Sccs.numComponents(); ++C)
    for (FuncId F : Sccs.Members[C])
      Order.push_back(F);
  return Order;
}
