//===- query/QueryEngine.cpp - Concurrent alias query serving -------------===//

#include "query/QueryEngine.h"

#include "support/ThreadPool.h"

#include <cassert>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>

using namespace bsaa;
using namespace bsaa::query;

//===----------------------------------------------------------------------===//
// QueryEngine
//===----------------------------------------------------------------------===//

AliasAnswer QueryEngine::mayAlias(ir::VarId A, ir::VarId B) const {
  std::shared_ptr<const QuerySnapshot> S = snapshot();
  assert(S && "query before the first publish()");
  return S->mayAlias(A, B);
}

AliasAnswer QueryEngine::mayAliasAt(ir::VarId A, ir::VarId B,
                                    ir::LocId Loc) const {
  std::shared_ptr<const QuerySnapshot> S = snapshot();
  assert(S && "query before the first publish()");
  return S->mayAliasAt(A, B, Loc);
}

PointsToAnswer QueryEngine::pointsToAt(ir::VarId V, ir::LocId Loc) const {
  std::shared_ptr<const QuerySnapshot> S = snapshot();
  assert(S && "query before the first publish()");
  return S->pointsToAt(V, Loc);
}

std::vector<uint8_t>
QueryEngine::evalMayAlias(const std::vector<MayAliasQuery> &Queries,
                          unsigned Threads, ThreadPool *Pool) const {
  std::shared_ptr<const QuerySnapshot> S = snapshot();
  assert(S && "query before the first publish()");
  std::vector<uint8_t> Results(Queries.size(), 0);

  auto EvalRange = [&Queries, &Results](const QuerySnapshot &Snap,
                                        size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const MayAliasQuery &Q = Queries[I];
      AliasAnswer A = (Q.Loc == ir::InvalidLoc)
                          ? Snap.mayAlias(Q.A, Q.B)
                          : Snap.mayAliasAt(Q.A, Q.B, Q.Loc);
      Results[I] = A.MayAlias ? 1 : 0;
    }
  };

  if ((Threads <= 1 && !Pool) || Queries.size() <= 1) {
    EvalRange(*S, 0, Queries.size());
    return Results;
  }

  std::unique_ptr<ThreadPool> Owned;
  if (!Pool) {
    Owned = std::make_unique<ThreadPool>(Threads);
    Pool = Owned.get();
  }
  unsigned EffThreads = Threads > 0 ? Threads : Pool->numThreads();

  // Oversplit a little so an unlucky chunk full of expensive
  // materializations doesn't serialize the batch.
  size_t NumChunks = std::min<size_t>(
      Queries.size(), std::max<size_t>(1, size_t(EffThreads) * 4));
  size_t ChunkSize = (Queries.size() + NumChunks - 1) / NumChunks;

  // Per-batch completion latch. The pool may be shared with other
  // batches and with background promotions, so waiting must be scoped
  // to exactly this batch's chunks: ThreadPool::waitAll() would block
  // on (and steal errors from) unrelated work.
  std::mutex BatchMutex;
  std::condition_variable BatchCv;
  size_t Remaining = 0;
  std::exception_ptr FirstError;

  for (size_t Begin = 0; Begin < Queries.size(); Begin += ChunkSize) {
    size_t End = std::min(Begin + ChunkSize, Queries.size());
    {
      std::lock_guard<std::mutex> Lock(BatchMutex);
      ++Remaining;
    }
    bool Submitted = Pool->submit([&, Begin, End] {
      try {
        EvalRange(*S, Begin, End);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(BatchMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
      std::lock_guard<std::mutex> Lock(BatchMutex);
      --Remaining;
      BatchCv.notify_all();
    });
    if (!Submitted) {
      // Shared pool shutting down underneath us: evaluate the chunk
      // inline rather than failing the batch.
      {
        std::lock_guard<std::mutex> Lock(BatchMutex);
        --Remaining;
      }
      EvalRange(*S, Begin, End);
    }
  }

  {
    std::unique_lock<std::mutex> Lock(BatchMutex);
    BatchCv.wait(Lock, [&] { return Remaining == 0; });
    if (FirstError)
      std::rethrow_exception(FirstError);
  }
  return Results;
}

//===----------------------------------------------------------------------===//
// AliasService
//===----------------------------------------------------------------------===//

AliasService::AliasService(core::BootstrapOptions BOpts, QueryOptions QOptsIn)
    : Inc(std::move(BOpts)), QOpts(std::move(QOptsIn)) {
  // Keyed adoption and flag semantics require serving to run the exact
  // engine configuration the cascade ran.
  QOpts.EngineOpts = Inc.options().EngineOpts;
  QOpts.AndersenOpts = Inc.options().AndersenOpts;
}

core::UpdateReport AliasService::update(std::unique_ptr<ir::Program> NewProg) {
  core::UpdateReport Report;
  const core::BootstrapResult &R = Inc.update(std::move(NewProg), &Report);
  Engine.publish(QuerySnapshot::build(
      Inc.programPtr(), Inc.steensgaardPtr(), Inc.callGraphPtr(),
      Inc.lastCover(), &R.Clusters, QOpts, Inc.options().SummaryCache));
  if (OnPublish)
    OnPublish(Report, Engine.snapshot());
  return Report;
}
