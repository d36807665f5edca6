//===- query/QueryEngine.h - Concurrent alias query serving -----*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving front end over QuerySnapshot:
///
///  * QueryEngine multiplexes queries onto the current snapshot through
///    one mutex-guarded shared_ptr whose critical section is a single
///    pointer copy. publish() swaps snapshots without waiting for
///    readers: a reader that loaded the old snapshot keeps answering
///    against it (it stays alive through their shared_ptr), so an
///    update never blocks in-flight queries and no reader ever
///    observes a half-updated view. (libstdc++'s
///    atomic<shared_ptr> would make the swap lock-free, but its
///    spin-bit protocol unlocks reads with memory_order_relaxed, which
///    is a formal data race TSan rightly reports — the plain mutex is
///    uncontended in practice since readers pin once per batch.)
///  * evalMayAlias() runs a query batch through the shared ThreadPool,
///    chunked so each worker grabs the snapshot pointer once.
///  * AliasService glues core::IncrementalDriver to the engine:
///    update(program) re-analyzes incrementally, builds a fresh
///    snapshot from the driver's retained cover/results/caches and its
///    Steensgaard solve and call graph (shared, not re-solved), and
///    publishes it.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_QUERY_QUERYENGINE_H
#define BSAA_QUERY_QUERYENGINE_H

#include "core/IncrementalDriver.h"
#include "query/QuerySnapshot.h"

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace bsaa {
namespace query {

/// One may-alias request in a batch.
struct MayAliasQuery {
  ir::VarId A = ir::InvalidVar;
  ir::VarId B = ir::InvalidVar;
  /// Location to evaluate at; InvalidLoc means the canonical location
  /// (see canonicalAliasLoc).
  ir::LocId Loc = ir::InvalidLoc;
};

/// Thread-safe query front end over an atomically swappable snapshot.
class QueryEngine {
public:
  QueryEngine() = default;

  /// Installs \p Snap as the snapshot served from now on. Queries
  /// already running against the previous snapshot finish against it
  /// unperturbed; the old snapshot is released outside the lock.
  void publish(std::shared_ptr<const QuerySnapshot> Snap) {
    std::shared_ptr<const QuerySnapshot> Old;
    {
      std::lock_guard<std::mutex> Lock(CurrentMutex);
      Old = std::move(Current);
      Current = std::move(Snap);
    }
    // Old's destructor (potentially the last reference to a whole
    // analysis snapshot) runs here, after the lock is dropped.
  }

  /// The snapshot currently served (null before the first publish).
  /// Holding the returned pointer pins that version for as long as the
  /// caller needs consistent multi-query reads.
  std::shared_ptr<const QuerySnapshot> snapshot() const {
    std::lock_guard<std::mutex> Lock(CurrentMutex);
    return Current;
  }

  bool hasSnapshot() const { return snapshot() != nullptr; }

  /// Single-query conveniences. Precondition: a snapshot is published.
  AliasAnswer mayAlias(ir::VarId A, ir::VarId B) const;
  AliasAnswer mayAliasAt(ir::VarId A, ir::VarId B, ir::LocId Loc) const;
  PointsToAnswer pointsToAt(ir::VarId V, ir::LocId Loc) const;

  /// Evaluates \p Queries against one consistent snapshot and returns
  /// the verdicts index-aligned (1 = may alias). \p Threads > 1 splits
  /// the batch across worker threads; 0/1 evaluates inline. Every
  /// worker chunk writes a disjoint result range, so no synchronization
  /// is needed beyond the batch's own completion latch.
  ///
  /// When \p Pool is non-null its workers run the chunks (the batch
  /// still completes before returning, tracked by a per-batch latch, so
  /// a shared long-lived pool is safe: waitAll() -- global quiescence
  /// plus cross-batch error stealing -- is never used). A null \p Pool
  /// spins up a transient pool of \p Threads workers, which is how
  /// every call used to behave and is only sensible for one-off bulk
  /// batches: per-call thread creation dominates small batches.
  std::vector<uint8_t> evalMayAlias(const std::vector<MayAliasQuery> &Queries,
                                    unsigned Threads = 0,
                                    ThreadPool *Pool = nullptr) const;

private:
  mutable std::mutex CurrentMutex;
  std::shared_ptr<const QuerySnapshot> Current;
};

/// IncrementalDriver + QueryEngine, wired so that every program update
/// atomically becomes the served snapshot.
class AliasService {
public:
  /// \p QOpts.EngineOpts is overwritten with the driver's engine
  /// options: materialization must run the cascade's configuration for
  /// SummaryCache adoption to hit (and for flagged-cluster bookkeeping
  /// to mean the same thing on both sides).
  explicit AliasService(core::BootstrapOptions BOpts,
                        QueryOptions QOpts = QueryOptions());

  /// Re-analyzes \p NewProg incrementally and publishes the resulting
  /// snapshot. In-flight queries keep reading the previous snapshot
  /// until they complete.
  core::UpdateReport update(std::unique_ptr<ir::Program> NewProg);

  QueryEngine &engine() { return Engine; }
  const QueryEngine &engine() const { return Engine; }
  core::IncrementalDriver &driver() { return Inc; }

  /// Batch evaluation that reuses the service's promotion pool (when
  /// one was configured) instead of constructing a pool per batch.
  std::vector<uint8_t> evalMayAlias(const std::vector<MayAliasQuery> &Queries,
                                    unsigned Threads = 0) const {
    return Engine.evalMayAlias(Queries, Threads, QOpts.PromotionPool.get());
  }

  /// Runs after every publish, on the update() caller's thread, with
  /// the batch's report and the snapshot just installed. Lets derived
  /// checkers (racecheck::RaceCheckService) re-derive their verdicts
  /// in lockstep with the alias layer's snapshot swap.
  using PostPublishHook = std::function<void(
      const core::UpdateReport &, std::shared_ptr<const QuerySnapshot>)>;
  void setPostPublishHook(PostPublishHook Hook) {
    OnPublish = std::move(Hook);
  }

private:
  core::IncrementalDriver Inc;
  QueryOptions QOpts;
  QueryEngine Engine;
  PostPublishHook OnPublish;
};

} // namespace query
} // namespace bsaa

#endif // BSAA_QUERY_QUERYENGINE_H
