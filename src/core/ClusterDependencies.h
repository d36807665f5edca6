//===- core/ClusterDependencies.h - Cluster dependency scopes ---*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency scope of a cluster: which functions a per-cluster
/// FSCS run can observe, and a content digest of exactly that
/// observable region. This is what makes re-analysis after a program
/// edit incremental: the exact-program summary-cache key embeds a
/// *whole-program* fingerprint, so any edit anywhere invalidates every
/// entry; the scoped key of this header survives edits outside the
/// cluster's dependency scope, so unaffected clusters replay from cache
/// across program versions.
///
/// The scope is derived from the cluster's Algorithm-1 slice plus the
/// call graph. Writing R for the owners of the slice statements, the
/// members, and the tracked refs (plus the entry function, where global
/// queries anchor), the engine can only ever visit functions in
///
///   D = R  u  callers*(R)
///
/// -- it starts traversals at member owners / the entry, walks
/// intra-function CFGs, ascends to callers (all in callers*), and
/// descends into a callee only when the callee's subtree contains slice
/// statements, i.e. the callee is an ancestor of a slice owner and
/// hence already in D. clusterScopeKey hashes the full content of D
/// (with raw ids: a hit must guarantee the cached engine state's
/// VarIds/LocIds are valid verbatim), the Steensgaard facts reachable
/// from the cluster, and the per-call-site "which slice owners does
/// this callee reach" sets that decide descent.
///
/// Everything in that list except the cluster identity and the reach
/// sets is a per-version fact: one digest per function, one per
/// Steensgaard partition. ScopeKeyTables derives them once per
/// (program, Steensgaard) pair, so a cluster's key costs
/// O(|D| + |relevant partitions|) instead of a walk over the program
/// and the whole Steensgaard solution.
/// See DESIGN.md §5c.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_CORE_CLUSTERDEPENDENCIES_H
#define BSAA_CORE_CLUSTERDEPENDENCIES_H

#include "core/Cluster.h"
#include "fscs/SummaryEngine.h"
#include "ir/CallGraph.h"
#include "support/ContentHash.h"

#include <vector>

namespace bsaa {
namespace analysis {
class SteensgaardAnalysis;
} // namespace analysis

namespace core {

/// The functions a FSCS run over \p C can observe (sorted by id):
/// owners of slice statements / members / tracked refs, the entry
/// function, and every transitive caller thereof.
std::vector<ir::FuncId> dependentFunctions(const ir::Program &P,
                                           const ir::CallGraph &CG,
                                           const Cluster &C);

/// The per-version inputs of a scope key over one (program, Steensgaard)
/// pair, in a *global canonical frame*: partition and hierarchy-node ids
/// are solver numbering artifacts that an edit anywhere can renumber, so
/// a partition or hierarchy node is named by its smallest member VarId
/// and a pointee cell by the smallest VarId pointing into it. Names in
/// this frame depend only on the solved equivalence relations, never on
/// which solver instance produced them. Built once per program version
/// (BootstrapDriver does so before dispatching cluster jobs), then read
/// concurrently by every cluster's key derivation. Holds references to
/// both inputs, which must outlive it.
class ScopeKeyTables {
public:
  ScopeKeyTables(const ir::Program &P,
                 const analysis::SteensgaardAnalysis &Steens);

  const ir::Program &program() const { return Prog; }
  const analysis::SteensgaardAnalysis &steensgaard() const { return Steens; }

  /// Raw-id content digest of function \p F: signature, statements,
  /// CFG, and the type record and pointee-cell name of every variable
  /// the function names.
  const support::Digest &funcDigest(ir::FuncId F) const {
    return FuncDigests[F];
  }
  /// Partitions of the variables function \p F names, sorted.
  const std::vector<uint32_t> &funcPartitions(ir::FuncId F) const {
    return FuncParts[F];
  }
  /// Position of partition \p Part in the order of partition names.
  uint32_t partitionRank(uint32_t Part) const { return PartRank[Part]; }
  /// Digest of the partition at position \p Rank in name order: depth,
  /// hierarchy-node name, successor name, the global has-predecessor
  /// bit, and the type record and pointee-cell name of every member.
  const support::Digest &rankedPartitionDigest(uint32_t Rank) const {
    return RankedPartDigests[Rank];
  }
  /// Canonical name of \p V's pointee cell: the smallest VarId whose
  /// pointee cell is the same (mayAlias is equality of these names).
  ir::VarId cellName(ir::VarId V) const { return CellNames[V]; }

private:
  const ir::Program &Prog;
  const analysis::SteensgaardAnalysis &Steens;
  std::vector<ir::VarId> CellNames;
  std::vector<uint32_t> PartRank;
  std::vector<support::Digest> RankedPartDigests;
  std::vector<support::Digest> FuncDigests;
  std::vector<std::vector<uint32_t>> FuncParts;
};

/// Content digest of everything a per-cluster FSCS run reads (see file
/// comment), assembled from \p Tables: the cluster identity, (F,
/// funcDigest(F)) over the dependency cone D, the per-call-site reach
/// digests, the cluster's own variable records, and the digests, in
/// name order, of every partition in the successor closure of the
/// partitions the scope names. Key equality across two (program, Steensgaard)
/// versions implies the engine observes identical inputs in both, so a
/// cached run replays bit-identically.
support::Digest clusterScopeKey(const ir::CallGraph &CG,
                                const ScopeKeyTables &Tables,
                                const Cluster &C,
                                const fscs::SummaryEngine::Options &Opts);

/// The same key with throwaway tables built for this one call: a
/// convenience for tests and one-off callers; pipelines build the
/// tables once per version.
support::Digest clusterScopeKey(const ir::Program &P,
                                const ir::CallGraph &CG,
                                const analysis::SteensgaardAnalysis &Steens,
                                const Cluster &C,
                                const fscs::SummaryEngine::Options &Opts);

/// Inverted dependency index over a cover: entry F lists the indices of
/// the clusters in \p Cover whose dependency scope contains function F.
/// An edit to F can only change the results of exactly those clusters.
std::vector<std::vector<uint32_t>>
buildClusterDependencyIndex(const ir::Program &P, const ir::CallGraph &CG,
                            const std::vector<Cluster> &Cover);

} // namespace core
} // namespace bsaa

#endif // BSAA_CORE_CLUSTERDEPENDENCIES_H
