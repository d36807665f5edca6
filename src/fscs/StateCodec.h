//===- fscs/StateCodec.h - CachedClusterRun <-> bytes -----------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary codec for CachedClusterRun -- the SummaryEngine
/// State (condition table, keys, summary tuples, worklists, FSCI memo)
/// plus the dovetail and engine accounting a cache hit replays. This
/// is the payload the persistent CacheStore holds under each run's
/// summary-cache key (core::ClusterRunResult::RunKey), so a restarted
/// process (or a freshly onboarded tenant) can import whole cluster
/// fixpoints instead of re-solving them.
///
/// Layout 2 writes the condition table once, ahead of the keys, and
/// every tuple, result and waiter refers to its condition by id
/// (DESIGN.md §5e). Encoding is deterministic: the table and keys in
/// id order, the hash sets inside KeyState sorted (not in slot order),
/// and the std::map in its natural order, so
/// encode(decode(encode(S))) == encode(S) -- the property the
/// round-trip tests pin.
///
/// Decoding is total: it consumes untrusted bytes through the
/// bounds-checked ByteReader, validates every invariant the in-memory
/// types rely on (canonical, unique conditions with true and false at
/// ids 0 and 1, in-range condition ids and KeyIds, unique keys,
/// ascending map keys, valid enum values, exact input consumption),
/// and returns false on any violation. A corrupt or version-skewed
/// payload can therefore only produce a cache miss, never a malformed
/// State.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_STATECODEC_H
#define BSAA_FSCS_STATECODEC_H

#include "fscs/SummaryCache.h"
#include "support/CacheStore.h"

namespace bsaa {
namespace fscs {

/// CacheStore family tag for summary-run payloads. The slice and
/// refinement codecs (core/StoreCodecs.h) use 2 and 3.
constexpr uint8_t StoreFamilySummary = 1;

/// Bump on any layout change; readers treat other versions as a miss.
constexpr uint8_t SummaryCodecVersion = 2;

/// Serializes \p Run into \p W (deterministic; see file comment).
void encodeCachedClusterRun(const CachedClusterRun &Run,
                            support::ByteWriter &W);

/// Decodes \p Len bytes at \p Data into \p Out. Returns false (leaving
/// \p Out unspecified) on any malformed input; never throws.
bool decodeCachedClusterRun(const uint8_t *Data, size_t Len,
                            CachedClusterRun &Out);

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_STATECODEC_H
