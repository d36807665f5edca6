//===- support/FlatHashMap.h - Open-addressing u64 -> u32 map --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multimap from 64-bit keys to 32-bit values stored flat, beside
/// FlatHashSet: one vector of slots, linear probing, no node per entry.
/// The FSCS engine uses it for its transient indexes, which are keyed
/// by a content hash and map to a dense id (a condition, a summary key):
/// several ids may share a hash, so a lookup takes a predicate that
/// checks the candidate's content. A key that maps to one value only
/// (a memo) uses the predicate-free find.
///
/// The value NoValue marks an empty slot, so it cannot be stored; every
/// key, 0 included, can. There is no erase, and entries under one key
/// come back in an unspecified but deterministic order.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_FLATHASHMAP_H
#define BSAA_SUPPORT_FLATHASHMAP_H

#include "support/FlatHashSet.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bsaa {

class FlatHashMap {
public:
  static constexpr uint32_t NoValue = ~uint32_t(0);

  /// Adds the entry (\p K, \p V), beside any entries already under \p K.
  void insert(uint64_t K, uint32_t V) {
    assert(V != NoValue && "NoValue marks empty slots");
    if (flat::slotsFor(Used + 1) > Slots.size())
      rehash(flat::slotsFor(Used + 1));
    place(Slots, K, V);
    ++Used;
  }

  /// The first value under \p K for which \p Match holds, or NoValue.
  template <typename Pred> uint32_t find(uint64_t K, Pred Match) const {
    if (Slots.empty())
      return NoValue;
    size_t Mask = Slots.size() - 1;
    for (size_t I = flat::home(K, Mask); Slots[I].Val != NoValue;
         I = (I + 1) & Mask)
      if (Slots[I].Key == K && Match(Slots[I].Val))
        return Slots[I].Val;
    return NoValue;
  }

  /// Some value under \p K, or NoValue.
  uint32_t find(uint64_t K) const {
    return find(K, [](uint32_t) { return true; });
  }

  size_t size() const { return Used; }
  bool empty() const { return Used == 0; }

  /// Sizes the slots for \p N entries, so inserting them does not rehash.
  void reserve(size_t N) {
    if (flat::slotsFor(N) > Slots.size())
      rehash(flat::slotsFor(N));
  }

  /// Drops every entry and releases the slots.
  void clear() {
    Slots = {};
    Used = 0;
  }

  /// Bytes the slots occupy.
  uint64_t approxBytes() const { return Slots.size() * sizeof(Slot); }

private:
  struct Slot {
    uint64_t Key = 0;
    uint32_t Val = NoValue;
  };

  /// Puts (\p K, \p V) in the first empty slot of its probe sequence.
  static void place(std::vector<Slot> &S, uint64_t K, uint32_t V) {
    size_t Mask = S.size() - 1;
    size_t I = flat::home(K, Mask);
    while (S[I].Val != NoValue)
      I = (I + 1) & Mask;
    S[I] = Slot{K, V};
  }

  void rehash(size_t NewSlots) {
    std::vector<Slot> Old =
        std::exchange(Slots, std::vector<Slot>(NewSlots));
    for (const Slot &E : Old)
      if (E.Val != NoValue)
        place(Slots, E.Key, E.Val);
  }

  std::vector<Slot> Slots; ///< Size is 0 or a power of 2.
  size_t Used = 0;         ///< Occupied slots.
};

} // namespace bsaa

#endif // BSAA_SUPPORT_FLATHASHMAP_H
