//===- support/FlatHashSet.h - Open-addressing set of hashes ---*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of 64-bit hashes stored flat: one vector of slots, linear
/// probing, no node per element. It replaces std::unordered_set<uint64_t>
/// where a set only records "seen" hashes -- the FSCS engine's per-key
/// dedup sets hold millions of members per pass, and a node-based set
/// pays an allocation and a free for each.
///
/// Slot value 0 marks an empty slot, so the key 0 is kept out of the
/// slots in a flag. There is no erase: members only accumulate, which
/// also makes the slot count a function of the number of inserted keys
/// (decode and copy reproduce it exactly).
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_FLATHASHSET_H
#define BSAA_SUPPORT_FLATHASHSET_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace bsaa {

/// Sizing and probing shared by the flat hash containers.
namespace flat {

constexpr size_t MinSlots = 4;

/// Smallest power-of-two slot count holding \p N keys at a load of at
/// most 3/4 (0 for none).
inline size_t slotsFor(size_t N) {
  if (N == 0)
    return 0;
  size_t S = MinSlots;
  while (N * 4 > S * 3)
    S *= 2;
  return S;
}

/// The key's first probe slot. The keys are hashes already, but not
/// necessarily mixed in their low bits, so mix before masking.
inline size_t home(uint64_t K, size_t Mask) {
  K ^= K >> 33;
  K *= 0xff51afd7ed558ccdull;
  K ^= K >> 33;
  return static_cast<size_t>(K) & Mask;
}

} // namespace flat

class FlatHashSet {
public:
  /// Forward iteration over the members, in slot order (unspecified but
  /// deterministic for a given insertion sequence); 0 comes last.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint64_t *;
    using reference = const uint64_t &;

    const_iterator() = default;
    reference operator*() const {
      return Pos < Set->Slots.size() ? Set->Slots[Pos] : Zero;
    }
    const_iterator &operator++() {
      ++Pos;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const const_iterator &O) const { return Pos == O.Pos; }
    bool operator!=(const const_iterator &O) const { return Pos != O.Pos; }

  private:
    friend class FlatHashSet;
    static constexpr uint64_t Zero = 0;
    const_iterator(const FlatHashSet *S, size_t P) : Set(S), Pos(P) {
      settle();
    }
    /// Moves to the next member: an occupied slot, then the position
    /// past the slots when 0 is a member, else end.
    void settle() {
      size_t N = Set->Slots.size();
      while (Pos < N && Set->Slots[Pos] == 0)
        ++Pos;
      if (Pos == N && !Set->HasZero)
        Pos = N + 1;
    }

    const FlatHashSet *Set = nullptr;
    size_t Pos = 0;
  };

  /// Inserts \p K; returns true if it was not a member yet.
  bool insert(uint64_t K) {
    if (K == 0) {
      bool New = !HasZero;
      HasZero = true;
      return New;
    }
    if (flat::slotsFor(Used + 1) > Slots.size())
      rehash(flat::slotsFor(Used + 1));
    size_t Mask = Slots.size() - 1;
    for (size_t I = flat::home(K, Mask);; I = (I + 1) & Mask) {
      if (Slots[I] == K)
        return false;
      if (Slots[I] == 0) {
        Slots[I] = K;
        ++Used;
        return true;
      }
    }
  }

  bool contains(uint64_t K) const {
    if (K == 0)
      return HasZero;
    if (Slots.empty())
      return false;
    size_t Mask = Slots.size() - 1;
    for (size_t I = flat::home(K, Mask);; I = (I + 1) & Mask) {
      if (Slots[I] == K)
        return true;
      if (Slots[I] == 0)
        return false;
    }
  }

  size_t size() const { return Used + (HasZero ? 1 : 0); }
  bool empty() const { return size() == 0; }

  /// Sizes the slots for \p N keys, so inserting them does not rehash.
  void reserve(size_t N) {
    if (flat::slotsFor(N) > Slots.size())
      rehash(flat::slotsFor(N));
  }

  /// Bytes the slots occupy: what the set actually holds in memory
  /// beyond its own footprint.
  uint64_t approxBytes() const { return Slots.size() * sizeof(uint64_t); }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, Slots.size() + 1); }

private:
  void rehash(size_t NewSlots) {
    std::vector<uint64_t> Old =
        std::exchange(Slots, std::vector<uint64_t>(NewSlots, 0));
    size_t Mask = NewSlots - 1;
    for (uint64_t K : Old) {
      if (K == 0)
        continue;
      size_t I = flat::home(K, Mask);
      while (Slots[I] != 0)
        I = (I + 1) & Mask;
      Slots[I] = K;
    }
  }

  std::vector<uint64_t> Slots; ///< 0 = empty; size is 0 or a power of 2.
  size_t Used = 0;             ///< Occupied slots.
  bool HasZero = false;        ///< Whether 0 is a member.
};

} // namespace bsaa

#endif // BSAA_SUPPORT_FLATHASHSET_H
