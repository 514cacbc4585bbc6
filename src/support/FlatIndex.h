//===- support/FlatIndex.h - Open-addressing id index -----------*- C++ -*-===//
///
/// \file
/// A flat hash index over keys that live in their owner's storage. Each
/// slot is a (32-bit hash, 32-bit id) pair; the owner supplies the hash and,
/// on every probe, an equality check that compares an id's stored key
/// against the key being looked up. The index never sees a key, so it
/// neither copies nor frees one: a lookup allocates nothing, and teardown
/// frees one array.
///
/// Linear probing with backward-shift deletion (no tombstones) and a load
/// factor of at most one half. A key's home slot is the top log2(capacity)
/// bits of (hash * 0x9E3779B9) mod 2^32 (Fibonacci hashing), so a weak
/// owner hash still spreads.
///
/// insert() never adds a second id for a key that Eq matches; erase()
/// removes a known (hash, id) pair without consulting any key. Const
/// members never write, so one index may be probed from many threads while
/// nobody mutates it.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SUPPORT_FLATINDEX_H
#define DENALI_SUPPORT_FLATINDEX_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace denali {

/// Incremental key hashing for FlatIndex owners: fold each word in with
/// hashMix, then take hashFinish's 32 bits.
inline uint64_t hashMix(uint64_t H, uint64_t Word) {
  return (H ^ Word) * 0x9E3779B97F4A7C15ull;
}
inline uint32_t hashFinish(uint64_t H) {
  return static_cast<uint32_t>(H ^ (H >> 32));
}

class FlatIndex {
public:
  /// find()'s answer when no stored key is equal.
  static constexpr uint32_t NotFound = ~0u;

  size_t size() const { return Count; }
  size_t capacity() const { return Slots.size(); }

  /// The id whose stored key \p Eq accepts among ids hashed to \p Hash, or
  /// NotFound. \p Eq is called as Eq(uint32_t Id) -> bool.
  template <typename EqFn> uint32_t find(uint32_t Hash, EqFn &&Eq) const {
    if (Slots.empty())
      return NotFound;
    for (size_t I = home(Hash);; I = next(I)) {
      const Slot &S = Slots[I];
      if (S.Id == NotFound)
        return NotFound;
      if (S.Hash == Hash && Eq(S.Id))
        return S.Id;
    }
  }

  /// Inserts \p Id under \p Hash unless an id with an equal stored key
  /// (per \p Eq) is present. \returns that id, or \p Id when it was
  /// inserted. \p Eq may look at \p Id's stored key only if it exists yet.
  template <typename EqFn>
  uint32_t insert(uint32_t Hash, uint32_t Id, EqFn &&Eq) {
    assert(Id != NotFound && "id reserved for empty slots");
    if (2 * (Count + 1) > Slots.size())
      grow();
    size_t I = home(Hash);
    for (; Slots[I].Id != NotFound; I = next(I))
      if (Slots[I].Hash == Hash && Eq(Slots[I].Id))
        return Slots[I].Id;
    Slots[I] = Slot{Hash, Id};
    ++Count;
    return Id;
  }

  /// Removes the entry (\p Hash, \p Id). \returns false if it is absent.
  bool erase(uint32_t Hash, uint32_t Id) {
    if (Slots.empty())
      return false;
    size_t Hole = home(Hash);
    for (;; Hole = next(Hole)) {
      if (Slots[Hole].Id == NotFound)
        return false;
      if (Slots[Hole].Id == Id && Slots[Hole].Hash == Hash)
        break;
    }
    // Backward shift: pull each later entry of the run into the hole
    // unless its home lies cyclically after the hole (moving it there
    // would put it before its home, where probes never look).
    for (size_t J = next(Hole); Slots[J].Id != NotFound; J = next(J)) {
      size_t Home = home(Slots[J].Hash);
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole] = Slot();
    --Count;
    return true;
  }

private:
  struct Slot {
    uint32_t Hash = 0;
    uint32_t Id = NotFound;
  };
  std::vector<Slot> Slots; ///< Power-of-two size, or empty.
  size_t Count = 0;
  size_t Mask = 0;
  unsigned Shift = 32; ///< 32 - log2(Slots.size()).

  /// Only called on a non-empty table, so Shift < 32.
  size_t home(uint32_t Hash) const {
    return static_cast<uint32_t>(Hash * 0x9E3779B9u) >> Shift;
  }
  size_t next(size_t I) const { return (I + 1) & Mask; }

  void grow() {
    std::vector<Slot> Old;
    Old.swap(Slots);
    size_t NewSize = Old.empty() ? 16 : Old.size() * 2;
    Slots.assign(NewSize, Slot());
    Mask = NewSize - 1;
    Shift = 32;
    for (size_t S = NewSize; S > 1; S >>= 1)
      --Shift;
    // Stored hashes suffice to re-place every entry: no key is consulted.
    for (const Slot &S : Old)
      if (S.Id != NotFound) {
        size_t I = home(S.Hash);
        while (Slots[I].Id != NotFound)
          I = next(I);
        Slots[I] = S;
      }
  }
};

} // namespace denali

#endif // DENALI_SUPPORT_FLATINDEX_H
