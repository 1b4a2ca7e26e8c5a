// The pipeline's flow table (DESIGN.md §5m): one open-addressing index over
// a slab of flow records.
//
// Index: a power-of-two array of (FlowKeyHash, record id) slots, probed
// linearly from the slot the hash's top bits pick, doubled before it gets
// more than half full, and kept free of tombstones by backward-shift
// deletion. Top bits, because the sharded front-end routes a flow to shard
// `hash % n_shards`: within one shard the low bits are all alike. Each slot
// keeps its key's 64-bit hash, so a probe compares hashes before keys and
// growth re-places slots without rehashing a key; callers hash once per
// packet and reuse the value for sampling and routing.
//
// Slab: records addressed by 32-bit ids that stay valid until the record is
// erased or the table compacted, a LIFO free list threaded through erased
// records, and an intrusive doubly linked list in admission/touch order
// whose front is the least recently touched flow (capacity eviction). Walks
// over the table follow that list, so they cost O(live) however large the
// table once was; compact() gives a drained burst's memory back.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace vpscope::pipeline {

template <typename Value>
class FlowTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  struct Record {
    net::FlowKey key;
    std::uint64_t hash = 0;
    /// LRU neighbours while live; `next` chains the free list once erased.
    Id prev = kNone;
    Id next = kNone;
    bool live = false;
    Value value{};
  };

  std::size_t size() const { return size_; }
  /// Index slots: 0 before the first insert, then a power of two.
  std::size_t capacity() const { return slots_.size(); }
  /// One past the highest id handed out so far; every id below it is either
  /// live or on the free list.
  Id slab_size() const { return static_cast<Id>(slab_.size()); }

  Record& operator[](Id id) { return slab_[id]; }
  const Record& operator[](Id id) const { return slab_[id]; }

  /// The id of `key`'s record (`hash` is its FlowKeyHash), or kNone.
  Id find(const net::FlowKey& key, std::uint64_t hash) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(hash);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == hash && slab_[s.id].key == key) return s.id;
    }
  }

  /// Finds `key`, or admits it as a new record holding a default Value at
  /// the back of the LRU list. Returns (id, inserted); finding a record
  /// does not touch it.
  std::pair<Id, bool> insert(const net::FlowKey& key, std::uint64_t hash) {
    std::size_t i = 0;
    if (!slots_.empty()) {
      for (i = home(hash);; i = (i + 1) & mask()) {
        const Slot& s = slots_[i];
        if (s.id == kNone) break;
        if (s.hash == hash && slab_[s.id].key == key) return {s.id, false};
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      grow();
      i = empty_slot(hash);
    }
    Id id = free_;
    if (id != kNone) {
      free_ = slab_[id].next;
    } else {
      id = static_cast<Id>(slab_.size());
      slab_.emplace_back();
    }
    Record& r = slab_[id];
    r.key = key;
    r.hash = hash;
    r.live = true;
    link_back(id);
    slots_[i] = Slot{hash, id};
    ++size_;
    return {id, true};
  }

  /// Removes a live record: its slot leaves the index by backward shift, its
  /// value is reset (releasing what it owns) and its id goes on the free
  /// list.
  void erase(Id id) {
    Record& r = slab_[id];
    std::size_t hole = home(r.hash);
    while (slots_[hole].id != id) hole = (hole + 1) & mask();
    for (std::size_t j = (hole + 1) & mask();; j = (j + 1) & mask()) {
      const Slot s = slots_[j];
      if (s.id == kNone) break;
      // Move s into the hole unless its home lies cyclically in (hole, j].
      if (((j - home(s.hash)) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = s;
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    unlink(id);
    r.live = false;
    r.value = Value{};
    r.next = free_;
    free_ = id;
    --size_;
  }

  /// Moves a live record to the back of the LRU list.
  void touch(Id id) {
    if (id == tail_) return;
    unlink(id);
    link_back(id);
  }

  /// The least recently admitted or touched live record, or kNone.
  Id lru_front() const { return head_; }
  /// The live record after `id` in LRU order, or kNone. Read it before
  /// erasing `id` to walk while erasing.
  Id lru_next(Id id) const { return slab_[id].next; }

  /// Renumbers the live records 0..size()-1 in LRU order, frees the rest of
  /// the slab and rebuilds the index at the capacity size() inserts would
  /// have grown it to. Every id changes: the caller may hold none.
  void compact() {
    std::vector<Record> slab;
    slab.reserve(size_);
    for (Id id = head_; id != kNone; id = slab_[id].next)
      slab.push_back(std::move(slab_[id]));
    slab_.swap(slab);
    free_ = head_ = tail_ = kNone;
    for (Id id = 0; id < slab_.size(); ++id) link_back(id);
    std::size_t capacity = size_ == 0 ? 0 : 16;
    while (capacity < size_ * 2) capacity *= 2;
    reindex(capacity);
  }

  /// Drops every record and frees the index and slab.
  void clear() { *this = FlowTable{}; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Id id = kNone;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> shift_);
  }
  std::size_t empty_slot(std::uint64_t hash) const {
    std::size_t i = home(hash);
    while (slots_[i].id != kNone) i = (i + 1) & mask();
    return i;
  }

  void grow() { reindex(slots_.empty() ? 16 : slots_.size() * 2); }

  /// Rebuilds the index with `capacity` slots (0, or a power of two) from
  /// the live records' stored hashes.
  void reindex(std::size_t capacity) {
    std::vector<Slot>(capacity).swap(slots_);
    shift_ = capacity == 0 ? 64 : 64 - std::countr_zero(capacity);
    for (Id id = head_; id != kNone; id = slab_[id].next)
      slots_[empty_slot(slab_[id].hash)] = Slot{slab_[id].hash, id};
  }

  void link_back(Id id) {
    Record& r = slab_[id];
    r.prev = tail_;
    r.next = kNone;
    if (tail_ != kNone)
      slab_[tail_].next = id;
    else
      head_ = id;
    tail_ = id;
  }
  void unlink(Id id) {
    Record& r = slab_[id];
    if (r.prev != kNone)
      slab_[r.prev].next = r.next;
    else
      head_ = r.next;
    if (r.next != kNone)
      slab_[r.next].prev = r.prev;
    else
      tail_ = r.prev;
  }

  std::vector<Slot> slots_;
  std::vector<Record> slab_;
  int shift_ = 64;
  std::size_t size_ = 0;
  Id free_ = kNone;
  Id head_ = kNone;
  Id tail_ = kNone;
};

}  // namespace vpscope::pipeline
