// Pools for the placement hot path: the engine's per-event work reuses
// storage instead of allocating it.
//
//  * UsagePool: a free-listed slab of usage-interval nodes
//    {item, departure, next}. Every open bin's active set is a singly
//    linked list threaded through the pool; add/remove of an item is a
//    pointer splice plus a free-list push -- no per-event new/delete.
//    Nodes are uint32-indexed, so a bin's whole active set costs 16
//    bytes/item and the pool serves every bin of a Dispatcher
//    from one slab (the MrWSI bin.c exemplar builds its packing core on
//    exactly this mempool shape).
//
//  * IdMap: the engine finds a live job's slot by JobId and an open bin's
//    slot by BinId through one, so its memory follows the live count.
//
//  * IndexList: a free-listed doubly-linked list of BinIds (MoveToFront's
//    MRU order).
//
// None of these containers is thread-safe; each Dispatcher (one per shard
// in the sharded service) owns its own instances.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace dvbp {

/// One usage interval: item `item` occupies its bin until `departure`.
/// `next` threads the owning bin's active list through the pool.
struct UsageNode {
  ItemId item = kNoItem;
  Time departure = 0.0;
  std::uint32_t next = 0;
};

/// Free-listed slab of UsageNodes, shared by every bin of one
/// Dispatcher. Indices (not pointers) identify nodes, so the slab may
/// grow by reallocation and a node handle is 4 bytes.
class UsagePool {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  std::uint32_t alloc(ItemId item, Time departure) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx] = UsageNode{item, departure, kNil};
    return idx;
  }

  void release(std::uint32_t idx) noexcept {
    nodes_[idx].next = free_head_;
    free_head_ = idx;
  }

  UsageNode& operator[](std::uint32_t idx) noexcept { return nodes_[idx]; }
  const UsageNode& operator[](std::uint32_t idx) const noexcept {
    return nodes_[idx];
  }

  /// Nodes ever allocated (live + free-listed); capacity diagnostics.
  std::size_t slab_size() const noexcept { return nodes_.size(); }

 private:
  std::vector<UsageNode> nodes_;
  std::uint32_t free_head_ = kNil;
};

/// Open-addressing map from a 32-bit id to a 32-bit slot. The table keeps
/// at most half its entries occupied and never shrinks, so its size
/// follows the peak number of ids mapped at once. Insert, find and erase
/// allocate nothing except when the table doubles.
class IdMap {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  std::size_t size() const noexcept { return size_; }

  /// The slot mapped to `key`, or kAbsent.
  std::uint32_t find(std::uint32_t key) const noexcept {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (entries_[i].slot == kAbsent) return kAbsent;
      if (entries_[i].key == key) return entries_[i].slot;
    }
  }

  /// Maps `key` to `slot` (!= kAbsent); false, changing nothing, when
  /// `key` is already mapped.
  bool insert(std::uint32_t key, std::uint32_t slot) {
    if ((size_ + 1) * 2 > entries_.size()) grow();
    std::size_t i = home(key);
    for (; entries_[i].slot != kAbsent; i = (i + 1) & mask_) {
      if (entries_[i].key == key) return false;
    }
    entries_[i] = Entry{key, slot};
    ++size_;
    return true;
  }

  /// Maps the already mapped `key` to `slot` instead.
  void remap(std::uint32_t key, std::uint32_t slot) noexcept {
    std::size_t i = home(key);
    while (entries_[i].key != key) i = (i + 1) & mask_;
    entries_[i].slot = slot;
  }

  /// Unmaps `key`. Precondition: `key` is mapped.
  void erase(std::uint32_t key) noexcept {
    std::size_t hole = home(key);
    while (entries_[hole].key != key) hole = (hole + 1) & mask_;
    // Backward shift: pull each later entry of the probe run into the
    // hole when the hole lies between its home and where it sits.
    for (std::size_t i = (hole + 1) & mask_; entries_[i].slot != kAbsent;
         i = (i + 1) & mask_) {
      if (((i - home(entries_[i].key)) & mask_) >= ((i - hole) & mask_)) {
        entries_[hole] = entries_[i];
        hole = i;
      }
    }
    entries_[hole].slot = kAbsent;
    --size_;
  }

 private:
  struct Entry {
    std::uint32_t key = 0;
    std::uint32_t slot = kAbsent;
  };

  // Fibonacci hashing: the top bits of key * 2^64/phi, so dense runs of
  // ids (JobIds and BinIds mostly are) spread over the whole table.
  std::size_t home(std::uint32_t key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
    entries_.assign(capacity, Entry{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    for (const Entry& e : old) {
      if (e.slot != kAbsent) insert(e.key, e.slot);
    }
  }

  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  int shift_ = 63;
  std::size_t size_ = 0;
};

/// Free-listed doubly-linked list of BinIds over a slab -- std::list's
/// splice-to-front interface without its per-node heap
/// allocations. Node handles are uint32 slab indices (stable for the
/// node's lifetime), so a caller can keep a BinId -> node map and erase
/// or move-to-front in O(1) without searching. MoveToFront's MRU list is
/// the intended customer: one list per policy, nodes recycled through the
/// free list as bins open and close.
class IndexList {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  bool empty() const noexcept { return head_ == kNil; }
  std::size_t size() const noexcept { return size_; }
  std::uint32_t head() const noexcept { return head_; }

  BinId front() const noexcept { return nodes_[head_].value; }
  BinId value(std::uint32_t node) const noexcept {
    return nodes_[node].value;
  }
  std::uint32_t next(std::uint32_t node) const noexcept {
    return nodes_[node].next;
  }

  /// Inserts `value` at the front; returns its node handle.
  std::uint32_t push_front(BinId value) {
    const std::uint32_t idx = alloc(value);
    link_front(idx);
    ++size_;
    return idx;
  }

  /// Inserts `value` at the back; returns its node handle (restore path).
  std::uint32_t push_back(BinId value) {
    const std::uint32_t idx = alloc(value);
    Node& n = nodes_[idx];
    n.prev = tail_;
    n.next = kNil;
    if (tail_ != kNil) {
      nodes_[tail_].next = idx;
    } else {
      head_ = idx;
    }
    tail_ = idx;
    ++size_;
    return idx;
  }

  /// Unlinks `node` and recycles it through the free list.
  void erase(std::uint32_t node) noexcept {
    unlink(node);
    nodes_[node].next = free_head_;
    free_head_ = node;
    --size_;
  }

  /// Moves `node` to the front (no-op when already there).
  void move_to_front(std::uint32_t node) noexcept {
    if (head_ == node) return;
    unlink(node);
    link_front(node);
  }

  /// Empties the list; keeps the slab for reuse.
  void clear() noexcept {
    // Thread every live node onto the free list in one walk.
    std::uint32_t cur = head_;
    while (cur != kNil) {
      const std::uint32_t nxt = nodes_[cur].next;
      nodes_[cur].next = free_head_;
      free_head_ = cur;
      cur = nxt;
    }
    head_ = tail_ = kNil;
    size_ = 0;
  }

 private:
  struct Node {
    BinId value = kNoBin;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  ///< doubles as the free-list link
  };

  std::uint32_t alloc(BinId value) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx] = Node{value, kNil, kNil};
    return idx;
  }

  void link_front(std::uint32_t node) noexcept {
    Node& n = nodes_[node];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = node;
    } else {
      tail_ = node;
    }
    head_ = node;
  }

  void unlink(std::uint32_t node) noexcept {
    Node& n = nodes_[node];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  std::vector<Node> nodes_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace dvbp
