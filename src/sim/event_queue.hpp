// Discrete-event simulation kernel.
//
// (time, sequence) keys over a slab of small-buffer-optimized Task slots.
// Sequence numbers break ties so that execution order is a pure function of
// the schedule calls — the substrate is deterministic by construction.
//
// Over the campaign_bench campaign a pop sees 10.9 pending events on average,
// its own included (1-3 at 0.5% of pops, 4-7 at 10.9%, 8-15 at 83.6%, 16-31
// at 5.1%, never more than 28). So the nearest kRunKeys keys live in one
// sorted run with the minimum at the back, keys beyond it overflow into a
// 4-ary min-heap, and every run key is before every heap key. An event
// scheduled at now() sorts after every queued key at now() and before every
// later one.
//
// Tasks never move after insertion, and slots recycle through a free list,
// so the steady-state loop performs no heap allocation once the slab covers
// the high-water mark of pending events.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/task.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace loki::sim {

class EventQueue {
 public:
  using Action = Task;

  SimTime now() const { return now_; }

  /// Schedule `action` at absolute time `at` (must be >= now()). Actions
  /// scheduled at the same instant run in schedule order (seq order), even
  /// when an action schedules into its own timestamp. Inline: this runs
  /// once per kernel event and inlining lets callers fuse the Task
  /// construction with the slab store.
  void schedule_at(SimTime at, Task action) {
    LOKI_REQUIRE(at >= now_, "cannot schedule an event in the past");
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slot_at(slot).next_free;
    } else {
      slot = new_slot();
    }
    slot_at(slot).task = std::move(action);
    push(Key{at.ns, (next_seq_++ << kSlotBits) | slot});
  }

  /// Schedule `action` `delay` from now (delay >= 0).
  void schedule_in(Duration delay, Task action) {
    LOKI_REQUIRE(delay.ns >= 0, "negative delay");
    schedule_at(now_ + delay, std::move(action));
  }

  /// Run events until the queue is empty or `limit` is passed. Events at
  /// exactly `limit` still run. Returns the number of events executed.
  std::uint64_t run_until(SimTime limit);

  /// Run until the queue drains completely.
  std::uint64_t run_to_completion();

  /// Return to the just-constructed state (now == 0, seq == 0, nothing
  /// pending) while keeping the slab: pending tasks are destroyed, every
  /// slot is re-threaded onto the free list, and the heap storage keeps its
  /// capacity. Execution order is a pure function of (time, seq), never of
  /// slot indices, so a reset queue behaves identically to a fresh one —
  /// minus the slab regrowth. The backbone of ExperimentContext reuse.
  void reset();

  bool empty() const { return run_size_ == 0 && heap_.empty(); }
  std::uint64_t executed() const { return executed_; }

  /// Number of task slots ever created (high-water mark of pending events).
  /// Flat across a steady-state window == no per-event slab growth.
  std::size_t slab_capacity() const { return slots_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Slots live in chunks of 2^kChunkBits that never move, so run_until()
  /// executes a task in place (one combined invoke+destroy dispatch) while
  /// the action schedules new events — which may add chunks — behind its back.
  struct Slot {
    Task task;
    std::uint32_t next_free{kNoSlot};
  };
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  /// Ordering key + slab index packed into 16 bytes. The sequence number
  /// occupies the high bits, so comparing seq_slot compares seq — the slot
  /// bits can never decide an ordering because sequence numbers are unique.
  static constexpr unsigned kSlotBits = 20;  // up to ~1M pending events
  struct Key {
    std::int64_t at;
    std::uint64_t seq_slot;  // (seq << kSlotBits) | slot
  };
  static bool before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq_slot < b.seq_slot;
  }
  static constexpr std::uint32_t kRunKeys = 32;  // above every campaign pop

  Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  std::uint32_t new_slot();  // past the high-water mark

  void push(const Key& k) {
    if ((!heap_.empty() || run_size_ == kRunKeys) && spill(k)) return;
    // Insertion from the minimum end: keys before `k` shift one place back.
    std::uint32_t i = run_size_++;
    while (i > 0 && before(run_[i - 1], k)) {
      run_[i] = run_[i - 1];
      --i;
    }
    run_[i] = k;
  }
  /// Sends `k` to the heap (true) when it is not before the heap's root or
  /// the full run's largest key; otherwise makes room in the run (false).
  bool spill(const Key& k);
  void heap_push(const Key& k);
  void heap_pop();

  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  Key run_[kRunKeys]{};  // descending: run_[run_size_ - 1] is the minimum
  std::uint32_t run_size_{0};
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_{0};
  std::uint32_t free_head_{kNoSlot};
};

}  // namespace loki::sim
