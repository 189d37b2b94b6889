#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace loki::sim {

std::uint32_t EventQueue::new_slot() {
  LOKI_REQUIRE(slots_ < (1u << kSlotBits), "event slab exceeded 2^20 slots");
  if ((slots_ & kChunkMask) == 0)
    chunks_.push_back(std::make_unique<Slot[]>(kChunkMask + 1));
  return slots_++;
}

bool EventQueue::spill(const Key& k) {
  if ((!heap_.empty() && !before(k, heap_.front())) ||
      (run_size_ == kRunKeys && !before(k, run_[0]))) {
    heap_push(k);
    return true;
  }
  if (run_size_ == kRunKeys) {
    // Every other run key is before run_[0], which is before every heap key.
    heap_push(run_[0]);
    std::copy(run_ + 1, run_ + kRunKeys, run_);
    --run_size_;
  }
  return false;
}

void EventQueue::heap_push(const Key& k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::heap_pop() {
  // The last leaf replaces the root and sifts down.
  const Key k = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

std::uint64_t EventQueue::run_until(SimTime limit) {
  std::uint64_t count = 0;
  for (;;) {
    // The heap serves only once the run is empty: its keys come later.
    const bool from_run = run_size_ != 0;
    if (!from_run && heap_.empty()) break;
    const Key k = from_run ? run_[run_size_ - 1] : heap_.front();
    if (k.at > limit.ns) break;
    if (from_run) {
      --run_size_;
    } else {
      heap_pop();
    }
    now_ = SimTime{k.at};

    // Run the action in place and recycle the slot afterwards. The single
    // combined invoke+destroy dispatch is the pop path's only indirect call.
    const auto slot =
        static_cast<std::uint32_t>(k.seq_slot & ((1u << kSlotBits) - 1));
    Slot& s = slot_at(slot);
    s.task.run_once();
    s.next_free = free_head_;
    free_head_ = slot;
    ++count;
    ++executed_;
  }
  // Advance the clock to the limit (time passes even with no events), except
  // for the run-to-completion sentinel where now() stays at the last event.
  if (limit != SimTime::max() && now_ < limit) now_ = limit;
  return count;
}

std::uint64_t EventQueue::run_to_completion() {
  return run_until(SimTime::max());
}

void EventQueue::reset() {
  // Experiments stop at done_ without draining, so live tasks (watchdog
  // timers, in-flight deliveries) may still occupy slots: destroy them all,
  // free and occupied alike (resetting an empty Task is a no-op).
  for (std::uint32_t i = 0; i < slots_; ++i) slot_at(i).task.reset();
  free_head_ = kNoSlot;
  for (std::uint32_t i = slots_; i-- > 0;) {
    slot_at(i).next_free = free_head_;
    free_head_ = i;
  }
  run_size_ = 0;
  heap_.clear();
  now_ = SimTime::zero();
  next_seq_ = 0;
  executed_ = 0;
}

}  // namespace loki::sim
