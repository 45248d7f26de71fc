//! A cancellable, deterministic event queue.
//!
//! Events scheduled at equal times are delivered by ascending
//! [`EventClass`], then in scheduling order (FIFO), which keeps simulations
//! reproducible regardless of heap internals.
//!
//! Payloads live in a slab (a `Vec` of slots with a free list); the heap
//! holds only `(time, class, seq, slot)` keys. Cancellation is O(1): the
//! payload is taken out of its slot at once and the heap key becomes a
//! tombstone, skipped lazily on pop. A slot returns to the free list only
//! when its heap key pops, so a tombstone can never meet a new occupant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A handle to a scheduled event, usable to cancel it.
///
/// A handle packs the event's slab slot with that slot's generation,
/// which advances every time the slot is released. A handle to an event
/// that has fired or been cancelled therefore stays stale: it matches no
/// later event that reuses the slot (until that one slot has been reused
/// 2³² times and its generation wraps). Handles from one queue must not
/// be used with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

impl EventHandle {
    fn new(slot: u32, generation: u32) -> EventHandle {
        EventHandle(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A delivery-priority class for events that share a timestamp.
///
/// When several events are scheduled at the same instant, the queue delivers
/// them by ascending class first and scheduling order (FIFO) second. This
/// lets a simulator encode its causal conventions at a shared timestamp —
/// e.g. "data births precede queries precede contacts" — without relying on
/// the order in which it happened to enqueue them.
///
/// Classes are plain bytes; smaller fires earlier. Events scheduled without
/// an explicit class get [`EventClass::DEFAULT`] (the midpoint, 128), so
/// class-annotated events can be ordered both before and after legacy ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventClass(pub u8);

impl EventClass {
    /// The class used by [`EventQueue::schedule`]: the midpoint `128`.
    pub const DEFAULT: EventClass = EventClass(128);
}

impl Default for EventClass {
    fn default() -> EventClass {
        EventClass::DEFAULT
    }
}

// Field order matters: derived Ord compares (time, class, seq)
// lexicographically, giving time-ordered delivery with class priority and
// FIFO tie-breaking at equal (time, class). `seq` is unique, so `slot`
// never takes part in the order.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    time: SimTime,
    class: EventClass,
    seq: u64,
    slot: u32,
}

/// One slab slot: the pending payload (`None` once cancelled, until the
/// slot's heap key pops) and the generation live handles must carry.
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A priority queue of timestamped events with O(1) cancellation and
/// deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use omn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let h = q.schedule(SimTime::from_secs(2.0), "late");
/// q.schedule(SimTime::from_secs(1.0), "early");
/// q.cancel(h);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<Slot<E>>,
    /// Released slots, reused last-in first-out.
    free: Vec<u32>,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time` with [`EventClass::DEFAULT`] and
    /// returns a cancellation handle.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        self.schedule_with_class(time, EventClass::DEFAULT, payload)
    }

    /// Schedules `payload` at `time` in the given delivery class.
    ///
    /// At equal timestamps, events fire by ascending class, then FIFO.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events are pending at once.
    pub fn schedule_with_class(
        &mut self,
        time: SimTime,
        class: EventClass,
        payload: E,
    ) -> EventHandle {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("EventQueue: slab full");
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapKey {
            time,
            class,
            seq,
            slot,
        }));
        self.live += 1;
        EventHandle::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancels a previously scheduled event, returning its payload if it was
    /// still pending. Cancelling an already-fired or already-cancelled event
    /// returns `None`, even after its slot was reused.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let slot = self.slots.get_mut(handle.slot())?;
        if slot.generation != handle.generation() {
            return None;
        }
        let payload = slot.payload.take()?;
        self.live -= 1;
        Some(payload)
    }

    /// True if `handle` refers to an event that has not yet fired or been
    /// cancelled.
    #[must_use]
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.slots
            .get(handle.slot())
            .is_some_and(|s| s.generation == handle.generation() && s.payload.is_some())
    }

    /// The timestamp of the next live event, if any.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_tombstones();
        self.heap.peek().map(|Reverse(k)| k.time)
    }

    /// Removes and returns the next live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let Reverse(key) = self.heap.pop()?;
            if let Some(payload) = self.release(key.slot) {
                self.live -= 1;
                return Some((key.time, payload));
            }
        }
    }

    /// Number of live (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if there are no live events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops all pending events. Their handles stay stale.
    pub fn clear(&mut self) {
        while let Some(Reverse(key)) = self.heap.pop() {
            self.release(key.slot);
        }
        self.live = 0;
    }

    /// Frees `slot` after its heap key popped: takes whatever payload is
    /// left (none for a tombstone) and advances the generation so every
    /// handle to the slot's old occupant goes stale.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        s.payload.take()
    }

    fn skip_tombstones(&mut self) {
        while let Some(Reverse(key)) = self.heap.peek() {
            if self.slots[key.slot as usize].payload.is_some() {
                break;
            }
            let slot = key.slot;
            self.heap.pop();
            self.release(slot);
        }
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.schedule(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> EventQueue<E> {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5.0), i)));
        }
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1.0), "a");
        let h2 = q.schedule(t(2.0), "b");
        assert!(q.is_pending(h1));
        assert_eq!(q.cancel(h1), Some("a"));
        assert!(!q.is_pending(h1));
        assert_eq!(q.cancel(h1), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.cancel(h2), None);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn from_iterator() {
        let q: EventQueue<u32> = vec![(t(2.0), 2), (t(1.0), 1)].into_iter().collect();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn classes_order_events_at_equal_times() {
        let mut q = EventQueue::new();
        // Scheduled out of class order at the same instant.
        q.schedule_with_class(t(1.0), EventClass(60), "contact");
        q.schedule_with_class(t(1.0), EventClass(10), "birth");
        q.schedule_with_class(t(1.0), EventClass(20), "query");
        assert_eq!(q.pop(), Some((t(1.0), "birth")));
        assert_eq!(q.pop(), Some((t(1.0), "query")));
        assert_eq!(q.pop(), Some((t(1.0), "contact")));
    }

    #[test]
    fn time_dominates_class() {
        let mut q = EventQueue::new();
        q.schedule_with_class(t(2.0), EventClass(0), "later");
        q.schedule_with_class(t(1.0), EventClass(255), "earlier");
        assert_eq!(q.pop(), Some((t(1.0), "earlier")));
        assert_eq!(q.pop(), Some((t(2.0), "later")));
    }

    #[test]
    fn equal_time_and_class_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_with_class(t(3.0), EventClass(7), i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((t(3.0), i)));
        }
    }

    #[test]
    fn default_class_is_midpoint() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "default");
        q.schedule_with_class(t(1.0), EventClass(129), "after");
        q.schedule_with_class(t(1.0), EventClass(127), "before");
        assert_eq!(EventClass::default(), EventClass::DEFAULT);
        assert_eq!(q.pop(), Some((t(1.0), "before")));
        assert_eq!(q.pop(), Some((t(1.0), "default")));
        assert_eq!(q.pop(), Some((t(1.0), "after")));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        q.schedule(t(0.5), "b");
        q.schedule(t(0.5), "c");
        assert_eq!(q.pop(), Some((t(0.5), "b")));
        assert_eq!(q.pop(), Some((t(0.5), "c")));
    }

    #[test]
    fn stale_handle_never_touches_the_slot_reuser() {
        let mut q = EventQueue::new();
        let fired = q.schedule(t(1.0), "a");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        // The slot is free again and the next event takes it.
        let reuser = q.schedule(t(2.0), "b");
        assert_eq!(reuser.slot(), fired.slot());
        assert!(!q.is_pending(fired));
        assert_eq!(q.cancel(fired), None);
        assert!(q.is_pending(reuser));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
    }

    #[test]
    fn cancelled_slot_is_freed_when_its_tombstone_pops() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), "a");
        assert_eq!(q.cancel(h), Some("a"));
        // The tombstone still holds the slot, so a new event gets another.
        let other = q.schedule(t(3.0), "c");
        assert_ne!(other.slot(), h.slot());
        assert_eq!(q.peek_time(), Some(t(3.0)));
        let reuser = q.schedule(t(2.0), "b");
        assert_eq!(reuser.slot(), h.slot());
        assert_eq!(q.cancel(h), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
    }

    #[test]
    fn clear_leaves_old_handles_stale() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), 1);
        q.clear();
        let reuser = q.schedule(t(1.0), 2);
        assert!(!q.is_pending(h));
        assert_eq!(q.cancel(h), None);
        assert!(q.is_pending(reuser));
        assert_eq!(q.len(), 1);
    }
}
