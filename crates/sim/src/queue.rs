//! The pending-event set.
//!
//! The queue is keyed by `(time, sequence)`. The sequence number makes the
//! ordering of simultaneous events stable (FIFO in scheduling order), which
//! is what makes whole-simulation runs bit-for-bit reproducible.
//!
//! # Implementation
//!
//! [`EventQueue`] is a hierarchical timer wheel, the classic kernel-callout
//! structure (Varghese & Lauck). Three tiers:
//!
//! - `near`: a small binary heap holding every pending event whose wheel
//!   slot is at or before the `cursor`. The head of `near` is always the
//!   globally earliest event, so `pop` is a plain heap pop.
//! - `wheel`: `SLOTS` unsorted buckets covering the next
//!   `SLOTS << GRAN_BITS` nanoseconds (~268 ms at the default 65.5 µs
//!   granularity). Pushing into the window is O(1): append to the bucket
//!   and set a bit in an occupancy bitmap. Bucket storage is *shared*
//!   across slots: a drained bucket's `Vec` moves to a spare-storage
//!   pool and the next push into any empty slot grabs it back. If each
//!   of the 4096 slots instead owned its storage for good, capacity
//!   learning would be per-slot and the queue would keep paying
//!   first-collision reallocations for hundreds of simulated seconds as
//!   events land in slots that have never held two at once; pooled
//!   storage converges to (peak occupied slots) × (peak bucket depth)
//!   within seconds and then never allocates again.
//! - `far`: an overflow heap for events beyond the wheel horizon (RPC
//!   retransmit timers, reassembly expiries, think-time sleeps).
//!
//! When `near` drains, the refill step advances the cursor straight to the
//! next occupied slot — found with a word-at-a-time bitmap scan — and dumps
//! that bucket (plus any `far` events that have drifted into the same slot)
//! into `near`. Because a bucket rarely holds more than a handful of
//! events, the heap in `near` stays tiny and the per-event cost is close to
//! constant, where a single `BinaryHeap` pays an O(log n) sift against the
//! whole pending set on every push and pop.
//!
//! The ordering contract is identical to the heap it replaced (kept below
//! as [`baseline::HeapQueue`] and enforced by a property test): events pop
//! in `(time, seq)` order and pushes in the past clamp to `now`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the wheel granularity in nanoseconds: 2^16 ns = 65.536 µs.
const GRAN_BITS: u32 = 16;
/// Number of wheel slots; the window spans SLOTS << GRAN_BITS ns (~268 ms).
const SLOTS: usize = 4096;
/// Words in the occupancy bitmap.
const WORDS: usize = SLOTS / 64;
// The summary bitmap (`occ2`) is a single u64 with one bit per word, so
// the two-level scan in `next_occupied_slot` requires exactly 64 words.
const _: () = assert!(WORDS == 64);

#[inline]
fn slot_of(t: SimTime) -> u64 {
    t.as_nanos() >> GRAN_BITS
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One recorded queue operation, for offline replay benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// A push at the given (pre-clamp) schedule time.
    Push(SimTime),
    /// A pop.
    Pop,
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use renofs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "b");
/// q.push(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    len: usize,
    pops: u64,
    peak: usize,
    /// Absolute slot index; every slot at or before it has been drained
    /// into `near`, and every occupied wheel slot lies strictly after it.
    cursor: u64,
    near: BinaryHeap<Entry<E>>,
    wheel: Box<[Vec<Entry<E>>]>,
    /// Storage recycled from drained buckets, handed to the next push
    /// that finds its slot empty-handed.
    spares: Vec<Vec<Entry<E>>>,
    occ: [u64; WORDS],
    /// Second bitmap level: bit `w` is set iff `occ[w] != 0`, so the
    /// scan for the next occupied slot is two `trailing_zeros` calls
    /// instead of a walk over all 64 words.
    occ2: u64,
    wheel_len: usize,
    far: BinaryHeap<Entry<E>>,
    trace: Option<Vec<QueueOp>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` near-term events before
    /// the working heaps reallocate.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            len: 0,
            pops: 0,
            peak: 0,
            cursor: 0,
            near: BinaryHeap::with_capacity(cap),
            wheel: (0..SLOTS).map(|_| Vec::new()).collect(),
            spares: Vec::new(),
            occ: [0; WORDS],
            occ2: 0,
            wheel_len: 0,
            far: BinaryHeap::with_capacity(cap / 4),
            trace: None,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at time `at`.
    ///
    /// Events scheduled in the past are clamped to the current time, so a
    /// zero-delay "immediate" event is always safe to post.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(at, seq, event);
    }

    fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        if let Some(t) = self.trace.as_mut() {
            t.push(QueueOp::Push(at));
        }
        let time = at.max(self.now);
        let entry = Entry { time, seq, event };
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        let slot = slot_of(time);
        if slot <= self.cursor {
            self.near.push(entry);
        } else if slot - self.cursor < SLOTS as u64 {
            let idx = slot as usize & (SLOTS - 1);
            let bucket = &mut self.wheel[idx];
            if bucket.capacity() == 0 {
                if let Some(spare) = self.spares.pop() {
                    *bucket = spare;
                }
            }
            bucket.push(entry);
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.occ2 |= 1 << (idx >> 6);
            self.wheel_len += 1;
        } else {
            self.far.push(entry);
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near.is_empty() {
            self.refill();
        }
        let entry = self.near.pop()?;
        debug_assert!(entry.time >= self.now, "time ran backwards");
        self.now = entry.time;
        self.len -= 1;
        self.pops += 1;
        if let Some(t) = self.trace.as_mut() {
            t.push(QueueOp::Pop);
        }
        crate::profile::count_event();
        Some((entry.time, entry.event))
    }

    /// The time of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because finding the head may advance the wheel
    /// cursor; the observable state (pending set, `now`) is unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events popped over the queue's lifetime.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// High-water mark of pending events.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Starts recording `(push, pop)` operations for later replay.
    pub fn start_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the operation stream.
    pub fn take_trace(&mut self) -> Vec<QueueOp> {
        self.trace.take().unwrap_or_default()
    }

    /// Moves the earliest occupied slot — from the wheel or the overflow
    /// heap, whichever comes first — into `near`.
    fn refill(&mut self) {
        let wheel_next = if self.wheel_len == 0 {
            None
        } else {
            self.next_occupied_slot()
        };
        let far_next = self.far.peek().map(|e| slot_of(e.time));
        let target = match (wheel_next, far_next) {
            (None, None) => return,
            (Some(w), None) => w,
            (None, Some(f)) => f,
            (Some(w), Some(f)) => w.min(f),
        };
        self.cursor = target;
        if wheel_next == Some(target) {
            let idx = target as usize & (SLOTS - 1);
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            if self.occ[idx >> 6] == 0 {
                self.occ2 &= !(1 << (idx >> 6));
            }
            let mut bucket = std::mem::take(&mut self.wheel[idx]);
            self.wheel_len -= bucket.len();
            // Fast path for the overwhelmingly common one-event bucket:
            // a plain heap push, skipping the drain iterator machinery.
            if bucket.len() == 1 {
                self.near.push(bucket.pop().expect("len checked"));
            } else {
                self.near.extend(bucket.drain(..));
            }
            self.spares.push(bucket);
        }
        // Overflow events do not migrate as the cursor advances, so ones
        // that have drifted inside the window can share the target slot.
        while self.far.peek().is_some_and(|e| slot_of(e.time) <= target) {
            let e = self.far.pop().expect("peeked entry present");
            self.near.push(e);
        }
    }

    /// Absolute index of the first occupied wheel slot after the cursor.
    ///
    /// Two-level scan: the first candidate word is checked directly with
    /// the bits below `start` masked off; after that the summary bitmap
    /// `occ2` is rotated so its `trailing_zeros` names the next nonempty
    /// word in wrap-around scan order. The first set bit in scan order
    /// is the nearest slot because the window `(cursor, cursor + SLOTS)`
    /// never aliases two absolute slots to the same index.
    fn next_occupied_slot(&self) -> Option<u64> {
        let start = (self.cursor as usize + 1) & (SLOTS - 1);
        let wi = start >> 6;
        // Bits at or after `start` in its own word.
        let word = self.occ[wi] & (!0u64 << (start & 63));
        let idx = if word != 0 {
            (wi << 6) | word.trailing_zeros() as usize
        } else {
            // Rotate so bit 0 is word wi+1; scan order then covers every
            // word once, ending with wi itself (distance 63), whose
            // remaining bits are necessarily below `start`.
            let rot = self.occ2.rotate_right(wi as u32 + 1);
            if rot == 0 {
                return None;
            }
            let w2 = (wi + 1 + rot.trailing_zeros() as usize) & (WORDS - 1);
            let mut word = self.occ[w2];
            if w2 == wi {
                word &= !(!0u64 << (start & 63));
                if word == 0 {
                    return None;
                }
            }
            (w2 << 6) | word.trailing_zeros() as usize
        };
        let cidx = self.cursor as usize & (SLOTS - 1);
        let mut dist = (idx.wrapping_sub(cidx)) & (SLOTS - 1);
        if dist == 0 {
            dist = SLOTS;
        }
        Some(self.cursor + dist as u64)
    }
}

/// The original `BinaryHeap` event queue, kept as the reference model for
/// the timer wheel's equivalence property test and as the baseline side of
/// `repro bench`.
pub mod baseline {
    use super::{Entry, QueueOp, SimTime};
    use std::collections::BinaryHeap;

    /// A time-ordered queue of simulation events backed by one binary heap.
    ///
    /// Carries the same counters and trace hook as the timer wheel, so the
    /// [`AdaptiveQueue`](super::AdaptiveQueue) can delegate all bookkeeping
    /// to whichever backend is live — the wrapper adds no per-operation
    /// state of its own — and so the bench compares like against like.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
        pops: u64,
        peak: usize,
        pub(super) trace: Option<Vec<QueueOp>>,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty queue at t = 0.
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                pops: 0,
                peak: 0,
                trace: None,
            }
        }

        /// The time of the most recently popped event.
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Schedules `event` at time `at`, clamping past times to `now`.
        pub fn push(&mut self, at: SimTime, event: E) {
            let seq = self.seq;
            self.seq += 1;
            if let Some(t) = self.trace.as_mut() {
                t.push(QueueOp::Push(at));
            }
            let time = at.max(self.now);
            self.heap.push(Entry { time, seq, event });
            if self.heap.len() > self.peak {
                self.peak = self.heap.len();
            }
        }

        /// Removes and returns the earliest event, advancing the clock.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            debug_assert!(entry.time >= self.now, "time ran backwards");
            self.now = entry.time;
            self.pops += 1;
            crate::profile::count_event();
            if let Some(t) = self.trace.as_mut() {
                t.push(QueueOp::Pop);
            }
            Some((entry.time, entry.event))
        }

        /// Pops without counting, tracing, or profiling: promotion uses
        /// this to drain entries into the wheel so the migration is
        /// invisible to every observer.
        pub(super) fn drain_pop(&mut self) -> Option<(SimTime, u64, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.time;
            Some((entry.time, entry.seq, entry.event))
        }

        /// Total events popped over the queue's lifetime.
        pub fn pops(&self) -> u64 {
            self.pops
        }

        /// High-water mark of pending events.
        pub fn peak_depth(&self) -> usize {
            self.peak
        }

        /// The time of the earliest pending event, if any.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        /// The internal sequence counter; promotion transfers it so
        /// post-promotion pushes keep sorting after migrated entries.
        pub(super) fn next_seq(&self) -> u64 {
            self.seq
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Replays a recorded operation stream, returning how many events
        /// were popped. Shared by the bench so both queue implementations
        /// execute the identical schedule.
        pub fn replay(ops: &[QueueOp]) -> u64 {
            let mut q: HeapQueue<()> = HeapQueue::new();
            let mut popped = 0;
            for op in ops {
                match *op {
                    QueueOp::Push(at) => q.push(at, ()),
                    QueueOp::Pop => {
                        if q.pop().is_some() {
                            popped += 1;
                        }
                    }
                }
            }
            popped
        }
    }
}

impl EventQueue<()> {
    /// Replays a recorded operation stream on the timer wheel, returning
    /// how many events were popped.
    pub fn replay(ops: &[QueueOp]) -> u64 {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut popped = 0;
        for op in ops {
            match *op {
                QueueOp::Push(at) => q.push(at, ()),
                QueueOp::Pop => {
                    if q.pop().is_some() {
                        popped += 1;
                    }
                }
            }
        }
        popped
    }
}

/// Pending-event depth at which an [`AdaptiveQueue`] abandons its binary
/// heap and promotes to the timer wheel.
///
/// Shallow single-client schedules hover around a depth of ~10, where the
/// wheel's cursor bookkeeping loses to a tiny heap (the 0.7× regression
/// measured in PR 3); many-client worlds push hundreds of pending events,
/// where the wheel wins 2×+. 64 sits comfortably between the two regimes.
pub const PROMOTE_DEPTH: usize = 64;

// The wheel's inline occupancy bitmap makes its struct large; boxing it
// keeps the whole un-promoted queue — discriminant and heap head — within
// a cache line or two, which the shallow 5 % ratio gate needs. The cost
// is one pointer dereference per op on deep schedules, noise against the
// wheel's own per-op work (and invisible in the deep/crowd bench arms).
enum Backend<E> {
    Heap(baseline::HeapQueue<E>),
    Wheel(Box<EventQueue<E>>),
}

/// An event queue that starts life as a plain binary heap and promotes
/// itself to the timer wheel the first time the pending-event depth
/// crosses [`PROMOTE_DEPTH`].
///
/// Both backends honour the identical `(time, seq)` FIFO ordering
/// contract, and promotion migrates entries in pop order, so the sequence
/// of popped events is bit-for-bit the same as either backend run alone —
/// only the constant factors change. Constructing with a capacity hint
/// above the threshold (a world that already knows it will be deep)
/// starts directly on the wheel.
pub struct AdaptiveQueue<E> {
    backend: Backend<E>,
}

impl<E> Default for AdaptiveQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> AdaptiveQueue<E> {
    /// Creates an empty queue at t = 0, starting on the heap backend.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue; a capacity hint above [`PROMOTE_DEPTH`]
    /// starts directly on the timer wheel.
    pub fn with_capacity(cap: usize) -> Self {
        let backend = if cap > PROMOTE_DEPTH {
            Backend::Wheel(Box::new(EventQueue::with_capacity(cap)))
        } else {
            Backend::Heap(baseline::HeapQueue::new())
        };
        AdaptiveQueue { backend }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        match &self.backend {
            Backend::Heap(q) => q.now(),
            Backend::Wheel(q) => q.now(),
        }
    }

    /// Whether the queue has promoted to the timer wheel.
    pub fn is_promoted(&self) -> bool {
        matches!(self.backend, Backend::Wheel(_))
    }

    /// Schedules `event` at time `at`, clamping past times to `now`.
    ///
    /// All counting, tracing, and profiling lives in the backends (both
    /// implement the identical bookkeeping), so on the shallow heap arm
    /// this wrapper adds exactly one predictable branch and the promotion
    /// check over a raw [`baseline::HeapQueue`] — the `--check` gate holds
    /// it within 5 % of the raw heap on the shallow replay.
    pub fn push(&mut self, at: SimTime, event: E) {
        match &mut self.backend {
            Backend::Heap(q) => {
                q.push(at, event);
                if q.len() >= PROMOTE_DEPTH {
                    self.promote();
                }
            }
            Backend::Wheel(q) => q.push(at, event),
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.backend {
            Backend::Heap(q) => q.pop(),
            Backend::Wheel(q) => q.pop(),
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(q) => q.peek_time(),
            Backend::Wheel(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(q) => q.len(),
            Backend::Wheel(q) => q.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped over the queue's lifetime.
    pub fn pops(&self) -> u64 {
        match &self.backend {
            Backend::Heap(q) => q.pops(),
            Backend::Wheel(q) => q.pops(),
        }
    }

    /// High-water mark of pending events.
    pub fn peak_depth(&self) -> usize {
        match &self.backend {
            Backend::Heap(q) => q.peak_depth(),
            Backend::Wheel(q) => q.peak_depth(),
        }
    }

    /// Starts recording `(push, pop)` operations for later replay.
    pub fn start_trace(&mut self) {
        match &mut self.backend {
            Backend::Heap(q) => q.trace = Some(Vec::new()),
            Backend::Wheel(q) => q.trace = Some(Vec::new()),
        }
    }

    /// Stops recording and returns the operation stream.
    pub fn take_trace(&mut self) -> Vec<QueueOp> {
        match &mut self.backend {
            Backend::Heap(q) => q.trace.take().unwrap_or_default(),
            Backend::Wheel(q) => q.trace.take().unwrap_or_default(),
        }
    }

    /// Drains the heap in pop order into a fresh wheel positioned at the
    /// heap's clock. Entries migrate with their sequence numbers intact,
    /// so FIFO ties survive the migration; the wheel inherits the heap's counter,
    /// pop/peak statistics, and live trace, so the backend switch is
    /// invisible to every observer (the migration itself is neither
    /// counted nor traced).
    // Cold and never inlined: `promote` fires at most once per queue, but
    // if its body is inlined into `push` the hot path spills registers for
    // a migration that essentially never runs.
    #[cold]
    #[inline(never)]
    fn promote(&mut self) {
        let mut heap = match &mut self.backend {
            Backend::Heap(q) => std::mem::take(q),
            Backend::Wheel(_) => return,
        };
        let heap_peak = heap.peak_depth();
        let heap_pops = heap.pops();
        let trace = heap.trace.take();
        let mut wheel = EventQueue::with_capacity(heap.len());
        // Same module, so the wheel's clock and cursor are reachable:
        // without this, a post-promotion push in the past would clamp to
        // t = 0 instead of the migrated clock.
        wheel.now = heap.now();
        wheel.cursor = slot_of(heap.now());
        wheel.seq = heap.next_seq();
        while let Some((t, k, e)) = heap.drain_pop() {
            wheel.insert(t, k, e);
        }
        wheel.peak = heap_peak.max(wheel.peak);
        wheel.pops = heap_pops;
        wheel.trace = trace;
        self.backend = Backend::Wheel(Box::new(wheel));
    }
}

impl AdaptiveQueue<()> {
    /// Replays a recorded operation stream on the adaptive queue,
    /// returning how many events were popped.
    pub fn replay(ops: &[QueueOp]) -> u64 {
        let mut q: AdaptiveQueue<()> = AdaptiveQueue::new();
        let mut popped = 0;
        for op in ops {
            match *op {
                QueueOp::Push(at) => q.push(at, ()),
                QueueOp::Pop => {
                    if q.pop().is_some() {
                        popped += 1;
                    }
                }
            }
        }
        popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 5);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.now(), SimTime::from_millis(10));
        q.push(SimTime::from_millis(2), "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, SimTime::from_millis(10), "clamped to now");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            if q.len() < 10 && t < SimTime::from_millis(5) {
                q.push(t + SimDuration::from_micros(100), ());
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Events well beyond the wheel horizon (~268 ms) land in the
        // overflow heap and must still interleave correctly.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30), "far");
        q.push(SimTime::from_millis(1), "near");
        q.push(SimTime::from_secs(2), "mid");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_event_beats_wheel_event() {
        // An event parked in `far` can become earlier than everything on
        // the wheel once the cursor advances; the refill must notice.
        let mut q = EventQueue::new();
        // Goes to `far`: > 268 ms past cursor 0.
        q.push(SimTime::from_millis(300), "overflow");
        // Pop something late to advance the cursor near the overflow.
        q.push(SimTime::from_millis(299), "advance");
        assert_eq!(q.pop().unwrap().1, "advance");
        // Now schedule a wheel event *after* the overflow event.
        q.push(SimTime::from_millis(310), "wheel");
        assert_eq!(q.pop().unwrap().1, "overflow");
        assert_eq!(q.pop().unwrap().1, "wheel");
    }

    #[test]
    fn wheel_wraps_across_many_horizons() {
        // March time forward across several full wheel revolutions.
        let mut q = EventQueue::new();
        let step = SimDuration::from_millis(40);
        let mut expect = SimTime::ZERO;
        q.push(expect + step, 0u32);
        for i in 0..200 {
            let (t, e) = q.pop().unwrap();
            expect += step;
            assert_eq!(t, expect);
            assert_eq!(e, i);
            if i + 1 < 200 {
                q.push(t + step, i + 1);
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn ties_across_tiers_stay_fifo() {
        // Two events at the same instant, one pushed while its slot was
        // ahead of the cursor (wheel) and one after the cursor caught up
        // (near), must still pop in push order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(100);
        q.push(t, "first");
        q.push(SimTime::from_millis(50), "warp");
        assert_eq!(q.pop().unwrap().1, "warp");
        q.push(t, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn counters_and_trace() {
        let mut q = EventQueue::new();
        q.start_trace();
        q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        q.pop();
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.pops(), 1);
        let ops = q.take_trace();
        assert_eq!(
            ops,
            vec![
                QueueOp::Push(SimTime::from_millis(1)),
                QueueOp::Push(SimTime::from_millis(2)),
                QueueOp::Pop,
            ]
        );
        // Replay reproduces the pop count on both implementations.
        assert_eq!(EventQueue::replay(&ops), 1);
        assert_eq!(baseline::HeapQueue::<()>::replay(&ops), 1);
    }

    #[test]
    fn adaptive_promotes_at_threshold_and_preserves_order() {
        let mut q = AdaptiveQueue::new();
        assert!(!q.is_promoted());
        // Stay shallow: no promotion.
        for i in 0..10 {
            q.push(SimTime::from_millis(i), i);
        }
        assert!(!q.is_promoted());
        // Cross the threshold.
        for i in 10..PROMOTE_DEPTH as u64 + 20 {
            q.push(SimTime::from_millis(i), i);
        }
        assert!(q.is_promoted());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expect: Vec<u64> = (0..PROMOTE_DEPTH as u64 + 20).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn adaptive_clock_survives_promotion() {
        // After promotion, a push in the past must clamp to the migrated
        // clock, not to t = 0.
        let mut q = AdaptiveQueue::new();
        q.push(SimTime::from_secs(10), u64::MAX - 1);
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(10));
        for i in 0..PROMOTE_DEPTH as u64 + 1 {
            q.push(SimTime::from_secs(20) + SimDuration::from_millis(i), i);
        }
        assert!(q.is_promoted());
        assert_eq!(q.now(), SimTime::from_secs(10));
        q.push(SimTime::from_secs(1), u64::MAX);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, u64::MAX, "clamped event is earliest");
        assert_eq!(t, SimTime::from_secs(10), "clamped to migrated now");
    }

    #[test]
    fn adaptive_ties_stay_fifo_across_promotion() {
        let mut q = AdaptiveQueue::new();
        let t = SimTime::from_millis(500);
        for i in 0..PROMOTE_DEPTH as u64 + 10 {
            q.push(t, i);
        }
        assert!(q.is_promoted());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..PROMOTE_DEPTH as u64 + 10).collect::<Vec<_>>());
    }

    #[test]
    fn adaptive_counters_trace_and_replay() {
        let mut q = AdaptiveQueue::new();
        q.start_trace();
        q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        q.pop();
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.pops(), 1);
        assert_eq!(q.len(), 1);
        let ops = q.take_trace();
        assert_eq!(ops.len(), 3);
        assert_eq!(AdaptiveQueue::replay(&ops), 1);
        assert_eq!(EventQueue::replay(&ops), 1);
        assert_eq!(baseline::HeapQueue::<()>::replay(&ops), 1);
    }

    #[test]
    fn adaptive_capacity_hint_starts_on_wheel() {
        let q: AdaptiveQueue<()> = AdaptiveQueue::with_capacity(PROMOTE_DEPTH + 1);
        assert!(q.is_promoted());
        let q: AdaptiveQueue<()> = AdaptiveQueue::with_capacity(4);
        assert!(!q.is_promoted());
    }

    #[test]
    fn adaptive_matches_heap_on_a_burst() {
        let mut adaptive = AdaptiveQueue::new();
        let mut heap = baseline::HeapQueue::new();
        let mut rng = crate::rng::Rng::new(7);
        for i in 0..5000u64 {
            let at = SimTime::from_nanos(rng.gen_range(0, 2_000_000_000));
            adaptive.push(at, i);
            heap.push(at, i);
            if rng.gen_range(0, 3) == 0 {
                assert_eq!(adaptive.pop(), heap.pop());
            }
        }
        assert!(adaptive.is_promoted());
        loop {
            let (a, b) = (adaptive.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn baseline_heap_matches_on_a_burst() {
        let mut wheel = EventQueue::new();
        let mut heap = baseline::HeapQueue::new();
        let mut rng = crate::rng::Rng::new(42);
        for i in 0..5000u64 {
            let at = SimTime::from_nanos(rng.gen_range(0, 2_000_000_000));
            wheel.push(at, i);
            heap.push(at, i);
            if rng.gen_range(0, 3) == 0 {
                assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
