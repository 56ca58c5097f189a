//! The discrete-event queue driving the online loop.
//!
//! Events are totally ordered by `(tick, kind priority, sequence)`:
//! completions free cores before arrivals claim them. The OS and DVFS
//! boundaries are not events; the serving core keeps that timing grid.
//! The sequence number makes insertion order the deterministic
//! tie-break within a kind, so the loop's behaviour is a pure function
//! of the pushed events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A running job finished its instruction budget (job id).
    Completion(usize),
    /// A job enters the system (index into the arrival schedule).
    Arrival(usize),
}

impl EventKind {
    /// Processing priority within a tick (lower fires first).
    fn priority(&self) -> u8 {
        match self {
            EventKind::Completion(_) => 0,
            EventKind::Arrival(_) => 1,
        }
    }
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The tick the event fires at.
    pub tick: usize,
    /// Insertion sequence (assigned by the queue).
    seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event wins.
        (other.tick, other.kind.priority(), other.seq).cmp(&(
            self.tick,
            self.kind.priority(),
            self.seq,
        ))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue over discrete ticks.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `tick`.
    pub fn push(&mut self, tick: usize, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { tick, seq, kind });
    }

    /// Pops the next event if it fires at or before `tick`.
    pub fn pop_due(&mut self, tick: usize) -> Option<Event> {
        if self.heap.peek().is_some_and(|e| e.tick <= tick) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// The pending events as raw `(tick, seq, kind)` triples plus the
    /// next sequence number, for checkpointing. The triples come out in
    /// an unspecified (heap) order; [`EventQueue::import`] rebuilds the
    /// same total order from the explicit sequence numbers.
    pub fn export(&self) -> (Vec<(usize, u64, EventKind)>, u64) {
        let events = self.heap.iter().map(|e| (e.tick, e.seq, e.kind)).collect();
        (events, self.next_seq)
    }

    /// Rebuilds a queue from [`EventQueue::export`] output. The restored
    /// queue pops the same events in the same order and assigns the same
    /// sequence numbers to future pushes.
    pub fn import(events: Vec<(usize, u64, EventKind)>, next_seq: u64) -> Self {
        let heap = events
            .into_iter()
            .map(|(tick, seq, kind)| Event { tick, seq, kind })
            .collect();
        Self { heap, next_seq }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_tick_order() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Arrival(1));
        q.push(1, EventKind::Completion(4));
        q.push(3, EventKind::Arrival(0));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_due(10).unwrap().tick, 1);
        assert_eq!(q.pop_due(10).unwrap().tick, 3);
        assert_eq!(q.pop_due(10).unwrap().tick, 5);
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_orders_by_kind_priority() {
        let mut q = EventQueue::new();
        q.push(2, EventKind::Arrival(7));
        q.push(2, EventKind::Arrival(5));
        q.push(2, EventKind::Completion(3));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop_due(2))
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Completion(3),
                EventKind::Arrival(7),
                EventKind::Arrival(5),
            ]
        );
    }

    #[test]
    fn same_kind_ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(4, EventKind::Arrival(2));
        q.push(4, EventKind::Arrival(0));
        q.push(4, EventKind::Arrival(1));
        let ids: Vec<usize> = std::iter::from_fn(|| q.pop_due(4))
            .map(|e| match e.kind {
                EventKind::Arrival(j) => j,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![2, 0, 1], "insertion order is the tie-break");
    }

    #[test]
    fn export_import_preserves_order_and_sequencing() {
        let mut q = EventQueue::new();
        q.push(4, EventKind::Arrival(2));
        q.push(4, EventKind::Arrival(0));
        q.push(1, EventKind::Completion(3));
        let (events, next_seq) = q.export();
        let mut restored = EventQueue::import(events, next_seq);
        // Future pushes tie-break identically in both queues.
        q.push(4, EventKind::Arrival(9));
        restored.push(4, EventKind::Arrival(9));
        let drain = |q: &mut EventQueue| -> Vec<(usize, EventKind)> {
            std::iter::from_fn(|| q.pop_due(usize::MAX))
                .map(|e| (e.tick, e.kind))
                .collect()
        };
        assert_eq!(drain(&mut q), drain(&mut restored));
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(8, EventKind::Arrival(0));
        assert!(q.pop_due(7).is_none());
        assert!(q.pop_due(8).is_some());
    }
}
