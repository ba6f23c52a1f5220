//! # acqp-stream — conditional plans over drifting data streams
//!
//! §7 of the paper ("Queries over data streams"): *"in many settings,
//! the data distribution may change slowly over time. In such cases, we
//! can modify our algorithms to slowly change the plan to adapt to the
//! changing distribution. Specifically, our methods for computing
//! probabilities from a data set can be modified to compute
//! probabilities incrementally over a sliding window of data. As the
//! probabilities change, we can modify our greedy algorithm to
//! re-evaluate the plan."*
//!
//! This crate holds the sliding window that loop estimates from:
//! [`SlidingWindow`], a fixed-capacity ring buffer of the most recent
//! tuples, exposable as a [`Dataset`] for the counting estimator, with
//! a checkpointable [`WindowState`]. The loop itself — drift detection
//! and budgeted re-planning — runs at the basestation: see
//! `acqp_core::DriftMonitor`, `Basestation::replan` and the `adaptive`
//! option of `acqp_sensornet::run_simulation`.

#![warn(missing_docs)]
// Determinism tests assert bitwise-equal floats on purpose; the
// workspace-level `float_cmp` warning stays on for library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
use acqp_core::prelude::*;

/// A fixed-capacity sliding window of tuples over a schema.
///
/// ```
/// use acqp_core::{Attribute, Schema};
/// use acqp_stream::SlidingWindow;
///
/// let schema = Schema::new(vec![Attribute::new("x", 4, 1.0)]).unwrap();
/// let mut w = SlidingWindow::new(&schema, 2);
/// w.push(vec![0]);
/// w.push(vec![1]);
/// w.push(vec![2]); // evicts the oldest
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.total_pushed(), 3);
/// let snap = w.snapshot(&schema).unwrap();
/// assert!(snap.column(0).contains(&2));
/// assert!(!snap.column(0).contains(&0));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    width: usize,
    capacity: usize,
    /// Ring storage, row-major.
    rows: Vec<Vec<u16>>,
    /// Next slot to overwrite.
    head: usize,
    /// Total tuples ever pushed.
    pushed: u64,
}

impl SlidingWindow {
    /// A window retaining the most recent `capacity` tuples of
    /// `schema`-shaped data.
    pub fn new(schema: &Schema, capacity: usize) -> Self {
        assert!(capacity > 0);
        SlidingWindow { width: schema.len(), capacity, rows: Vec::new(), head: 0, pushed: 0 }
    }

    /// Appends one tuple, evicting the oldest when full.
    pub fn push(&mut self, tuple: Vec<u16>) {
        debug_assert_eq!(tuple.len(), self.width);
        if self.rows.len() < self.capacity {
            self.rows.push(tuple);
        } else {
            self.rows[self.head] = tuple;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Number of tuples currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True until the first push.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True once the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.rows.len() == self.capacity
    }

    /// Total tuples ever pushed (evicted ones included).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Materializes the window as a [`Dataset`] (order irrelevant for
    /// counting statistics).
    pub fn snapshot(&self, schema: &Schema) -> Result<Dataset> {
        Dataset::from_rows(schema, self.rows.clone())
    }

    /// Exports the window's full state — ring contents in storage
    /// order, head slot, lifetime push count — for checkpointing. A
    /// [`SlidingWindow::from_state`] round trip is bit-identical: the
    /// restored window produces the same snapshots *and* evicts in the
    /// same order under future pushes.
    pub fn state(&self) -> WindowState {
        WindowState {
            width: self.width,
            capacity: self.capacity,
            rows: self.rows.clone(),
            head: self.head,
            pushed: self.pushed,
        }
    }

    /// Rebuilds a window from checkpointed state, validating every
    /// invariant a healthy window maintains so a corrupt checkpoint is
    /// rejected here rather than corrupting later estimates.
    pub fn from_state(state: WindowState) -> Result<Self> {
        let WindowState { width, capacity, rows, head, pushed } = state;
        let ok = capacity > 0
            && rows.len() <= capacity
            && (head == 0 || head < capacity)
            && (rows.len() == capacity || head == 0)
            && pushed >= rows.len() as u64
            && rows.iter().all(|r| r.len() == width);
        if !ok {
            return Err(Error::Parse { what: "sliding-window state violates ring invariants" });
        }
        Ok(SlidingWindow { width, capacity, rows, head, pushed })
    }
}

/// A [`SlidingWindow`]'s checkpointable state (see [`SlidingWindow::state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowState {
    /// Tuple width (schema length).
    pub width: usize,
    /// Ring capacity.
    pub capacity: usize,
    /// Ring storage in *storage* order (not age order).
    pub rows: Vec<Vec<u16>>,
    /// Next slot to overwrite once the ring is full.
    pub head: usize,
    /// Total tuples ever pushed (evicted ones included).
    pub pushed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("a", 2, 100.0),
            Attribute::new("b", 2, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn window_ring_semantics() {
        let s = schema();
        let mut w = SlidingWindow::new(&s, 3);
        assert!(w.is_empty());
        for i in 0..5u16 {
            w.push(vec![i % 2, i % 2, i % 2]);
        }
        assert!(w.is_full());
        assert_eq!(w.len(), 3);
        assert_eq!(w.total_pushed(), 5);
        let snap = w.snapshot(&s).unwrap();
        assert_eq!(snap.len(), 3);
        // Rows 2, 3, 4 survive (in ring order).
        let vals: Vec<u16> = (0..3).map(|r| snap.value(r, 0)).collect();
        assert_eq!(vals.iter().filter(|&&v| v == 0).count(), 2); // rows 2 and 4
    }

    #[test]
    fn window_state_round_trip_preserves_ring_and_future_evictions() {
        let s = schema();
        let mut w = SlidingWindow::new(&s, 3);
        for i in 0..5u16 {
            w.push(vec![i % 2, i % 2, i % 2]);
        }
        let state = w.state();
        let mut restored = SlidingWindow::from_state(state.clone()).unwrap();
        assert_eq!(restored.state(), state);
        let (a, b) = (w.snapshot(&s).unwrap(), restored.snapshot(&s).unwrap());
        assert_eq!(a.len(), b.len());
        for r in 0..a.len() {
            for c in 0..a.width() {
                assert_eq!(a.value(r, c), b.value(r, c));
            }
        }
        // Future pushes evict in the same order as the original.
        w.push(vec![1, 0, 1]);
        restored.push(vec![1, 0, 1]);
        assert_eq!(w.state(), restored.state());
    }

    #[test]
    fn window_state_rejects_corrupt_invariants() {
        let s = schema();
        let mut w = SlidingWindow::new(&s, 2);
        w.push(vec![0, 0, 0]);
        let good = w.state();
        assert!(SlidingWindow::from_state(good.clone()).is_ok());
        for bad in [
            WindowState { capacity: 0, ..good.clone() },
            WindowState { head: 5, ..good.clone() },
            // Partially filled ring must keep head at slot 0.
            WindowState { head: 1, ..good.clone() },
            WindowState { pushed: 0, ..good.clone() },
            WindowState { rows: vec![vec![0]], ..good.clone() },
            WindowState { rows: vec![vec![0, 0, 0]; 9], ..good.clone() },
        ] {
            assert!(SlidingWindow::from_state(bad).is_err());
        }
    }
}
