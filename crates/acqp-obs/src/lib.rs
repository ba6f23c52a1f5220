//! # acqp-obs — zero-dependency tracing and metrics
//!
//! Plan search, plan execution and the sensornet simulator all need the
//! same observability primitives: *why* was a search slow (memo hit
//! rates, prune effectiveness, split evaluations), *where* did an
//! execution spend its acquisition budget, *which* mote drained its
//! battery. This crate provides them without any external dependency
//! (the build has no registry access — the same constraint that produced
//! the `vendor/*` stand-ins):
//!
//! * [`Counter`] — a monotonically increasing `u64` in one shared
//!   [`Cell`]; handles cloned from the registry add to the same total.
//! * [`FloatCounter`] — the same for `f64` accumulation (energy in µJ,
//!   accrued acquisition cost).
//! * [`Hist`] — a fixed-bucket power-of-two histogram (`le_1`, `le_2`,
//!   `le_4`, …), for per-tuple cost and per-span latency distributions.
//! * [`Span`] — an RAII timer over the monotonic clock
//!   ([`std::time::Instant`]); dropping the guard records the elapsed
//!   microseconds and streams an event to the sink.
//! * [`Recorder`] — the handle tying it together. A *disabled*
//!   recorder ([`Recorder::disabled`]) hands out detached instruments:
//!   every record call is a branch or a plain add to a cell and nothing
//!   is ever drained, so instrumented code needs no `if` guards and the
//!   default (no-op) configuration costs well under the 2% overhead
//!   budget (see `DESIGN.md` §8).
//!
//! Instruments and recorders are single-owner (`!Send`): the planners,
//! executors and simulator that record through them run on one thread.
//! Only sinks are `Send + Sync`, so one sink can be shared by `Arc`.
//!
//! Metrics flow to a pluggable [`Sink`]: [`NoopSink`] (default),
//! [`JsonLinesSink`] (one JSON object per line: `{"span": name,
//! "elapsed_us": n}` for span ends, `{"counter": name, "value": v}` for
//! everything else), or [`MemorySink`] (in-memory, for tests).
//!
//! ## Naming
//!
//! Metric names are dot-separated paths, lowest layer first:
//! `planner.memo.hit`, `exec.acquire.temp`, `sensornet.mote3.sensing_uj`.
//! The full taxonomy lives in `DESIGN.md` §8.

#![warn(missing_docs)]
// Determinism tests assert bitwise-equal floats on purpose; the
// workspace-level `float_cmp` warning stays on for library code.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod sink;
pub mod trace;

pub use sink::{JsonLinesSink, MemorySink, NoopSink, Sink, SpanEvent};
pub use trace::{FlightRecorder, TraceEvent, TraceValue, DEFAULT_FLIGHT_CAP};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Histogram bucket count: bucket `i` counts values `<= 2^i`, the last
/// bucket is the overflow (`+inf`) bucket.
const HIST_BUCKETS: usize = 32;

/// A monotonically increasing counter. Clones share one cell, so a
/// handle looked up once records into the registered total.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// A detached counter (not registered with any recorder).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn incr(&self, n: u64) {
        self.cell.set(self.cell.get().wrapping_add(n));
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.cell.get()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// A float accumulator like [`Counter`], for energy/cost sums.
#[derive(Clone, Default)]
pub struct FloatCounter {
    cell: Rc<Cell<f64>>,
}

impl FloatCounter {
    /// A detached float counter.
    pub fn new() -> Self {
        FloatCounter::default()
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: f64) {
        self.cell.set(self.cell.get() + v);
    }

    /// Current total.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

impl std::fmt::Debug for FloatCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FloatCounter({})", self.value())
    }
}

/// Bucket counts, observation count and sum behind one [`Hist`].
#[derive(Default)]
struct HistCells {
    buckets: [Cell<u64>; HIST_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
}

/// A fixed-bucket histogram over `u64` values with power-of-two bucket
/// bounds: bucket `i` counts observations `v` with `v <= 2^i`; the last
/// bucket absorbs everything larger.
#[derive(Clone, Default)]
pub struct Hist {
    cells: Rc<HistCells>,
}

impl Hist {
    /// A detached histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        // Smallest i with v <= 2^i (v = 0 and 1 both land in `le_1`).
        let b = (64 - v.saturating_sub(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        let c = &self.cells;
        c.buckets[b].set(c.buckets[b].get() + 1);
        c.count.set(c.count.get() + 1);
        // `u64::MAX` is a legal observation: an overflowing sum wraps
        // rather than aborting the run.
        c.sum.set(c.sum.get().wrapping_add(v));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cells.count.get()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.cells.sum.get()
    }

    /// Nearest-rank percentile estimate: the power-of-two upper bound
    /// of the bucket holding the `q`-quantile observation (`q` in
    /// `[0, 1]`). Resolution is the bucket width — one octave — which
    /// is plenty for the latency/cost tails bench gates care about.
    /// Returns 0 when nothing was observed.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from_buckets(
            self.cells.buckets.iter().enumerate().map(|(i, n)| (1u64 << i.min(63), n.get())),
            self.count(),
            q,
        )
    }

    /// The median bucket bound.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// The 90th-percentile bucket bound.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// The 99th-percentile bucket bound.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// `(upper_bound, count)` per non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.cells
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.get();
                // Same clamp as `percentile`: the two bucket views must
                // agree on the bound of every bucket, whatever
                // HIST_BUCKETS grows to.
                (n > 0).then(|| (1u64 << i.min(63), n))
            })
            .collect()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hist(count={}, sum={})", self.count(), self.sum())
    }
}

/// Nearest-rank percentile over `(upper_bound, count)` buckets sorted
/// by bound ascending: the bound of the bucket containing the
/// `ceil(q * count)`-th observation. Shared by [`Hist::percentile`]
/// and [`Snapshot::hist_percentile`].
fn percentile_from_buckets(
    buckets: impl IntoIterator<Item = (u64, u64)>,
    count: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    let mut last = 0u64;
    for (le, n) in buckets {
        last = le;
        seen += n;
        if seen >= rank {
            return le;
        }
    }
    last
}

/// Aggregated timing of all spans sharing one path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Completed spans with this path.
    pub count: u64,
    /// Total elapsed microseconds.
    pub total_us: u64,
    /// Longest single span.
    pub max_us: u64,
}

/// Flattened histogram state in a [`Snapshot`]: the non-empty
/// `(upper_bound, count)` buckets, the total observation count, and the
/// sum of all observed values.
pub type HistData = (Vec<(u64, u64)>, u64, u64);

/// Everything a recorder accumulated. Maps are
/// ordered so renderings and JSON emissions are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Float totals and gauges by name.
    pub values: BTreeMap<String, f64>,
    /// Histograms: `(buckets, count, sum)` by name.
    pub hists: BTreeMap<String, HistData>,
    /// Span timings by path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// Counter value, defaulting to 0 when never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Float value (gauge or float counter), defaulting to 0.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Nearest-rank percentile of a snapshotted histogram (bucket
    /// upper bound, like [`Hist::percentile`]); `None` when the
    /// histogram was never recorded.
    pub fn hist_percentile(&self, name: &str, q: f64) -> Option<u64> {
        let (buckets, count, _) = self.hists.get(name)?;
        Some(percentile_from_buckets(buckets.iter().copied(), *count, q))
    }

    /// Mean of a snapshotted histogram; `None` when the histogram is
    /// absent *or* registered but never observed — a never-observed
    /// histogram has no mean, and reporting `0.0` for it would be
    /// indistinguishable from a true zero mean.
    pub fn hist_mean(&self, name: &str) -> Option<f64> {
        let (_, count, sum) = self.hists.get(name)?;
        (*count > 0).then(|| *sum as f64 / *count as f64)
    }

    /// Renders an aligned human-readable table (the CLI's `--metrics`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "  {:<44} {:>8} {:>12} {:>10}\n",
                "span", "count", "total_us", "max_us"
            ));
            for (name, s) in &self.spans {
                out.push_str(&format!(
                    "  {name:<44} {:>8} {:>12} {:>10}\n",
                    s.count, s.total_us, s.max_us
                ));
            }
        }
        if !(self.counters.is_empty() && self.values.is_empty()) {
            out.push_str(&format!("  {:<44} {:>12}\n", "counter", "value"));
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v:>12}\n"));
            }
            for (name, v) in &self.values {
                out.push_str(&format!("  {name:<44} {v:>12.3}\n"));
            }
        }
        for (name, (buckets, count, sum)) in &self.hists {
            // A registered-but-never-observed histogram has no mean;
            // render `-` so it cannot be mistaken for a true 0.0 mean.
            let mean = if *count == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", *sum as f64 / *count as f64)
            };
            out.push_str(&format!("  {name:<44} n={count} mean={mean} buckets: "));
            for (le, n) in buckets {
                out.push_str(&format!("le_{le}:{n} "));
            }
            out.push('\n');
        }
        out
    }
}

/// The registry behind an enabled [`Recorder`].
struct Inner {
    sink: Arc<dyn Sink>,
    counters: BTreeMap<String, Counter>,
    floats: BTreeMap<String, FloatCounter>,
    hists: BTreeMap<String, Hist>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanStat>,
}

/// The observability handle. Clones share the same registry, so a
/// recorder can be handed to planner, executor and simulator and drained
/// once at the end. It is single-owner: recorders and the instruments
/// they hand out stay on the thread that created them.
///
/// Instrument handles (`counter`, `float_counter`, `hist`) are meant to
/// be hoisted out of hot loops: look the instrument up once, then record
/// through the handle with no registry lookup on the hot path.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Inner>>>,
    flight: FlightRecorder,
}

impl Recorder {
    /// A recorder draining to `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Recorder {
            inner: Some(Rc::new(RefCell::new(Inner {
                sink,
                counters: BTreeMap::new(),
                floats: BTreeMap::new(),
                hists: BTreeMap::new(),
                gauges: BTreeMap::new(),
                spans: BTreeMap::new(),
            }))),
            flight: FlightRecorder::disabled(),
        }
    }

    /// The no-op recorder: hands out detached instruments, never times
    /// spans, never drains. This is the default everywhere.
    pub fn disabled() -> Self {
        Recorder { inner: None, flight: FlightRecorder::disabled() }
    }

    /// Whether this recorder retains anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a [`FlightRecorder`]: every layer the recorder reaches
    /// can then emit causally-ordered trace events. A flight recorder
    /// rides along independently of the aggregate side — a
    /// [`Recorder::disabled`] recorder can still carry an enabled
    /// flight ring (and vice versa).
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// The flight-recorder handle (disabled unless attached via
    /// [`Recorder::with_flight`]). Cheap to clone; clones share the
    /// ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The named counter, registered for drain (or detached when
    /// disabled). Repeated calls with the same name return handles over
    /// the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::new(),
            Some(inner) => inner.borrow_mut().counters.entry(name.to_string()).or_default().clone(),
        }
    }

    /// The named float counter.
    pub fn float_counter(&self, name: &str) -> FloatCounter {
        match &self.inner {
            None => FloatCounter::new(),
            Some(inner) => inner.borrow_mut().floats.entry(name.to_string()).or_default().clone(),
        }
    }

    /// The named histogram.
    pub fn hist(&self, name: &str) -> Hist {
        match &self.inner {
            None => Hist::new(),
            Some(inner) => inner.borrow_mut().hists.entry(name.to_string()).or_default().clone(),
        }
    }

    /// Sets a gauge — a value reported once at drain (per-mote energy
    /// totals, estimated selectivities). Last write wins.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().gauges.insert(name.to_string(), value);
        }
    }

    /// Starts a span. Timing only happens when the recorder is
    /// enabled; a disabled recorder's span is a zero-cost token.
    pub fn span(&self, name: &str) -> Span {
        Span {
            rec: self.clone(),
            path: if self.enabled() { name.to_string() } else { String::new() },
            // acqp-lint: allow(wallclock-in-planner): span timing is observational — never read back into a planning decision
            start: self.enabled().then(Instant::now),
        }
    }

    fn record_span(&self, path: &str, elapsed_us: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let s = inner.spans.entry(path.to_string()).or_default();
            s.count += 1;
            s.total_us += elapsed_us;
            s.max_us = s.max_us.max(elapsed_us);
            inner.sink.span_end(&SpanEvent { path: path.to_string(), elapsed_us });
        }
    }

    /// Merges every instrument into a [`Snapshot`], flushes it to the
    /// sink, and returns it. Instruments keep their totals; draining
    /// twice reports the same (or grown) values.
    pub fn drain(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let inner = inner.borrow();
        let mut snap = Snapshot::default();
        for (name, c) in &inner.counters {
            snap.counters.insert(name.clone(), c.value());
        }
        for (name, c) in &inner.floats {
            snap.values.insert(name.clone(), c.value());
        }
        for (name, v) in &inner.gauges {
            snap.values.insert(name.clone(), *v);
        }
        for (name, h) in &inner.hists {
            snap.hists.insert(name.clone(), (h.nonzero_buckets(), h.count(), h.sum()));
        }
        snap.spans = inner.spans.clone();
        inner.sink.flush(&snap);
        snap
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder(enabled={})", self.enabled())
    }
}

/// RAII span guard: created by [`Recorder::span`], records its elapsed
/// time under its dot-path when dropped.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    path: String,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            self.rec.record_span(&self.path, us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_through_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        for _ in 0..1000 {
            c.incr(1);
            c2.incr(3);
        }
        assert_eq!(c.value(), 4000);
        assert_eq!(c2.value(), 4000);
    }

    #[test]
    fn float_counter_accumulates() {
        let c = FloatCounter::new();
        let c2 = c.clone();
        for _ in 0..200 {
            c.add(0.25);
            c2.add(0.25);
        }
        assert_eq!(c.value(), 100.0);
    }

    #[test]
    fn hist_buckets_by_power_of_two() {
        let h = Hist::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let b: std::collections::HashMap<u64, u64> = h.nonzero_buckets().into_iter().collect();
        assert_eq!(b[&1], 2); // 0 and 1
        assert_eq!(b[&2], 1); // 2
        assert_eq!(b[&4], 2); // 3 and 4
        assert_eq!(b[&1024], 1); // 1000
    }

    #[test]
    fn hist_percentiles_nearest_rank() {
        let h = Hist::new();
        assert_eq!(h.p50(), 0); // empty
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..9 {
            h.observe(100); // le_128
        }
        h.observe(10_000); // le_16384
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p90(), 1); // rank 90 of 100 is the last le_1 obs
        assert_eq!(h.p99(), 128);
        assert_eq!(h.percentile(1.0), 16_384);
        // Snapshot-side percentile agrees with the live handle.
        let rec = Recorder::new(std::sync::Arc::new(MemorySink::new()));
        let rh = rec.hist("t.lat");
        for v in [1u64, 1, 1, 1000] {
            rh.observe(v);
        }
        let snap = rec.drain();
        assert_eq!(snap.hist_percentile("t.lat", 0.5), Some(1));
        assert_eq!(snap.hist_percentile("t.lat", 1.0), Some(1024));
        assert_eq!(snap.hist_percentile("absent", 0.5), None);
    }

    #[test]
    fn never_observed_hist_renders_absent_mean() {
        let rec = Recorder::new(Arc::new(NoopSink));
        let _registered = rec.hist("t.empty");
        rec.hist("t.zeros").observe(0);
        let snap = rec.drain();
        // The never-observed histogram must be distinguishable from one
        // whose observations genuinely average to zero.
        assert_eq!(snap.hist_mean("t.empty"), None);
        assert_eq!(snap.hist_mean("t.zeros"), Some(0.0));
        assert_eq!(snap.hist_mean("t.absent"), None);
        let table = snap.render_table();
        let empty_line = table.lines().find(|l| l.contains("t.empty")).unwrap();
        assert!(empty_line.contains("n=0 mean=- buckets:"), "{empty_line}");
        let zeros_line = table.lines().find(|l| l.contains("t.zeros")).unwrap();
        assert!(zeros_line.contains("n=1 mean=0.00 buckets:"), "{zeros_line}");
    }

    #[test]
    fn top_bucket_bound_agrees_between_views() {
        let h = Hist::new();
        h.observe(u64::MAX); // lands in the overflow bucket
        h.observe(1u64 << 40); // also beyond the last finite bound
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 1, "{buckets:?}");
        let (top_le, n) = buckets[0];
        assert_eq!(n, 2);
        // The overflow bucket's bound must be exactly what `percentile`
        // reports for the same observations — the two views may never
        // disagree on a bucket bound.
        assert_eq!(top_le, 1u64 << (HIST_BUCKETS - 1).min(63));
        assert_eq!(h.percentile(1.0), top_le);
        assert_eq!(h.p50(), top_le);
    }

    #[test]
    fn recorder_carries_flight() {
        let rec = Recorder::disabled().with_flight(FlightRecorder::new(8));
        assert!(!rec.enabled());
        assert!(rec.flight().enabled());
        rec.flight().emit(0, 0, "x", &[]);
        assert_eq!(rec.clone().flight().len(), 1);
        assert!(!Recorder::disabled().flight().enabled());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        let c = rec.counter("x");
        c.incr(5);
        let _span = rec.span("s");
        drop(_span);
        let snap = rec.drain();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn same_name_returns_same_instrument() {
        let rec = Recorder::new(Arc::new(NoopSink));
        rec.counter("a").incr(2);
        rec.counter("a").incr(3);
        rec.float_counter("f").add(1.5);
        rec.float_counter("f").add(1.5);
        let snap = rec.drain();
        assert_eq!(snap.counter("a"), 5);
        assert!((snap.value("f") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn spans_aggregate_per_path() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        {
            let _search = rec.span("plan.search");
            drop(rec.span("plan.verify"));
            drop(rec.span("plan.verify"));
        }
        let snap = rec.drain();
        assert_eq!(snap.spans["plan.search"].count, 1);
        assert_eq!(snap.spans["plan.verify"].count, 2);
        let events = sink.span_events();
        assert_eq!(events.len(), 3);
        // Every span streams one event when it ends, in completion order.
        assert_eq!(events[0].path, "plan.verify");
        assert_eq!(events[2].path, "plan.search");
    }

    #[test]
    fn gauges_last_write_wins() {
        let rec = Recorder::new(Arc::new(NoopSink));
        rec.gauge("g", 1.0);
        rec.gauge("g", 2.5);
        assert_eq!(rec.drain().value("g"), 2.5);
    }

    #[test]
    fn drain_is_idempotent_on_totals() {
        let rec = Recorder::new(Arc::new(NoopSink));
        rec.counter("c").incr(7);
        assert_eq!(rec.drain().counter("c"), 7);
        assert_eq!(rec.drain().counter("c"), 7);
    }
}
