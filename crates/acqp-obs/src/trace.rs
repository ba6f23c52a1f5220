//! Deterministic, bounded-memory flight recorder (DESIGN.md §13).
//!
//! A [`FlightRecorder`] is a ring buffer of structured [`TraceEvent`]s
//! emitted from every layer of the stack: plan search, plan adoption and
//! replan decisions, fault retries, crash/recovery, per-epoch simulation
//! time series, and batch-executor stage tallies. Events are
//! monotonically sequenced (`seq`, starting at 1) and causally ordered:
//! an event may name the `seq` of the event that caused it (`cause`,
//! 0 = none), and causes always precede effects in the log.
//!
//! Determinism contract:
//! - Events carry **simulation epochs and sequence numbers, never wall
//!   clock**, so a fixed seed yields a bitwise-identical trace.
//! - A disabled recorder ([`FlightRecorder::disabled`]) is bitwise
//!   transparent: `emit` returns 0 and touches nothing.
//! - The ring never silently truncates: overflow evicts the oldest
//!   event *and counts it* (`dropped`); every exporter appends a
//!   terminal `trace.dropped` record when the count is nonzero.
//!
//! Three exporters share the event stream:
//! - [`FlightRecorder::to_chrome_json`] — Chrome trace-event JSON,
//!   loadable in Perfetto / `chrome://tracing` (`ts` is the sequence
//!   number, tracks are top-level event categories).
//! - [`FlightRecorder::to_epoch_jsonl`] — one JSON object per
//!   `epoch.*` event: the per-epoch time series.
//! - [`FlightRecorder::to_timeline`] — an aligned human-readable text
//!   timeline for the CLI.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::sink::json_string;

/// One typed field value on a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer (counts, epochs, mote ids).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Float (costs, selectivities, energy). Rendered with Rust's
    /// shortest round-trip formatting, so equal bits render equally.
    F64(f64),
    /// Flag (adopted, recovered).
    Bool(bool),
    /// Short label (planner name, attribute).
    Str(String),
}

impl TraceValue {
    /// JSON rendering. Non-finite floats have no JSON encoding and are
    /// clamped to 0, matching [`crate::JsonLinesSink`].
    fn to_json(&self) -> String {
        match self {
            TraceValue::U64(v) => v.to_string(),
            TraceValue::I64(v) => v.to_string(),
            TraceValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "0".to_string()
                }
            }
            TraceValue::Bool(v) => v.to_string(),
            TraceValue::Str(s) => json_string(s),
        }
    }

    /// Bare rendering for the text timeline (strings unquoted).
    fn to_text(&self) -> String {
        match self {
            TraceValue::Str(s) => s.clone(),
            other => other.to_json(),
        }
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> Self {
        TraceValue::I64(v)
    }
}

impl From<f64> for TraceValue {
    fn from(v: f64) -> Self {
        TraceValue::F64(v)
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

/// One structured event in the flight log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number, 1-based; emission order == seq order.
    pub seq: u64,
    /// Simulation epoch the event belongs to (0 for pre-simulation
    /// events such as planning).
    pub epoch: u64,
    /// `seq` of the causing event, or 0 when the event is a root.
    /// Causes always have a smaller `seq` than their effects.
    pub cause: u64,
    /// Dot-separated event name (`plan.search.end`, `epoch.tick`),
    /// first segment = category/track.
    pub name: String,
    /// Typed payload, in emission order (deterministic).
    pub fields: Vec<(String, TraceValue)>,
}

impl TraceEvent {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Ring state behind one enabled recorder: the buffer and the sequence
/// counter advance together, so sequence order is emission order.
#[derive(Debug)]
struct Ring {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<TraceEvent>,
}

/// Default ring capacity: enough for the full event stream of a
/// Fig. 3-scale simulation without eviction.
pub const DEFAULT_FLIGHT_CAP: usize = 65_536;

/// The flight-recorder handle. Clones share the same ring. The
/// [`FlightRecorder::disabled`] recorder is bitwise transparent: every
/// method is a no-op and `emit` returns 0.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Rc<RefCell<Ring>>>,
}

impl FlightRecorder {
    /// An enabled recorder retaining at most `cap` events (clamped to at
    /// least 1). Past the cap, the oldest event is evicted and counted.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            inner: Some(Rc::new(RefCell::new(Ring {
                cap: cap.max(1),
                next_seq: 1,
                dropped: 0,
                buf: VecDeque::new(),
            }))),
        }
    }

    /// The transparent no-op recorder (the default everywhere).
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Whether events are retained.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event; returns its sequence number (0 when
    /// disabled, so a disabled recorder's "cause" chains stay 0 too).
    pub fn emit(&self, epoch: u64, cause: u64, name: &str, fields: &[(&str, TraceValue)]) -> u64 {
        if self.inner.is_none() {
            return 0;
        }
        self.emit_owned(
            epoch,
            cause,
            name,
            fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        )
    }

    /// [`FlightRecorder::emit`] with owned field names, for callers
    /// building dynamic keys (`mote3_uj`).
    pub fn emit_owned(
        &self,
        epoch: u64,
        cause: u64,
        name: &str,
        fields: Vec<(String, TraceValue)>,
    ) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let mut ring = inner.borrow_mut();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(TraceEvent { seq, epoch, cause, name: name.to_string(), fields });
        seq
    }

    /// Snapshot of retained events, oldest first (seq ascending).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.borrow().buf.iter().cloned().collect(),
        }
    }

    /// Events evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.borrow().dropped,
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.borrow().buf.len(),
        }
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever emitted (retained + dropped).
    pub fn emitted(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.borrow().next_seq - 1,
        }
    }

    /// The ring capacity (0 when disabled).
    pub fn cap(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.borrow().cap,
        }
    }

    /// Chrome trace-event JSON (the "JSON object format": a
    /// `traceEvents` array), loadable in Perfetto. Each event becomes an
    /// instant event (`ph:"i"`) with `ts` = sequence number; tracks
    /// (`tid`) are top-level name segments in order of first appearance,
    /// labeled via `thread_name` metadata records. Deterministic for a
    /// deterministic event stream.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let dropped = self.dropped();
        let mut records: Vec<String> = Vec::with_capacity(events.len() + 8);
        // Track ids by top-level category, in order of first appearance.
        let mut seen: Vec<String> = Vec::new();
        for ev in &events {
            let cat = ev.name.split('.').next().unwrap_or(&ev.name).to_string();
            if !seen.contains(&cat) {
                seen.push(cat);
            }
        }
        if dropped > 0 {
            let cat = "trace".to_string();
            if !seen.contains(&cat) {
                seen.push(cat);
            }
        }
        for (tid, cat) in seen.iter().enumerate() {
            records.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_string(cat)
            ));
        }
        let tid_for = |name: &str| -> usize {
            let cat = name.split('.').next().unwrap_or(name);
            seen.iter().position(|t| t == cat).unwrap_or(0)
        };
        for ev in &events {
            let mut args =
                format!("\"seq\":{},\"epoch\":{},\"cause\":{}", ev.seq, ev.epoch, ev.cause);
            for (k, v) in &ev.fields {
                args.push_str(&format!(",{}:{}", json_string(k), v.to_json()));
            }
            records.push(format!(
                "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{{args}}}}}",
                json_string(&ev.name),
                ev.seq,
                tid_for(&ev.name)
            ));
        }
        if dropped > 0 {
            let ts = events.last().map(|e| e.seq + 1).unwrap_or(1);
            records.push(format!(
                "{{\"name\":\"trace.dropped\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{\"dropped\":{dropped}}}}}",
                tid_for("trace.dropped")
            ));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str(r);
            if i + 1 < records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Per-epoch JSONL time series: one JSON object per `epoch.*` event
    /// (the simulator's per-epoch tick stream), fields flattened, plus a
    /// terminal `trace.dropped` line when the ring overflowed.
    pub fn to_epoch_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            if !ev.name.starts_with("epoch.") {
                continue;
            }
            let mut line = format!(
                "{{\"event\":{},\"seq\":{},\"epoch\":{}",
                json_string(&ev.name),
                ev.seq,
                ev.epoch
            );
            for (k, v) in &ev.fields {
                line.push_str(&format!(",{}:{}", json_string(k), v.to_json()));
            }
            line.push('}');
            out.push_str(&line);
            out.push('\n');
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("{{\"event\":\"trace.dropped\",\"dropped\":{dropped}}}\n"));
        }
        out
    }

    /// Aligned human-readable timeline (the CLI's `--flight-timeline`).
    pub fn to_timeline(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:>8} {:>6} {:>8} {:<28} fields\n",
            "seq", "epoch", "cause", "event"
        ));
        for ev in self.events() {
            let cause = if ev.cause == 0 { "-".to_string() } else { ev.cause.to_string() };
            let mut fields = String::new();
            for (k, v) in &ev.fields {
                fields.push_str(&format!("{k}={} ", v.to_text()));
            }
            out.push_str(&format!(
                "  {:>8} {:>6} {:>8} {:<28} {}\n",
                ev.seq,
                ev.epoch,
                cause,
                ev.name,
                fields.trim_end()
            ));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!(
                "  !! trace.dropped: ring overflow evicted the {dropped} oldest events\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_transparent() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.enabled());
        assert_eq!(fr.emit(0, 0, "x", &[]), 0);
        assert_eq!(fr.events(), Vec::new());
        assert_eq!(fr.dropped(), 0);
        assert_eq!(fr.emitted(), 0);
        assert_eq!(fr.cap(), 0);
    }

    #[test]
    fn seq_is_monotonic_and_causal() {
        let fr = FlightRecorder::new(16);
        let a = fr.emit(0, 0, "plan.search.start", &[("planner", "exhaustive".into())]);
        let b = fr.emit(0, a, "plan.search.end", &[("cost", 12.5.into())]);
        assert_eq!((a, b), (1, 2));
        let evs = fr.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].cause, a);
        assert!(evs[1].cause < evs[1].seq);
        assert_eq!(evs[1].field("cost"), Some(&TraceValue::F64(12.5)));
    }

    #[test]
    fn overflow_is_counted_never_silent() {
        let fr = FlightRecorder::new(2);
        for i in 0..5u64 {
            fr.emit(i, 0, "e", &[]);
        }
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.dropped(), 3);
        assert_eq!(fr.emitted(), 5);
        // Oldest evicted: retained seqs are 4 and 5.
        let seqs: Vec<u64> = fr.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert!(fr.to_chrome_json().contains("\"trace.dropped\""));
        assert!(fr.to_epoch_jsonl().contains("\"dropped\":3"));
        assert!(fr
            .to_timeline()
            .contains("trace.dropped: ring overflow evicted the 3 oldest events"));
    }

    #[test]
    fn chrome_export_shape() {
        let fr = FlightRecorder::new(16);
        fr.emit(0, 0, "plan.search.start", &[("planner", "greedy".into())]);
        fr.emit(3, 1, "epoch.tick", &[("tuples", 7u64.into()), ("energy", 1.25.into())]);
        let json = fr.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"plan.search.start\""));
        assert!(json.contains("\"epoch\":3"));
        assert!(json.contains("\"energy\":1.25"));
        // Two categories → two thread_name metadata records, tids 0 and 1.
        assert!(json.contains("\"tid\":1"));
    }

    #[test]
    fn epoch_jsonl_filters_epoch_events() {
        let fr = FlightRecorder::new(16);
        fr.emit(0, 0, "plan.search.start", &[]);
        fr.emit(1, 0, "epoch.tick", &[("tuples", 3u64.into())]);
        fr.emit(2, 0, "epoch.tick", &[("tuples", 4u64.into())]);
        let jsonl = fr.to_epoch_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"event\":\"epoch.tick\"")));
    }

    #[test]
    fn clones_share_the_ring() {
        let fr = FlightRecorder::new(8);
        let fr2 = fr.clone();
        fr.emit(0, 0, "a", &[]);
        fr2.emit(0, 0, "b", &[]);
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.events()[1].seq, 2);
    }
}
