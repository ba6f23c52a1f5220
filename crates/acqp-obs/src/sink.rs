//! Pluggable metric sinks: no-op, JSON-lines file, in-memory.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
// acqp-lint: allow(raw-mutex): sinks are `Send + Sync` so one `Arc<dyn Sink>` can serve any recorder; each lock guards one plain buffer write and is recovered from poison
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::Snapshot;

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking: every critical section here is a single push or write,
/// so the buffer stays well-formed under poison.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A completed span, streamed to the sink as it ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dot-separated span path (`planner.search.warm`).
    pub path: String,
    /// Elapsed wall-clock microseconds (monotonic clock).
    pub elapsed_us: u64,
}

/// Where drained metrics go. Span ends are streamed live (so a trace
/// shows timings in completion order); counters, gauges and histograms
/// are flushed once per [`crate::Recorder::drain`].
pub trait Sink: Send + Sync {
    /// Called as each span guard drops.
    fn span_end(&self, _event: &SpanEvent) {}
    /// Called by `drain` with the merged snapshot.
    fn flush(&self, _snapshot: &Snapshot) {}
}

/// Discards everything. (A [`crate::Recorder::disabled`] recorder is
/// cheaper still — it never aggregates — but a `NoopSink` recorder is
/// useful when a test wants snapshots without any I/O.)
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {}

/// Captures span events and flushed snapshots in memory, for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    spans: Mutex<Vec<SpanEvent>>,
    snapshots: Mutex<Vec<Snapshot>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Every span completion seen so far, in completion order.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        lock_unpoisoned(&self.spans).clone()
    }

    /// Every flushed snapshot, oldest first.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        lock_unpoisoned(&self.snapshots).clone()
    }
}

impl Sink for MemorySink {
    fn span_end(&self, event: &SpanEvent) {
        lock_unpoisoned(&self.spans).push(event.clone());
    }

    fn flush(&self, snapshot: &Snapshot) {
        lock_unpoisoned(&self.snapshots).push(snapshot.clone());
    }
}

/// Writes one JSON object per line to a file:
///
/// ```text
/// {"span":"planner.search","elapsed_us":1234}
/// {"counter":"planner.memo.hit","value":5678}
/// {"counter":"exec.cost_per_tuple.le_16","value":12}
/// ```
///
/// Every line carries either `span` + `elapsed_us` or `counter` +
/// `value` — the two shapes the CI smoke check validates. Histograms
/// flatten to one `counter` line per non-empty bucket plus `.count` and
/// `.sum`; span aggregates flatten to `.count`/`.total_us`/`.max_us`.
#[derive(Debug)]
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonLinesSink {
    /// Creates (truncates) `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonLinesSink { out: Mutex::new(BufWriter::new(File::create(path)?)) })
    }

    fn counter_line(w: &mut impl Write, name: &str, value: f64) {
        // Non-finite values have no JSON encoding; clamp to 0.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = writeln!(w, "{{\"counter\":{},\"value\":{value}}}", json_string(name));
    }
}

impl Sink for JsonLinesSink {
    fn span_end(&self, event: &SpanEvent) {
        let mut out = lock_unpoisoned(&self.out);
        let _ = writeln!(
            out,
            "{{\"span\":{},\"elapsed_us\":{}}}",
            json_string(&event.path),
            event.elapsed_us
        );
    }

    fn flush(&self, snapshot: &Snapshot) {
        let mut out = lock_unpoisoned(&self.out);
        for (name, v) in &snapshot.counters {
            Self::counter_line(&mut *out, name, *v as f64);
        }
        for (name, v) in &snapshot.values {
            Self::counter_line(&mut *out, name, *v);
        }
        for (name, (buckets, count, sum)) in &snapshot.hists {
            Self::counter_line(&mut *out, &format!("{name}.count"), *count as f64);
            Self::counter_line(&mut *out, &format!("{name}.sum"), *sum as f64);
            for (le, n) in buckets {
                Self::counter_line(&mut *out, &format!("{name}.le_{le}"), *n as f64);
            }
        }
        for (name, s) in &snapshot.spans {
            Self::counter_line(&mut *out, &format!("span.{name}.count"), s.count as f64);
            Self::counter_line(&mut *out, &format!("span.{name}.total_us"), s.total_us as f64);
            Self::counter_line(&mut *out, &format!("span.{name}.max_us"), s.max_us as f64);
        }
        let _ = out.flush();
    }
}

/// Minimal JSON string encoding (quotes, backslashes, control chars).
/// Metric names are plain identifiers, but the output must stay valid
/// JSON whatever a caller passes. Shared with the flight-recorder
/// exporters in [`crate::trace`].
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain.name"), "\"plain.name\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_lines_sink_emits_valid_shapes() {
        let dir = std::env::temp_dir().join(format!("acqp_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let rec = Recorder::new(Arc::new(JsonLinesSink::create(&path).unwrap()));
            rec.counter("planner.memo.hit").incr(3);
            rec.gauge("exec.pred0.est_sel", 0.5);
            rec.hist("exec.cost_per_tuple").observe(12);
            drop(rec.span("planner.search"));
            rec.drain();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 5, "got {lines:?}");
        for line in &lines {
            // Every line is exactly one of the two documented shapes.
            let span_shape = line.starts_with("{\"span\":") && line.contains("\"elapsed_us\":");
            let counter_shape = line.starts_with("{\"counter\":") && line.contains("\"value\":");
            assert!(span_shape || counter_shape, "unexpected line {line}");
            assert!(line.ends_with('}'));
        }
        assert!(text.contains("{\"counter\":\"planner.memo.hit\",\"value\":3}"), "{text}");
        assert!(text.contains("\"span\":\"planner.search\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
