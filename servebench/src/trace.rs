//! In-memory spans for the traced run, written out once at the end as
//! JSON lines (`id`, `name`, `start_ns`, `end_ns`, `parent`, `req`),
//! plus the per-name self-time table. `req` is the query signature for
//! per-query spans, the sub-schedule index for `serve.run`, and 0 for
//! whole-cache calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Per-name totals: spans, wall time and self time (wall time minus the
/// time covered by direct children).
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span offsets count from `origin`, which must
    /// precede every span it records.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.offset(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Time inside span `id` that no direct child covers, found by
    /// walking the gaps between children — so overlapping or escaping
    /// children show up as a mismatch against the wall-time sum.
    pub fn uncovered_ns(&self, id: usize) -> u64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let root = &self.spans[id];
        let mut cursor = root.start_ns;
        let mut gaps = 0;
        for (start, end) in kids {
            gaps += start.saturating_sub(cursor);
            cursor = cursor.max(end);
        }
        gaps + root.end_ns.saturating_sub(cursor)
    }

    /// Wall time of span `id`'s direct children.
    pub fn children_ns(&self, id: usize) -> u64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_ns - s.start_ns).sum()
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":\"{:016x}\"}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
