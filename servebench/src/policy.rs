//! A [`ServePlanner`] that delegates to [`acqp_serve::Service`] and
//! times every call the engine makes into the policy layer.
//!
//! Timing is always on (two clock reads per call, so the untraced run
//! can report cache-miss latency); span records and the inputs for the
//! after-run replays are kept only when tracing.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use acqp_core::{Query, Result};
use acqp_sensornet::service::{AdmittedPlan, ServePlanner, ServePolicyState};
use acqp_serve::Service;

/// One policy call, as recorded for the trace.
pub struct PolicySpan {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Request id: the query's signature (0 for whole-cache calls).
    pub req: u64,
}

/// Time spent inside the policy during one serve call.
#[derive(Default)]
pub struct PolicyTimes {
    /// Wall time of every cache-miss admission, in milliseconds.
    pub miss_ms: Vec<f64>,
    /// Every other policy call: hits, completions, snapshots, restores.
    pub other_ns: u64,
}

impl PolicyTimes {
    pub fn total_ns(&self) -> u64 {
        let miss_ns = self.miss_ms.iter().sum::<f64>() * 1e6;
        miss_ns as u64 + self.other_ns
    }
}

/// What a traced call hands to the replays and the trace writer.
#[derive(Default)]
pub struct PolicyTrace {
    pub spans: Vec<PolicySpan>,
    /// Queries whose admission ran a plan search.
    pub missed: Vec<Query>,
    /// Every admitted plan's query and wire bytes.
    pub admitted: Vec<(Query, Vec<u8>)>,
}

pub struct TimedPolicy<'h> {
    inner: Service<'h>,
    traced: bool,
    times: PolicyTimes,
    /// `policy_state` takes `&self`, so its time and spans go through cells.
    snapshot_ns: Cell<u64>,
    trace: RefCell<PolicyTrace>,
}

fn ns(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

impl<'h> TimedPolicy<'h> {
    pub fn new(inner: Service<'h>, traced: bool) -> Self {
        TimedPolicy {
            inner,
            traced,
            times: PolicyTimes::default(),
            snapshot_ns: Cell::new(0),
            trace: RefCell::new(PolicyTrace::default()),
        }
    }

    pub fn finish(self) -> (PolicyTimes, PolicyTrace) {
        let mut times = self.times;
        times.other_ns += self.snapshot_ns.get();
        (times, self.trace.into_inner())
    }

    fn span(&self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if self.traced {
            self.trace.borrow_mut().spans.push(PolicySpan { name, start, end, req });
        }
    }
}

impl ServePlanner for TimedPolicy<'_> {
    fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan> {
        let start = Instant::now();
        let admitted = self.inner.plan_admitted(query, epoch)?;
        let end = Instant::now();
        let sig = query.signature();
        if admitted.cache_hit {
            self.times.other_ns += ns(start, end);
            self.span("serve.admit.hit", start, end, sig);
        } else {
            self.times.miss_ms.push(ns(start, end) as f64 / 1e6);
            self.span("serve.admit.miss", start, end, sig);
        }
        if self.traced {
            let trace = self.trace.get_mut();
            if !admitted.cache_hit {
                trace.missed.push(query.clone());
            }
            trace.admitted.push((query.clone(), admitted.planned.wire.clone()));
        }
        Ok(admitted)
    }

    fn query_completed(&mut self, query: &Query, epoch: usize, pred_counts: &[(u64, u64)]) -> u64 {
        let start = Instant::now();
        let invalidated = self.inner.query_completed(query, epoch, pred_counts);
        let end = Instant::now();
        self.times.other_ns += ns(start, end);
        self.span("serve.complete", start, end, query.signature());
        invalidated
    }

    fn stats_epoch(&self) -> u64 {
        self.inner.stats_epoch()
    }

    fn policy_state(&self) -> Option<ServePolicyState> {
        let start = Instant::now();
        let state = self.inner.policy_state();
        let end = Instant::now();
        self.snapshot_ns.set(self.snapshot_ns.get() + ns(start, end));
        self.span("serve.snapshot", start, end, 0);
        state
    }

    fn restore_policy_state(&mut self, state: Option<ServePolicyState>) {
        let start = Instant::now();
        self.inner.restore_policy_state(state);
        let end = Instant::now();
        self.times.other_ns += ns(start, end);
        self.span("serve.restore", start, end, 0);
    }
}
