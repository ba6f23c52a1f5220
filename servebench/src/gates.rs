//! Correctness gates and the determinism digest of a serve call.

use std::collections::BTreeMap;

use acqp_core::QueryStatus;
use acqp_sensornet::service::ServiceReport;

use crate::inputs::Workload;
use crate::Call;

/// The deterministic face of a serve call: counts, ledgers and latency
/// epochs that must repeat exactly for one seed.
pub struct Facts {
    pub scheduled: usize,
    pub admitted: usize,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub hit_subproblems: u64,
    pub subproblems: u64,
    pub tuples: usize,
    pub results: usize,
    pub performed: u64,
    pub demanded: u64,
    pub sensing_uj: f64,
    pub total_uj: f64,
    /// Admission-to-first-result epochs of every admitted query, sorted.
    pub latencies: Vec<u64>,
    pub shed: usize,
    pub timed_out: usize,
    pub partial: usize,
    pub checkpoints: usize,
    pub wal_replayed: usize,
    pub cold_starts: usize,
    pub crashes: usize,
}

impl Facts {
    pub fn of(report: &ServiceReport) -> Facts {
        let admitted: Vec<_> = report.queries.iter().filter(|q| q.admitted).collect();
        let hits = admitted.iter().filter(|q| q.cache_hit).count() as u64;
        let mut latencies: Vec<u64> = admitted.iter().filter_map(|q| q.latency_epochs).collect();
        latencies.sort_unstable();
        let rob = report.robustness.clone().unwrap_or_default();
        Facts {
            scheduled: report.queries.len(),
            admitted: admitted.len(),
            hits,
            misses: admitted.len() as u64 - hits,
            invalidations: admitted.iter().map(|q| q.invalidated).sum(),
            hit_subproblems: admitted.iter().filter(|q| q.cache_hit).map(|q| q.subproblems).sum(),
            subproblems: admitted.iter().map(|q| q.subproblems).sum(),
            tuples: report.tuples(),
            results: report.results(),
            performed: report.performed_acquisitions,
            demanded: report.demanded_acquisitions,
            sensing_uj: report.network.sensing_uj,
            total_uj: report.network.total_uj(),
            latencies,
            shed: report.queries.iter().filter(|q| q.shed_at.is_some()).count(),
            timed_out: report.count_status(QueryStatus::TimedOut),
            partial: report.count_status(QueryStatus::Partial),
            checkpoints: rob.checkpoints_written,
            wal_replayed: rob.wal_replayed,
            cold_starts: rob.cold_starts,
            crashes: rob.crashes,
        }
    }

    /// FNV-1a over every deterministic field.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.scheduled as u64,
            self.admitted as u64,
            self.hits,
            self.misses,
            self.invalidations,
            self.hit_subproblems,
            self.subproblems,
            self.tuples as u64,
            self.results as u64,
            self.performed,
            self.demanded,
            self.sensing_uj.to_bits(),
            self.total_uj.to_bits(),
            self.shed as u64,
            self.timed_out as u64,
            self.partial as u64,
            self.checkpoints as u64,
            self.wal_replayed as u64,
            self.cold_starts as u64,
            self.crashes as u64,
        ];
        let words = fields.iter().chain(&self.latencies);
        words.flat_map(|f| f.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Entries not served: shed, or cut off at their deadline.
    pub fn failed(&self) -> usize {
        self.shed + self.timed_out
    }
}

/// The correctness gates every call must pass; returns the broken ones.
pub fn broken_gates(w: Workload, report: &ServiceReport, f: &Facts) -> Vec<String> {
    let mut broken = Vec::new();
    let wrong = report
        .queries
        .iter()
        .filter(|q| q.status == QueryStatus::Complete && !q.all_correct)
        .count();
    if wrong > 0 {
        broken.push(format!("{wrong} Complete queries disagree with ground truth"));
    }
    if f.hit_subproblems != 0 {
        broken.push(format!("cache hits expanded {} subproblems", f.hit_subproblems));
    }
    if w.lossless() {
        if f.admitted != f.scheduled {
            broken.push(format!("admitted {} of {} scheduled entries", f.admitted, f.scheduled));
        }
        let complete = report.count_status(QueryStatus::Complete);
        if complete != f.scheduled {
            broken.push(format!("{complete} of {} entries completed", f.scheduled));
        }
    } else {
        if f.cold_starts != 0 {
            broken.push(format!("{} cold starts", f.cold_starts));
        }
        if f.wal_replayed == 0 {
            broken.push("no WAL record replayed".into());
        }
        if f.crashes != 2 {
            broken.push(format!("{} crashes, 2 scheduled", f.crashes));
        }
    }
    broken
}

/// Running tally of calls and their gate results.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub broken: Vec<String>,
    /// Deterministic digest of each sub-schedule's first call.
    pub digests: BTreeMap<usize, u64>,
}

impl Tally {
    pub fn check(&mut self, w: Workload, call: &Call) {
        let facts = Facts::of(&call.report);
        self.attempted += facts.scheduled;
        let mut broken = broken_gates(w, &call.report, &facts);
        let digest = facts.digest();
        let first = *self.digests.entry(call.sub).or_insert(digest);
        if first != digest {
            broken.push(format!(
                "schedule {} repeated with different deterministic fields ({first:016x} then {digest:016x})",
                call.sub
            ));
        }
        self.failed += if broken.is_empty() { facts.failed() } else { facts.scheduled };
        self.broken.extend(broken);
    }

    pub fn error(&mut self, err: &acqp_core::Error, scheduled: usize) {
        self.attempted += scheduled;
        self.failed += scheduled;
        self.broken.push(format!("serve call failed: {err}"));
    }
}
