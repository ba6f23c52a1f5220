//! # acqp-serve — the multi-query basestation service policy
//!
//! The execution engine for concurrent queries lives in
//! [`acqp_sensornet::service`]; this crate supplies the *policy* behind
//! it (`DESIGN.md` §14):
//!
//! * [`Service`] — a [`ServePlanner`] that caches plans keyed by
//!   `(query signature, stats epoch)` so repeat admissions skip plan
//!   search entirely, and arms a per-signature [`DriftMonitor`] whose
//!   firing bumps the stats epoch and invalidates every cached plan.
//!   Both slots keep their query and answer only that exact query, so a
//!   signature collision is planned fresh instead of aliased.
//! * [`serve_schedule`] — the turn-key entry point: builds the fleet,
//!   runs the schedule through [`run_service_with`], and distills a
//!   [`ServeReport`] with p50/p99 admission-to-result latency (in
//!   epochs — the service never reads a wall clock) and amortized
//!   sensing energy per query.
//! * [`independent_schedule_energy`] — the N-independent-runs baseline
//!   the shared-acquisition service is benchmarked against: every
//!   scheduled query on its own fresh fleet over its own trace window.
//!
//! Everything is deterministic: cache iteration uses `BTreeMap`, the
//! arbitration order is the schedule order, and a single-query service
//! run is bitwise identical to the plain engine (see
//! `tests/serve_equivalence.rs`).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp))]

use std::collections::BTreeMap;

use acqp_core::{Dataset, DriftConfig, DriftMonitor, ExecMode, Query, QueryStatus, Result, Schema};
use acqp_obs::Recorder;
use acqp_sensornet::service::{
    AdmittedPlan, ScheduleEntry, ServePlanner, ServePolicyState, ServiceOptions, ServiceReport,
};
use acqp_sensornet::sim::{fleet_from_trace, run_simulation, SimOptions};
use acqp_sensornet::{
    run_service_with, Basestation, CrashConfig, EnergyModel, FaultModel, PlannedQuery,
    ServicePolicy,
};

/// Planning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// §2.4 plan-size penalty applied to every admission's sweep.
    pub alpha: f64,
    /// Candidate split budgets for the `Heuristic-k` sweep.
    pub candidate_splits: Vec<usize>,
    /// Drift thresholds governing plan-cache invalidation.
    pub drift: DriftConfig,
    /// Seeded fault model for the run ([`FaultModel::none`] = lossless).
    pub faults: FaultModel,
    /// Crash/checkpoint configuration (inactive by default).
    pub crash: CrashConfig,
    /// Admission-control and degradation policy (no-op by default).
    pub policy: ServicePolicy,
    /// Collect delivered `(epoch, mote)` rows per query (row collection
    /// only; used by transparency and prefix tests).
    pub collect_rows: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            alpha: 0.0,
            candidate_splits: vec![0, 1, 2, 4, 8],
            drift: DriftConfig::default(),
            faults: FaultModel::none(),
            crash: CrashConfig::default(),
            policy: ServicePolicy::default(),
            collect_rows: false,
        }
    }
}

/// The caching, drift-aware planning policy: plans are cached under
/// `(query signature, stats epoch)`; completions feed per-predicate
/// counts into a per-signature [`DriftMonitor`], and a drifted monitor
/// bumps the stats epoch — orphaning (and dropping) every cached plan,
/// so the next admission of any signature re-plans against fresh keys.
///
/// The signature is a 64-bit hash, so every cache entry and monitor
/// keeps the query it belongs to and serves only that query. A query
/// whose signature is taken by another is planned and verified fresh on
/// every admission, and is neither cached nor monitored.
pub struct Service<'h> {
    bs: Basestation<'h>,
    cfg: ServeConfig,
    cache: BTreeMap<(u64, u64), (Query, PlannedQuery)>,
    monitors: BTreeMap<u64, (Query, DriftMonitor)>,
    stats_epoch: u64,
}

impl<'h> Service<'h> {
    /// Creates the policy over a basestation. Fails if the drift
    /// configuration is invalid or no candidate split budget is given.
    pub fn new(bs: Basestation<'h>, cfg: ServeConfig) -> Result<Self> {
        cfg.drift.validate()?;
        if cfg.candidate_splits.is_empty() {
            return Err(acqp_core::Error::EmptyQuery);
        }
        Ok(Service { bs, cfg, cache: BTreeMap::new(), monitors: BTreeMap::new(), stats_epoch: 0 })
    }

    /// Plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// The basestation the policy plans with.
    pub fn basestation(&self) -> &Basestation<'h> {
        &self.bs
    }
}

impl ServePlanner for Service<'_> {
    fn plan_admitted(&mut self, query: &Query, _epoch: usize) -> Result<AdmittedPlan> {
        let sig = query.signature();
        let key = (sig, self.stats_epoch);
        let cached = self.cache.get(&key);
        if let Some((_, planned)) = cached.filter(|(owner, _)| owner == query) {
            return Ok(AdmittedPlan { planned: planned.clone(), cache_hit: true, subproblems: 0 });
        }
        let collides =
            cached.is_some() || self.monitors.get(&sig).is_some_and(|(owner, _)| owner != query);
        let (_, planned, subproblems) =
            self.bs.plan_query_sized_reported(query, self.cfg.alpha, &self.cfg.candidate_splits)?;
        // Nothing unverified is ever memoized: the cache boundary
        // re-runs the static verifier, so every future hit hands out
        // bytes that are known-good for this exact query.
        acqp_verify::verify_wire(&planned.wire, query, self.bs.schema())?;
        if !collides {
            self.cache.insert(key, (query.clone(), planned.clone()));
            if !self.monitors.contains_key(&sig) {
                let monitor =
                    DriftMonitor::new(self.bs.estimated_selectivities(query), self.cfg.drift)?;
                self.monitors.insert(sig, (query.clone(), monitor));
            }
        }
        Ok(AdmittedPlan { planned, cache_hit: false, subproblems })
    }

    fn query_completed(&mut self, query: &Query, _epoch: usize, pred_counts: &[(u64, u64)]) -> u64 {
        let sig = query.signature();
        let Some((_, monitor)) = self.monitors.get_mut(&sig).filter(|(owner, _)| owner == query)
        else {
            return 0;
        };
        for (j, &(evaluated, passed)) in pred_counts.iter().enumerate() {
            if j < monitor.len() && evaluated > 0 && passed <= evaluated {
                monitor.observe_counts(j, evaluated, passed);
            }
        }
        if !monitor.drifted() {
            return 0;
        }
        // Drift: every cached plan was built against stale statistics.
        // Bumping the stats epoch orphans all `(sig, old_epoch)` keys;
        // dropping them keeps the cache from growing without bound.
        let invalidated = self.cache.len() as u64;
        self.cache.clear();
        self.stats_epoch += 1;
        // Re-arm this signature's monitor so one drifted query doesn't
        // re-invalidate on every subsequent completion.
        monitor.reset(self.bs.estimated_selectivities(query));
        invalidated
    }

    fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    fn policy_state(&self) -> Option<ServePolicyState> {
        let plans = self
            .cache
            .iter()
            .map(|(&(_, key_epoch), (query, planned))| (query.clone(), key_epoch, planned.clone()))
            .collect();
        Some(ServePolicyState { stats_epoch: self.stats_epoch, plans })
    }

    fn restore_policy_state(&mut self, state: Option<ServePolicyState>) {
        self.cache.clear();
        self.monitors.clear();
        let Some(st) = state else {
            // Cold start: the policy is back at genesis and re-plans
            // (and re-arms monitors) on the next admission.
            self.stats_epoch = 0;
            return;
        };
        self.stats_epoch = st.stats_epoch;
        for (query, key_epoch, planned) in st.plans {
            // Recovered bytes must re-earn verification before they can
            // be handed out as cache hits; a failing entry is demoted
            // to a re-plan on its next admission.
            if acqp_verify::verify_wire(&planned.wire, &query, self.bs.schema()).is_err() {
                continue;
            }
            let sig = query.signature();
            // Monitors restart from the estimator baseline: drift
            // deltas since the checkpoint are lost with the process.
            if !self.monitors.contains_key(&sig) {
                if let Ok(monitor) =
                    DriftMonitor::new(self.bs.estimated_selectivities(&query), self.cfg.drift)
                {
                    self.monitors.insert(sig, (query.clone(), monitor));
                }
            }
            self.cache.insert((sig, key_epoch), (query, planned));
        }
    }
}

/// What [`serve_schedule`] distills out of a service run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The raw engine report (per-query outcomes, energy ledgers).
    pub service: ServiceReport,
    /// Schedule entries actually admitted.
    pub admitted: usize,
    /// Admissions served from the plan cache.
    pub cache_hits: u64,
    /// Admissions that ran a plan search.
    pub cache_misses: u64,
    /// Cached plans dropped by drift-triggered invalidation.
    pub cache_invalidations: u64,
    /// Plan-search subproblems expanded on cache hits — zero by
    /// construction, pinned by the bench gate.
    pub hit_subproblems: u64,
    /// Plan-search subproblems expanded in total.
    pub total_subproblems: u64,
    /// Median admission-to-first-result latency in epochs, over the
    /// queries that produced a result (`0` when none did).
    pub p50_latency_epochs: u64,
    /// 99th-percentile admission-to-first-result latency in epochs.
    pub p99_latency_epochs: u64,
    /// Mote-side sensing energy divided by admitted queries (µJ).
    pub amortized_sensing_uj_per_query: f64,
    /// Total mote-side energy of the shared run (µJ).
    pub shared_total_uj: f64,
    /// Queries shed by admission control.
    pub shed: usize,
    /// Queries terminated at their deadline with partial results.
    pub timed_out: usize,
    /// Windows that completed but lost work to faults along the way.
    pub partial: usize,
}

/// Nearest-rank percentile of a sorted slice (`p` in `(0, 1]`).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs `schedule` through the shared-acquisition service over a fleet
/// of `motes` motes all observing `trace`, planning from `history`, and
/// distills the [`ServeReport`].
#[allow(clippy::too_many_arguments)]
pub fn serve_schedule(
    schema: &Schema,
    history: &Dataset,
    trace: &Dataset,
    schedule: &[ScheduleEntry],
    motes: u16,
    model: &EnergyModel,
    epochs: usize,
    mode: ExecMode,
    cfg: ServeConfig,
    rec: &Recorder,
) -> Result<ServeReport> {
    let opts = ServiceOptions {
        faults: cfg.faults.clone(),
        crash: cfg.crash.clone(),
        policy: cfg.policy.clone(),
        collect_rows: cfg.collect_rows,
    };
    let mut service = Service::new(Basestation::new(schema.clone(), history), cfg)?;
    let mut fleet = fleet_from_trace(trace, motes);
    let report = run_service_with(
        schema,
        schedule,
        &mut service,
        &mut fleet,
        model,
        epochs,
        mode,
        rec,
        &opts,
    )?;

    let admitted_rows: Vec<_> = report.queries.iter().filter(|q| q.admitted).collect();
    let admitted = admitted_rows.len();
    let cache_hits = admitted_rows.iter().filter(|q| q.cache_hit).count() as u64;
    let cache_misses = admitted as u64 - cache_hits;
    let cache_invalidations = admitted_rows.iter().map(|q| q.invalidated).sum();
    let hit_subproblems = admitted_rows.iter().filter(|q| q.cache_hit).map(|q| q.subproblems).sum();
    let total_subproblems = admitted_rows.iter().map(|q| q.subproblems).sum();
    let mut latencies: Vec<u64> = admitted_rows.iter().filter_map(|q| q.latency_epochs).collect();
    latencies.sort_unstable();
    let amortized = if admitted > 0 { report.network.sensing_uj / admitted as f64 } else { 0.0 };
    Ok(ServeReport {
        admitted,
        cache_hits,
        cache_misses,
        cache_invalidations,
        hit_subproblems,
        total_subproblems,
        p50_latency_epochs: percentile(&latencies, 0.50),
        p99_latency_epochs: percentile(&latencies, 0.99),
        amortized_sensing_uj_per_query: amortized,
        shared_total_uj: report.network.total_uj(),
        shed: report.queries.iter().filter(|q| q.shed_at.is_some()).count(),
        timed_out: report.count_status(QueryStatus::TimedOut),
        partial: report.count_status(QueryStatus::Partial),
        service: report,
    })
}

/// The N-independent-runs baseline: every schedule entry that the
/// service would admit runs alone — its own plan, its own fresh fleet,
/// its own trace window — through [`run_simulation`]. Returns the
/// summed mote-side energy (µJ), the quantity the shared service must
/// strictly beat once queries overlap.
#[allow(clippy::too_many_arguments)]
pub fn independent_schedule_energy(
    schema: &Schema,
    history: &Dataset,
    trace: &Dataset,
    schedule: &[ScheduleEntry],
    motes: u16,
    model: &EnergyModel,
    epochs: usize,
    cfg: &ServeConfig,
) -> Result<f64> {
    let bs = Basestation::new(schema.clone(), history);
    let mut total = 0.0;
    for entry in schedule {
        if entry.admit >= epochs {
            continue;
        }
        let lived = (entry.admit + entry.window.max(1)).min(epochs) - entry.admit;
        let hi = (entry.admit + lived).min(trace.len());
        let rows: Vec<Vec<u16>> = (entry.admit..hi)
            .map(|r| (0..schema.len()).map(|a| trace.value(r, a)).collect())
            .collect();
        let window = Dataset::from_rows(schema, rows)?;
        let (_, planned) = bs.plan_query_sized(&entry.query, cfg.alpha, &cfg.candidate_splits)?;
        let mut fleet = fleet_from_trace(&window, motes);
        let rep = run_simulation(
            &bs,
            &entry.query,
            &planned,
            &mut fleet,
            model,
            lived,
            &Recorder::disabled(),
            &SimOptions::default(),
        )?;
        total += rep.fault.sim.network.total_uj();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_core::{Attribute, Pred};

    fn setup() -> (Schema, Dataset, Query, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 100.0),
            Attribute::new("b", 2, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..400u16 {
            let t = i % 2;
            let a = if i % 10 == 0 { 1 - t } else { t };
            let b = if i % 12 == 0 { t } else { 1 - t };
            rows.push(vec![a, b, t]);
        }
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let q1 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        (schema, data, q1, q2)
    }

    #[test]
    fn repeat_admissions_hit_the_cache_with_zero_search() {
        let (schema, data, q1, q2) = setup();
        let schedule: Vec<ScheduleEntry> = (0..6)
            .map(|i| ScheduleEntry::new(if i % 2 == 0 { q1.clone() } else { q2.clone() }, i * 4, 8))
            .collect();
        let rep = serve_schedule(
            &schema,
            &data,
            &data,
            &schedule,
            2,
            &EnergyModel::mica_like(),
            40,
            ExecMode::Scalar,
            ServeConfig::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(rep.admitted, 6);
        // Two distinct signatures -> two misses, four hits.
        assert_eq!(rep.cache_misses, 2);
        assert_eq!(rep.cache_hits, 4);
        assert_eq!(rep.hit_subproblems, 0, "cache hits must skip plan search entirely");
        assert!(rep.total_subproblems > 0);
        assert!(rep.p50_latency_epochs >= 1);
        assert!(rep.p99_latency_epochs >= rep.p50_latency_epochs);
        assert!(rep.amortized_sensing_uj_per_query > 0.0);
    }

    #[test]
    fn shared_service_beats_independent_runs_when_queries_overlap() {
        let (schema, data, q1, q2) = setup();
        let schedule = vec![
            ScheduleEntry::new(q1.clone(), 0, 32),
            ScheduleEntry::new(q2.clone(), 0, 32),
            ScheduleEntry::new(q1, 8, 24),
        ];
        let model = EnergyModel::mica_like();
        let cfg = ServeConfig::default();
        let rep = serve_schedule(
            &schema,
            &data,
            &data,
            &schedule,
            2,
            &model,
            32,
            ExecMode::Scalar,
            cfg.clone(),
            &Recorder::disabled(),
        )
        .unwrap();
        let independent =
            independent_schedule_energy(&schema, &data, &data, &schedule, 2, &model, 32, &cfg)
                .unwrap();
        assert!(
            rep.shared_total_uj < independent,
            "shared {} !< independent {independent}",
            rep.shared_total_uj
        );
        assert!(rep.service.all_correct());
    }

    #[test]
    fn drift_bumps_the_stats_epoch_and_clears_the_cache() {
        let (schema, data, q1, _) = setup();
        // Plan against history where pred0 holds ~half the time, then
        // run on a trace where attribute `a` is constant 0 — pred0
        // never holds, which is far past the default 0.15 threshold.
        let drifted_rows: Vec<Vec<u16>> = (0..200u16).map(|i| vec![0, i % 2, i % 2]).collect();
        let drifted = Dataset::from_rows(&schema, drifted_rows).unwrap();
        let schedule =
            vec![ScheduleEntry::new(q1.clone(), 0, 40), ScheduleEntry::new(q1.clone(), 45, 40)];
        let rep = serve_schedule(
            &schema,
            &data,
            &drifted,
            &schedule,
            2,
            &EnergyModel::mica_like(),
            90,
            ExecMode::Scalar,
            ServeConfig::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        // Each completion observes the drifted trace and invalidates
        // the one cached plan of its era; the second admission then
        // re-plans (a miss) rather than hitting the stale entry.
        assert_eq!(rep.cache_invalidations, 2);
        assert_eq!(rep.cache_misses, 2);
        assert_eq!(rep.cache_hits, 0);
    }

    /// Two queries sharing a 64-bit signature must never share a cache
    /// slot: plant query A's cached plan and monitor under query B's
    /// signature, as a collision would leave them.
    #[test]
    fn a_signature_collision_is_planned_fresh_not_aliased() {
        let (schema, data, q1, q2) = setup();
        let bs = Basestation::new(schema.clone(), &data);
        let mut service = Service::new(bs, ServeConfig::default()).unwrap();
        assert!(!service.plan_admitted(&q1, 0).unwrap().cache_hit);
        let (sig1, sig2) = (q1.signature(), q2.signature());
        let entry = service.cache.remove(&(sig1, 0)).unwrap();
        service.cache.insert((sig2, 0), entry);
        let monitor = service.monitors.remove(&sig1).unwrap();
        service.monitors.insert(sig2, monitor);

        for _ in 0..2 {
            let admitted = service.plan_admitted(&q2, 0).unwrap();
            assert!(!admitted.cache_hit, "another query's plan was handed out");
            acqp_verify::verify_wire(&admitted.planned.wire, &q2, &schema).unwrap();
        }
        // The colliding query took over neither slot.
        assert_eq!(service.cached_plans(), 1);
        assert_eq!(service.cache[&(sig2, 0)].0, q1);
        assert_eq!(service.monitors[&sig2].0, q1);
        // Its completions never feed the other query's monitor, even
        // with counts that would trip any drift threshold.
        let before = format!("{:?}", service.monitors[&sig2].1);
        assert_eq!(service.query_completed(&q2, 10, &[(1000, 0), (1000, 0)]), 0);
        assert_eq!(format!("{:?}", service.monitors[&sig2].1), before);
        assert_eq!(service.stats_epoch, 0);
    }

    #[test]
    fn service_validates_its_configuration() {
        let (schema, data, _, _) = setup();
        let bs = Basestation::new(schema.clone(), &data);
        let bad_drift = ServeConfig {
            drift: DriftConfig { threshold: 0.0, min_samples: 1 },
            ..ServeConfig::default()
        };
        assert!(Service::new(bs, bad_drift).is_err());
        let bs = Basestation::new(schema, &data);
        let no_candidates = ServeConfig { candidate_splits: vec![], ..ServeConfig::default() };
        assert!(Service::new(bs, no_candidates).is_err());
    }
}
