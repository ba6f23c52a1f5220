//! Fault-tolerant serving gates (`DESIGN.md` §14.5): the robust
//! service engine under overload, drift-under-loss, and crashes.
//!
//! Three scenarios, all deterministic under fixed seeds:
//!
//! * **overload** (gated) — admissions arrive faster than the per-epoch
//!   cost budget can carry. Gates: the shed fraction stays bounded
//!   (≤ 50%), every distinct signature still completes at least once
//!   (the fairness counter keeps the hot signature from starving the
//!   tail), and a rerun replays the exact same shed set.
//! * **drift_loss** (gated) — the `fault_sweep` marginal-shift regime
//!   driven through the service: training marginals reversed on the
//!   live trace, lossy links, windowed re-admissions of one query.
//!   The adaptive planner re-plans onto fresh statistics when its
//!   drift monitor fires (and `readmit_on_drift` re-plans in-flight
//!   queries); the stale planner never does. Gate: adaptive mote-side
//!   sensing energy strictly below stale at every nonzero loss rate.
//! * **crash** (gated) — a mid-schedule basestation crash with
//!   checkpointing on. Gate: recovery restores the serve state from
//!   checkpoint + WAL (no cold start) and the schedule completes.
//!
//! `BENCH_serve_faults.json` carries every reported field.

use std::collections::BTreeMap;

use acqp_core::prelude::*;
use acqp_core::{DriftConfig, Error};
use acqp_obs::Recorder;
use acqp_sensornet::service::{AdmittedPlan, ServePlanner, ServiceOptions};
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{
    run_service_with, Basestation, CrashConfig, EnergyModel, FaultModel, PlannedQuery,
    ScheduleEntry, ServicePolicy,
};
use acqp_serve::{serve_schedule, ServeConfig};

const FAULT_SEED: u64 = 0x5eed;

/// The marginal-shift scenario from `fault_sweep`: history has pred-`a`
/// passing 90% and pred-`b` 10% (the planner fronts `b`), the live
/// trace reverses the two, so the stale plan acquires both expensive
/// sensors almost every epoch.
fn drift_scenario(epochs: usize) -> (Schema, Dataset, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 2, 100.0),
        Attribute::new("b", 2, 100.0),
        Attribute::new("t", 2, 1.0),
    ])
    .unwrap();
    let hist_rows: Vec<Vec<u16>> =
        (0..400u16).map(|i| vec![u16::from(i % 10 != 0), u16::from(i % 10 == 0), i % 2]).collect();
    // `i % 20 == 13` rows pass both predicates, so the run produces a
    // thin stream of results for the loss model to act on.
    let live_rows: Vec<Vec<u16>> = (0..epochs as u16)
        .map(|i| vec![u16::from(i % 10 == 0 || i % 20 == 13), u16::from(i % 10 != 0), i % 2])
        .collect();
    let hist = Dataset::from_rows(&schema, hist_rows).unwrap();
    let live = Dataset::from_rows(&schema, live_rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
    (schema, hist, live, query)
}

/// A caching planner over two statistics sources: `stale` (training
/// history) and, once its drift monitor fires, `fresh` (live-trace
/// statistics — what a basestation's live sample window converges to).
/// With `adaptive` off it is the stale baseline: drift never fires and
/// every plan comes from training statistics.
struct SweepPlanner<'h> {
    stale: Basestation<'h>,
    fresh: Basestation<'h>,
    drift: DriftConfig,
    cache: BTreeMap<(u64, u64), PlannedQuery>,
    monitors: BTreeMap<u64, DriftMonitor>,
    stats_epoch: u64,
    adaptive: bool,
}

impl<'h> SweepPlanner<'h> {
    fn new(stale: Basestation<'h>, fresh: Basestation<'h>, adaptive: bool) -> Self {
        SweepPlanner {
            stale,
            fresh,
            drift: DriftConfig { threshold: 0.2, min_samples: 16 },
            cache: BTreeMap::new(),
            monitors: BTreeMap::new(),
            stats_epoch: 0,
            adaptive,
        }
    }

    fn bs(&self) -> &Basestation<'h> {
        if self.stats_epoch > 0 {
            &self.fresh
        } else {
            &self.stale
        }
    }
}

impl ServePlanner for SweepPlanner<'_> {
    fn plan_admitted(&mut self, query: &Query, _epoch: usize) -> Result<AdmittedPlan> {
        let sig = query.signature();
        if let Some(planned) = self.cache.get(&(sig, self.stats_epoch)) {
            return Ok(AdmittedPlan { planned: planned.clone(), cache_hit: true, subproblems: 0 });
        }
        let (_, planned, subproblems) = self.bs().plan_query_sized_reported(query, 0.0, &[4])?;
        self.cache.insert((sig, self.stats_epoch), planned.clone());
        if !self.monitors.contains_key(&sig) {
            let monitor = DriftMonitor::new(self.bs().estimated_selectivities(query), self.drift)?;
            self.monitors.insert(sig, monitor);
        }
        Ok(AdmittedPlan { planned, cache_hit: false, subproblems })
    }

    fn query_completed(&mut self, query: &Query, _epoch: usize, pred_counts: &[(u64, u64)]) -> u64 {
        if !self.adaptive {
            return 0;
        }
        let sig = query.signature();
        let Some(monitor) = self.monitors.get_mut(&sig) else { return 0 };
        for (j, &(evaluated, passed)) in pred_counts.iter().enumerate() {
            if j < monitor.len() && evaluated > 0 && passed <= evaluated {
                monitor.observe_counts(j, evaluated, passed);
            }
        }
        if !monitor.drifted() || self.stats_epoch > 0 {
            return 0;
        }
        let invalidated = self.cache.len() as u64;
        self.cache.clear();
        self.stats_epoch += 1;
        let sels = self.fresh.estimated_selectivities(query);
        self.monitors.get_mut(&sig).expect("armed above").reset(sels);
        invalidated
    }

    fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }
}

fn drift_loss_point(loss: f64, adaptive: bool) -> (f64, f64, usize, u64) {
    const EPOCHS: usize = 400;
    let (schema, hist, live, query) = drift_scenario(EPOCHS);
    // Two staggered series of windowed re-admissions: every completion
    // feeds the drift monitor, every admission re-reads the (possibly
    // invalidated) plan cache, and the 8-epoch offset keeps one window
    // in flight whenever drift fires — the `readmit_on_drift` path.
    let mut schedule = Vec::new();
    for i in 0..EPOCHS / 16 {
        schedule.push(ScheduleEntry::new(query.clone(), i * 16, 16));
        schedule.push(ScheduleEntry::new(query.clone(), i * 16 + 8, 16));
    }
    let stale_bs = Basestation::new(schema.clone(), &hist);
    let fresh_bs = Basestation::new(schema.clone(), &live);
    let mut planner = SweepPlanner::new(stale_bs, fresh_bs, adaptive);
    let mut fleet = fleet_from_trace(&live, 4);
    let opts = ServiceOptions {
        faults: FaultModel::lossy(FAULT_SEED, loss),
        policy: ServicePolicy { readmit_on_drift: adaptive, ..ServicePolicy::default() },
        ..ServiceOptions::default()
    };
    let rep = run_service_with(
        &schema,
        &schedule,
        &mut planner,
        &mut fleet,
        &EnergyModel::mica_like(),
        EPOCHS,
        ExecMode::Scalar,
        &Recorder::disabled(),
        &opts,
    )
    .expect("drift-loss service run");
    assert!(rep.all_correct(), "verdicts diverged at loss {loss} (adaptive {adaptive})");
    let rob = rep.robustness.as_ref().expect("every run reports robustness");
    (rep.network.sensing_uj, rep.network.total_uj(), rob.delivered_results, rob.readmissions)
}

fn drift_loss_scenario(fields: &mut Vec<(String, f64)>) {
    println!(
        "\n{:<6} {:>16} {:>16} {:>12} {:>10}",
        "loss", "stale uJ sense", "adapt uJ sense", "adapt deliv", "readmits"
    );
    let mut gate = true;
    let mut readmitted = false;
    for &loss in &[0.05, 0.10, 0.20] {
        let (stale_uj, stale_total, stale_deliv, _) = drift_loss_point(loss, false);
        let (adapt_uj, adapt_total, adapt_deliv, readmits) = drift_loss_point(loss, true);
        println!("{loss:<6.2} {stale_uj:>16.0} {adapt_uj:>16.0} {adapt_deliv:>12} {readmits:>10}");
        let tag = format!("drift.loss_{loss:.2}");
        fields.push((format!("{tag}.stale.sensing_uj"), stale_uj));
        fields.push((format!("{tag}.adaptive.sensing_uj"), adapt_uj));
        fields.push((format!("{tag}.stale.total_uj"), stale_total));
        fields.push((format!("{tag}.adaptive.total_uj"), adapt_total));
        fields.push((format!("{tag}.stale.delivered"), stale_deliv as f64));
        fields.push((format!("{tag}.adaptive.delivered"), adapt_deliv as f64));
        fields.push((format!("{tag}.adaptive.readmissions"), readmits as f64));
        gate &= adapt_uj < stale_uj;
        readmitted |= readmits > 0;
    }
    assert!(
        gate,
        "adaptive serve sensing energy must be strictly below the stale-plan serve \
         at every nonzero loss rate"
    );
    assert!(readmitted, "drift must re-plan at least one in-flight query");
    fields.push(("adaptive_energy_gate_pass".into(), 1.0));
}

/// Overload: one expensive hot signature fired every two epochs against
/// a budget that carries roughly one live instance, interleaved with a
/// cheap tail signature the fairness counter must keep alive.
fn overload_scenario(fields: &mut Vec<(String, f64)>) {
    const EPOCHS: usize = 200;
    let (schema, hist, live, hot) = drift_scenario(EPOCHS);
    let tail = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
    let mut schedule = Vec::new();
    for i in 0..40 {
        schedule.push(ScheduleEntry::new(hot.clone(), i * 4, 10));
        if i % 4 == 0 {
            schedule.push(ScheduleEntry::new(tail.clone(), i * 4 + 1, 10));
        }
    }
    let run = || {
        serve_schedule(
            &schema,
            &hist,
            &live,
            &schedule,
            4,
            &EnergyModel::mica_like(),
            EPOCHS,
            ExecMode::Scalar,
            ServeConfig {
                policy: ServicePolicy {
                    epoch_cost_budget: Some(130.0),
                    max_queue_epochs: 6,
                    fair_share: 1,
                    ..ServicePolicy::default()
                },
                ..ServeConfig::default()
            },
            &Recorder::disabled(),
        )
        .expect("overload service run")
    };
    let rep = run();
    let rerun = run();

    let scheduled = schedule.len();
    let shed_frac = rep.shed as f64 / scheduled as f64;
    let rob = rep.service.robustness.as_ref().expect("every run reports robustness");
    assert!(rep.shed > 0, "the overload scenario must actually shed");
    assert!(
        shed_frac <= 0.5,
        "shed fraction must stay bounded: {}/{scheduled} = {shed_frac:.2}",
        rep.shed
    );
    for (name, query) in [("hot", &hot), ("tail", &tail)] {
        let done = rep
            .service
            .queries
            .iter()
            .zip(&schedule)
            .filter(|(q, s)| &s.query == query && q.status == QueryStatus::Complete)
            .count();
        assert!(done > 0, "{name} signature starved: zero completions");
        fields.push((format!("overload.{name}.completed"), done as f64));
    }
    // Deterministic shedding: the rerun replays the exact outcome set.
    for (i, (a, b)) in rep.service.queries.iter().zip(&rerun.service.queries).enumerate() {
        assert_eq!(a.status, b.status, "q{i}: shed decisions must replay");
        assert_eq!(a.shed_at, b.shed_at, "q{i}: shed epoch must replay");
    }

    println!(
        "overload   {scheduled} admissions, budget 130 uJ/epoch: {} shed ({:.0}%), \
         {} deferrals ({} fairness), all signatures served",
        rep.shed,
        100.0 * shed_frac,
        rob.budget_deferrals,
        rob.fairness_deferrals
    );
    fields.push(("overload.scheduled".into(), scheduled as f64));
    fields.push(("overload.shed".into(), rep.shed as f64));
    fields.push(("overload.shed_fraction".into(), shed_frac));
    fields.push(("overload.budget_deferrals".into(), rob.budget_deferrals as f64));
    fields.push(("overload.fairness_deferrals".into(), rob.fairness_deferrals as f64));
    fields.push(("shed_fairness_gate_pass".into(), 1.0));
}

/// Mid-schedule crash: checkpoint + WAL recovery must avoid a cold
/// start and the schedule must still complete with correct verdicts.
fn crash_scenario(fields: &mut Vec<(String, f64)>) {
    const EPOCHS: usize = 120;
    let (schema, hist, live, query) = drift_scenario(EPOCHS);
    let tail = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
    let schedule = vec![
        ScheduleEntry::new(query.clone(), 0, EPOCHS),
        ScheduleEntry::new(tail, 10, 60),
        ScheduleEntry::new(query, 30, 40),
    ];
    let dir = std::env::temp_dir().join("acqp_bench_serve_faults_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    let rep = serve_schedule(
        &schema,
        &hist,
        &live,
        &schedule,
        4,
        &EnergyModel::mica_like(),
        EPOCHS,
        ExecMode::Scalar,
        ServeConfig {
            crash: CrashConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 8,
                // Off the checkpoint cadence, so recovery must replay a
                // WAL tail on top of the snapshot.
                crash_epochs: vec![43],
                crash_rate: 0.0,
            },
            ..ServeConfig::default()
        },
        &Recorder::disabled(),
    )
    .expect("crashy service run");
    std::fs::remove_dir_all(&dir).ok();

    let rob = rep.service.robustness.as_ref().expect("every run reports robustness");
    assert_eq!(rob.crashes, 1, "exactly one crash is scheduled");
    assert_eq!(rob.cold_starts, 0, "recovery must restore from checkpoint + WAL");
    assert!(rob.checkpoints_written >= 2);
    assert!(rob.wal_replayed > 0, "an off-cadence crash must replay a WAL tail");
    assert!(rob.recovery_rediss_uj > 0.0, "re-dissemination must be charged");
    assert!(rep.service.all_correct(), "recovered run must still verify");
    let complete = rep.service.queries.iter().all(|q| q.status == QueryStatus::Complete);
    assert!(complete, "every scheduled query must complete across the crash");

    println!(
        "crash      1 injected at epoch 43: {} checkpoints, {} WAL records replayed, \
         0 cold starts, re-dissemination {:.0} uJ",
        rob.checkpoints_written, rob.wal_replayed, rob.recovery_rediss_uj
    );
    fields.push(("crash.crashes".into(), rob.crashes as f64));
    fields.push(("crash.cold_starts".into(), rob.cold_starts as f64));
    fields.push(("crash.checkpoints_written".into(), rob.checkpoints_written as f64));
    fields.push(("crash.wal_replayed".into(), rob.wal_replayed as f64));
    fields.push(("crash.recovery_rediss_uj".into(), rob.recovery_rediss_uj));
    fields.push(("crash_recovery_gate_pass".into(), 1.0));
}

fn main() -> std::result::Result<(), Error> {
    println!("=== Fault-tolerant serving: overload, drift under loss, crashes ===");
    let mut fields = Vec::new();
    overload_scenario(&mut fields);
    drift_loss_scenario(&mut fields);
    crash_scenario(&mut fields);
    println!(
        "\nserve fault gates clear: bounded fair shedding, adaptive < stale energy \
         under loss, crash recovery without cold start"
    );
    acqp_bench::report::emit_bench_json("serve_faults", &fields);
    Ok(())
}
