//! Fault-tolerant serving properties (`DESIGN.md` §14.5).
//!
//! Four guarantees are pinned:
//!
//! 1. **Transparency** — a zero-rate fault seed plus `collect_rows`,
//!    with no crashes and a no-op policy, leaves every count and ledger
//!    of a default run *bitwise* unchanged.
//! 2. **Reproducibility** — a lossy serve run is a pure function of its
//!    fault seed: same seed, same schedule ⇒ identical outcomes, rows
//!    and energy to the bit.
//! 3. **Deterministic degradation** — shed/timeout decisions replay
//!    identically, shedding respects schedule-order fairness, and a
//!    deadline-degraded query's rows are a prefix of the complete
//!    run's rows.
//! 4. **Crash recovery** — a mid-schedule basestation crash recovers
//!    the plan cache and live queries from checkpoint + WAL without a
//!    cold start, and the run still completes.

// Bitwise f64 equality is the entire point of this suite.
#![allow(clippy::float_cmp)]

use std::path::PathBuf;
use std::sync::Arc;

use acqp::core::exec::ExecMode;
use acqp::core::prelude::*;
use acqp::obs::{NoopSink, Recorder};
use acqp::persist::ServeCheckpoint;
use acqp::sensornet::{
    CrashConfig, EnergyLedger, EnergyModel, FaultModel, ScheduleEntry, ServicePolicy,
};
use acqp::serve::{serve_schedule, ServeConfig, ServeReport};
use proptest::prelude::*;

mod common;
use common::{instance_strategy, Instance};

/// Honors a `PROPTEST_CASES` override, so a slow build can run fewer cases.
fn cases(default_n: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acqp_ws_serve_faults").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_ledgers_bitwise(a: &EnergyLedger, b: &EnergyLedger, ctx: &str) {
    assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits(), "{ctx}: sensing_uj");
    assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits(), "{ctx}: board_uj");
    assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits(), "{ctx}: radio_tx_uj");
    assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits(), "{ctx}: radio_rx_uj");
}

fn serve_instance(inst: &Instance, schedule: &[ScheduleEntry], cfg: ServeConfig) -> ServeReport {
    serve_schedule(
        &inst.schema,
        &inst.data,
        &inst.data,
        schedule,
        2,
        &EnergyModel::mica_like(),
        inst.data.len(),
        ExecMode::Scalar,
        cfg,
        &Recorder::disabled(),
    )
    .expect("service run on a well-formed instance")
}

/// Staggered two-signature schedule over the whole instance trace.
fn staggered_schedule(inst: &Instance) -> Vec<ScheduleEntry> {
    let epochs = inst.data.len();
    let sub = Query::new(vec![inst.query.pred(0)]).expect("one checked predicate");
    vec![
        ScheduleEntry::new(inst.query.clone(), 0, epochs),
        ScheduleEntry::new(sub, epochs / 3, epochs),
        ScheduleEntry::new(inst.query.clone(), epochs / 2, epochs / 2),
    ]
}

/// A fixed instance with a cheap always-flipping attribute so deadline
/// windows always contain results, plus two expensive attributes.
fn small_instance() -> (Schema, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 4, 80.0),
        Attribute::new("b", 4, 60.0),
        Attribute::new("t", 2, 1.0),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> = (0..120u16).map(|i| vec![(i / 5) % 4, (i / 7) % 4, i % 2]).collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 1, 2), Pred::in_range(2, 1, 1)]).unwrap();
    (schema, data, query)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(16), ..ProptestConfig::default() })]

    /// A zero-rate fault model with its own seed, plus `collect_rows`,
    /// changes nothing: with no crashes and a no-op policy every count
    /// and every ledger matches the default run bitwise.
    #[test]
    fn robust_engine_at_loss_zero_is_bitwise_transparent(inst in instance_strategy()) {
        let schedule = staggered_schedule(&inst);
        let base = serve_instance(&inst, &schedule, ServeConfig::default());
        let robust = serve_instance(
            &inst,
            &schedule,
            ServeConfig {
                faults: FaultModel { seed: 99, ..FaultModel::none() },
                collect_rows: true,
                ..ServeConfig::default()
            },
        );
        prop_assert_eq!(base.service.tuples(), robust.service.tuples());
        prop_assert_eq!(base.service.results(), robust.service.results());
        prop_assert!(robust.service.all_correct());
        assert_ledgers_bitwise(&base.service.network, &robust.service.network, "network");
        for (i, (a, b)) in base.service.per_mote.iter().zip(&robust.service.per_mote).enumerate() {
            assert_ledgers_bitwise(a, b, &format!("mote {i}"));
        }
        prop_assert_eq!(
            base.service.bs_tx_uj.to_bits(),
            robust.service.bs_tx_uj.to_bits(),
            "dissemination energy"
        );
        for (i, (a, b)) in base.service.queries.iter().zip(&robust.service.queries).enumerate() {
            prop_assert_eq!(a.tuples, b.tuples, "q{}: tuples", i);
            prop_assert_eq!(a.results, b.results, "q{}: results", i);
            prop_assert_eq!(a.cache_hit, b.cache_hit, "q{}: cache_hit", i);
            prop_assert_eq!(a.completed_at, b.completed_at, "q{}: completed_at", i);
            prop_assert_eq!(a.status, b.status, "q{}: status", i);
            // Rows are collected only on request, and every delivered
            // result is accounted for at loss 0.
            prop_assert_eq!(b.rows.len(), b.results, "q{}: rows", i);
        }
        // The robust report records nothing degraded.
        let rob = robust.service.robustness.as_ref().expect("every run reports robustness");
        prop_assert_eq!(rob.lost_results, 0);
        prop_assert_eq!(rob.aborted_tuples, 0);
        prop_assert_eq!(rob.shed + rob.timed_out, 0);
        prop_assert_eq!(rob.crashes, 0);
    }

    /// A lossy serve run with sensing failures is bitwise reproducible
    /// for a fixed fault seed.
    #[test]
    fn lossy_serve_is_reproducible_for_a_fixed_seed(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let schedule = staggered_schedule(&inst);
        let cfg = || ServeConfig {
            faults: FaultModel { sensing_fail_rate: 0.05, ..FaultModel::lossy(seed, 0.25) },
            collect_rows: true,
            ..ServeConfig::default()
        };
        let a = serve_instance(&inst, &schedule, cfg());
        let b = serve_instance(&inst, &schedule, cfg());
        assert_ledgers_bitwise(&a.service.network, &b.service.network, "network");
        for (i, (x, y)) in a.service.per_mote.iter().zip(&b.service.per_mote).enumerate() {
            assert_ledgers_bitwise(x, y, &format!("mote {i}"));
        }
        prop_assert_eq!(a.service.bs_tx_uj.to_bits(), b.service.bs_tx_uj.to_bits());
        for (i, (x, y)) in a.service.queries.iter().zip(&b.service.queries).enumerate() {
            prop_assert_eq!(x.results, y.results, "q{}: results", i);
            prop_assert_eq!(x.status, y.status, "q{}: status", i);
            prop_assert_eq!(&x.rows, &y.rows, "q{}: delivered rows", i);
        }
        let ra = a.service.robustness.as_ref().unwrap();
        let rb = b.service.robustness.as_ref().unwrap();
        prop_assert_eq!(ra.delivered_results, rb.delivered_results);
        prop_assert_eq!(ra.lost_results, rb.lost_results);
        prop_assert_eq!(ra.aborted_tuples, rb.aborted_tuples);
        prop_assert_eq!(ra.offline_epochs, rb.offline_epochs);
    }
}

/// Same schedule + same seed ⇒ the exact same shed/timeout decisions,
/// and shedding respects schedule-order fairness: an entry is only ever
/// shed after exhausting its queue wait, and entries of the same
/// signature admitted earlier are never shed in favor of later ones.
#[test]
fn shed_and_timeout_decisions_replay_deterministically() {
    let (schema, data, query) = small_instance();
    let epochs = data.len();
    let cheap = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
    let schedule = vec![
        ScheduleEntry::new(query.clone(), 0, 24),
        ScheduleEntry::new(query.clone(), 0, 24),
        ScheduleEntry::new(cheap.clone(), 2, 20).with_deadline(6),
        ScheduleEntry::new(query.clone(), 4, 24),
        ScheduleEntry::new(query, 6, 12).with_deadline(4),
        ScheduleEntry::new(cheap, 8, 16),
    ];
    let run = || {
        serve_schedule(
            &schema,
            &data,
            &data,
            &schedule,
            3,
            &EnergyModel::mica_like(),
            epochs,
            ExecMode::Scalar,
            ServeConfig {
                policy: ServicePolicy {
                    epoch_cost_budget: Some(150.0),
                    max_queue_epochs: 4,
                    fair_share: 1,
                    ..ServicePolicy::default()
                },
                collect_rows: true,
                ..ServeConfig::default()
            },
            &Recorder::disabled(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.service.queries.len(), b.service.queries.len());
    for (i, (x, y)) in a.service.queries.iter().zip(&b.service.queries).enumerate() {
        assert_eq!(x.status, y.status, "q{i}: status");
        assert_eq!(x.shed_at, y.shed_at, "q{i}: shed epoch");
        assert_eq!(x.admit, y.admit, "q{i}: admit epoch");
        assert_eq!(x.completed_at, y.completed_at, "q{i}: completed_at");
        assert_eq!(x.rows, y.rows, "q{i}: rows");
    }
    // The overloaded budget must actually defer work, and anything shed
    // waited out its full queue allowance first.
    let rob = a.service.robustness.as_ref().expect("every run reports robustness");
    assert!(rob.budget_deferrals > 0, "budget never binds: {rob:?}");
    assert!(
        a.service.queries.iter().any(|q| q.status != QueryStatus::Complete),
        "scenario must actually degrade at least one query: {:?}",
        a.service.queries.iter().map(|q| q.status).collect::<Vec<_>>()
    );
    for (i, q) in a.service.queries.iter().enumerate() {
        if let Some(at) = q.shed_at {
            assert_eq!(q.status, QueryStatus::Shed, "q{i}");
            assert!(
                at >= schedule[i].admit + 4,
                "q{i} shed at {at} before its max_queue_epochs expired"
            );
        }
    }
    // Fairness: among same-signature entries, admission order follows
    // schedule order — a later entry never starts before an earlier one.
    for i in 0..schedule.len() {
        for j in (i + 1)..schedule.len() {
            let (qi, qj) = (&a.service.queries[i], &a.service.queries[j]);
            if schedule[i].query == schedule[j].query
                && qi.shed_at.is_none()
                && qj.shed_at.is_none()
            {
                assert!(
                    qi.admit <= qj.admit,
                    "schedule order violated: q{i} admitted {} after q{j} at {}",
                    qi.admit,
                    qj.admit
                );
            }
        }
    }
}

/// A deadline that cuts a query short degrades it to a partial result
/// whose delivered rows are an exact prefix of the complete run's.
#[test]
fn deadline_partial_rows_are_a_prefix_of_the_complete_run() {
    let (schema, data, _) = small_instance();
    let epochs = 40;
    let query = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
    let run = |sched: Vec<ScheduleEntry>| {
        serve_schedule(
            &schema,
            &data,
            &data,
            &sched,
            3,
            &EnergyModel::mica_like(),
            epochs,
            ExecMode::Scalar,
            ServeConfig { collect_rows: true, ..ServeConfig::default() },
            &Recorder::disabled(),
        )
        .unwrap()
    };
    let full = run(vec![ScheduleEntry::new(query.clone(), 0, 30)]);
    let cut = run(vec![ScheduleEntry::new(query, 0, 30).with_deadline(7)]);
    let f = &full.service.queries[0];
    let t = &cut.service.queries[0];
    assert_eq!(f.status, QueryStatus::Complete);
    assert_eq!(t.status, QueryStatus::TimedOut);
    assert_eq!(t.completed_at, 7, "deadline cuts the window");
    assert!(!t.rows.is_empty() && t.rows.len() < f.rows.len());
    assert_eq!(&f.rows[..t.rows.len()], &t.rows[..], "partial rows must be a prefix");
    assert!(t.rows.iter().all(|&(e, _)| e < 7));
    assert_eq!(cut.timed_out, 1);
    assert_eq!(full.timed_out, 0);
}

/// A mid-schedule basestation crash with checkpointing on recovers the
/// serve state from checkpoint + WAL — no cold start — and the
/// schedule still runs to completion with correct verdicts.
#[test]
fn mid_schedule_crash_recovers_from_checkpoint_without_cold_start() {
    let dir = tmp("mid_schedule");
    let (schema, data, query) = small_instance();
    let epochs = data.len();
    let cheap = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
    let schedule = vec![
        ScheduleEntry::new(query.clone(), 0, epochs),
        ScheduleEntry::new(cheap, 10, 60),
        ScheduleEntry::new(query, 30, 40),
    ];
    let rep = serve_schedule(
        &schema,
        &data,
        &data,
        &schedule,
        3,
        &EnergyModel::mica_like(),
        epochs,
        ExecMode::Scalar,
        ServeConfig {
            crash: CrashConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 8,
                crash_epochs: vec![20],
                crash_rate: 0.0,
            },
            ..ServeConfig::default()
        },
        &Recorder::disabled(),
    )
    .unwrap();
    let rob = rep.service.robustness.as_ref().expect("every run reports robustness");
    assert_eq!(rob.crashes, 1);
    assert_eq!(rob.cold_starts, 0, "a written checkpoint must be found on recovery");
    assert_eq!(rob.corrupt_snapshots, 0);
    assert!(rob.checkpoints_written >= 2, "cadence 8 over {epochs} epochs: {rob:?}");
    assert!(rob.wal_replayed > 0, "the off-cadence crash must replay a WAL tail");
    assert!(rob.recovery_rediss_uj > 0.0, "re-dissemination must be charged");
    assert!(rep.service.all_correct(), "recovered run must still verify");
    for (i, q) in rep.service.queries.iter().enumerate() {
        assert!(q.admitted, "q{i} must be admitted");
        assert_eq!(q.status, QueryStatus::Complete, "q{i} must complete after recovery");
    }
    // Determinism across the crash boundary: the same crashy run
    // replays bitwise when repeated in a fresh directory.
    let dir2 = tmp("mid_schedule_again");
    let rep2 = serve_schedule(
        &schema,
        &data,
        &data,
        &schedule,
        3,
        &EnergyModel::mica_like(),
        epochs,
        ExecMode::Scalar,
        ServeConfig {
            crash: CrashConfig {
                checkpoint_dir: Some(dir2.clone()),
                checkpoint_every: 8,
                crash_epochs: vec![20],
                crash_rate: 0.0,
            },
            ..ServeConfig::default()
        },
        &Recorder::disabled(),
    )
    .unwrap();
    assert_ledgers_bitwise(&rep.service.network, &rep2.service.network, "crashy replay");
    assert_eq!(
        rep.service.bs_tx_uj.to_bits(),
        rep2.service.bs_tx_uj.to_bits(),
        "dissemination energy incl. recovery must replay bitwise"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

/// A checkpointed plan whose wire bytes rot on disk *under* the
/// checksum (re-sealed, so the snapshot itself validates) must be
/// demoted on recovery — dropped from the restored plan cache and
/// counted in `verify.recovery.demoted` — and the service re-plans the
/// query instead of disseminating the corrupt bytes. The run still
/// completes with correct verdicts.
#[test]
fn corrupted_checkpoint_plan_is_demoted_to_replan() {
    let dir = tmp("demote");
    let (schema, data, query) = small_instance();
    let epochs = data.len();
    let schedule = vec![ScheduleEntry::new(query.clone(), 0, epochs)];
    let run = |crash: CrashConfig, rec: &Recorder| {
        serve_schedule(
            &schema,
            &data,
            &data,
            &schedule,
            3,
            &EnergyModel::mica_like(),
            epochs,
            ExecMode::Scalar,
            ServeConfig { crash, ..ServeConfig::default() },
            rec,
        )
        .unwrap()
    };

    // Run 1: no crashes, checkpoints on cadence — leaves snapshots with
    // a populated plan cache on disk.
    let first = run(
        CrashConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 8,
            crash_epochs: vec![],
            crash_rate: 0.0,
        },
        &Recorder::disabled(),
    );
    assert!(
        first.service.robustness.as_ref().unwrap().checkpoints_written > 0,
        "run 1 must leave snapshots behind"
    );

    // Keep only the oldest snapshot (an epoch the next run's crash will
    // be past), drop the WAL, and rot the plan bytes inside it. The
    // record is re-encoded, so the file-level checksum is *valid* — the
    // corruption is visible to the plan verifier alone.
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("snap-"))
        .collect();
    snaps.sort();
    assert!(!snaps.is_empty());
    let keep = snaps.remove(0);
    for p in snaps {
        std::fs::remove_file(p).unwrap();
    }
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p != keep {
            std::fs::remove_file(p).unwrap();
        }
    }
    let mut cp = ServeCheckpoint::from_file_bytes(&std::fs::read(&keep).unwrap()).unwrap();
    assert!(!cp.plans.is_empty(), "checkpoint must carry a plan cache");
    let tampered = cp.plans.len();
    for p in cp.plans.iter_mut() {
        // Clobber the root tag: structurally garbage, caught by the
        // verifier's first pass.
        p.plan.wire[0] = 0x42;
    }
    std::fs::write(&keep, cp.to_file_bytes()).unwrap();
    assert!(
        ServeCheckpoint::from_file_bytes(&std::fs::read(&keep).unwrap()).is_ok(),
        "tampered snapshot must still pass the checksum layer"
    );

    // Run 2: crash past the kept snapshot's epoch. Recovery reads the
    // re-sealed snapshot, verification rejects every rotted plan, and
    // the policy re-plans on demand.
    let rec = Recorder::new(Arc::new(NoopSink));
    let second = run(
        CrashConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 0,
            crash_epochs: vec![10],
            crash_rate: 0.0,
        },
        &rec,
    );
    let rob = second.service.robustness.as_ref().unwrap();
    assert_eq!(rob.crashes, 1);
    assert_eq!(rob.cold_starts, 0, "the tampered snapshot must be accepted by the store");
    let snap = rec.drain();
    assert_eq!(
        snap.counter("verify.recovery.demoted"),
        tampered as u64,
        "every rotted plan must be demoted: {:?}",
        snap.counters
    );
    assert!(snap.counter("verify.rejected") >= tampered as u64);
    // Demotion means replan, not failure: the query survives the crash
    // and completes with correct verdicts.
    assert!(second.service.all_correct());
    for (i, q) in second.service.queries.iter().enumerate() {
        assert!(q.admitted, "q{i} must be admitted");
        assert_eq!(q.status, QueryStatus::Complete, "q{i} must complete after demotion");
    }

    // Control: the same crash against untampered snapshots demotes
    // nothing — demotion is caused by the corruption, not by recovery.
    let dir2 = tmp("demote_control");
    let rec2 = Recorder::new(Arc::new(NoopSink));
    run(
        CrashConfig {
            checkpoint_dir: Some(dir2.clone()),
            checkpoint_every: 8,
            crash_epochs: vec![],
            crash_rate: 0.0,
        },
        &Recorder::disabled(),
    );
    run(
        CrashConfig {
            checkpoint_dir: Some(dir2.clone()),
            checkpoint_every: 0,
            crash_epochs: vec![10],
            crash_rate: 0.0,
        },
        &rec2,
    );
    let snap2 = rec2.drain();
    assert_eq!(snap2.counter("verify.recovery.demoted"), 0, "{:?}", snap2.counters);
    assert!(snap2.counter("verify.checked") > 0, "recovery must have verified plans");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}
