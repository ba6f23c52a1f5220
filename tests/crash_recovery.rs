//! Workspace crash-recovery properties: journaling is transparent when
//! nothing crashes, a checkpoint + WAL round trip reproduces the
//! basestation's learned state bit for bit, and snapshot corruption
//! degrades to WAL replay (or cold start) instead of panicking or
//! poisoning the run.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use acqp::core::prelude::*;
use acqp::obs::{NoopSink, Recorder};
use acqp::persist::{BasestationCheckpoint, CheckpointStore, PlanRecord, WalRecord};
use acqp::sensornet::sim::{fleet_from_trace, run_simulation, AdaptiveConfig, SimOptions};
use acqp::sensornet::{
    Basestation, CrashConfig, CrashReport, EnergyModel, FaultModel, PlannedQuery, PlannerChoice,
};
use acqp::stream::SlidingWindow;
use common::instance_strategy;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acqp_ws_crash_recovery").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A fixed instance with non-trivial correlation, enough rows for a
/// multi-epoch run, and mixed acquisition costs.
fn small_instance() -> (Schema, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 6, 1.0),
        Attribute::new("b", 4, 20.0),
        Attribute::new("c", 5, 5.0),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> =
        (0..60u16).map(|i| vec![i * 7 % 6, (i / 3) % 4, (i * 3 + i / 5) % 5]).collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![
        Pred::in_range(0, 1, 4),
        Pred::not_in_range(1, 2, 3),
        Pred::in_range(2, 0, 2),
    ])
    .unwrap();
    (schema, data, query)
}

/// A scalar run of `planned` over a fresh 3-mote fleet on `live`.
fn run(
    bs: &Basestation<'_>,
    query: &Query,
    planned: &PlannedQuery,
    live: &Dataset,
    rec: &Recorder,
    opts: &SimOptions,
) -> CrashReport {
    let mut motes = fleet_from_trace(live, 3);
    let model = EnergyModel::mica_like();
    run_simulation(bs, query, planned, &mut motes, &model, live.len(), rec, opts).unwrap()
}

/// The crash config of a run that journals every engine event to `dir`
/// but never snapshots and never crashes.
fn journal_only(dir: PathBuf) -> CrashConfig {
    CrashConfig {
        checkpoint_dir: Some(dir),
        checkpoint_every: 0,
        crash_epochs: Vec::new(),
        crash_rate: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// With an empty crash schedule, a run that journals to a
    /// checkpoint directory must be invisible: every count and every
    /// energy figure matches the run without a crash config bitwise.
    #[test]
    fn empty_crash_schedule_is_bitwise_transparent(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let (history, live) = inst.data.split_at(0.5);
        prop_assume!(!live.is_empty());
        let bs = Basestation::new(inst.schema.clone(), &history);
        let planned = bs.plan_query(&inst.query, PlannerChoice::Heuristic(3), 0.0).unwrap();
        let faults = FaultModel::lossy(seed, 0.2);
        let rec = Recorder::new(Arc::new(NoopSink));

        let opts = SimOptions { faults, ..SimOptions::default() };
        let base = run(&bs, &inst.query, &planned, &live, &rec, &opts).fault;

        let dir = tmp("transparent");
        let opts = SimOptions { crash: journal_only(dir.clone()), ..opts };
        let crashy = run(&bs, &inst.query, &planned, &live, &rec, &opts);
        prop_assert!(dir.join("wal.log").exists(), "the run must have journaled");

        prop_assert_eq!(crashy.crashes, 0);
        prop_assert_eq!(crashy.cold_starts, 0);
        prop_assert_eq!(crashy.checkpoints_written, 0);
        prop_assert_eq!(crashy.recovery_rediss_uj.to_bits(), 0.0f64.to_bits());
        let b = &crashy.fault;
        prop_assert_eq!(base.sim.epochs, b.sim.epochs);
        prop_assert_eq!(base.sim.tuples, b.sim.tuples);
        prop_assert_eq!(base.sim.results, b.sim.results);
        prop_assert_eq!(base.sim.all_correct, b.sim.all_correct);
        prop_assert_eq!(&base.sim.network, &b.sim.network);
        prop_assert_eq!(&base.sim.per_mote, &b.sim.per_mote);
        prop_assert_eq!(
            base.sim.sensing_uj_per_tuple.to_bits(),
            b.sim.sensing_uj_per_tuple.to_bits()
        );
        prop_assert_eq!(base.delivered_results, b.delivered_results);
        prop_assert_eq!(base.lost_results, b.lost_results);
        prop_assert_eq!(base.aborted_tuples, b.aborted_tuples);
        prop_assert_eq!(base.offline_epochs, b.offline_epochs);
        prop_assert_eq!(base.undisseminated_epochs, b.undisseminated_epochs);
        prop_assert_eq!(base.samples_delivered, b.samples_delivered);
        prop_assert_eq!(base.bs_tx_uj.to_bits(), b.bs_tx_uj.to_bits());
        prop_assert_eq!(base.replans.len(), b.replans.len());
    }

    /// The same transparency holds on the adaptive path: a journaling
    /// run that never crashes replays the adaptive run exactly, re-plan
    /// decisions included.
    #[test]
    fn adaptive_crashy_without_crashes_matches_adaptive(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let (history, live) = inst.data.split_at(0.5);
        prop_assume!(!live.is_empty());
        let bs = Basestation::new(inst.schema.clone(), &history);
        let planned = bs.plan_query(&inst.query, PlannerChoice::Heuristic(3), 0.0).unwrap();
        let faults = FaultModel::lossy(seed, 0.1);
        let rec = Recorder::new(Arc::new(NoopSink));

        let opts = SimOptions {
            faults,
            adaptive: Some(AdaptiveConfig::default()),
            ..SimOptions::default()
        };
        let base = run(&bs, &inst.query, &planned, &live, &rec, &opts).fault;

        let dir = tmp("adaptive_transparent");
        let opts = SimOptions { crash: journal_only(dir.clone()), ..opts };
        let crashy = run(&bs, &inst.query, &planned, &live, &rec, &opts);
        prop_assert!(dir.join("wal.log").exists(), "the run must have journaled");

        prop_assert_eq!(crashy.crashes, 0);
        let b = &crashy.fault;
        prop_assert_eq!(base.sim.tuples, b.sim.tuples);
        prop_assert_eq!(base.sim.results, b.sim.results);
        prop_assert_eq!(base.sim.all_correct, b.sim.all_correct);
        prop_assert_eq!(&base.sim.per_mote, &b.sim.per_mote);
        prop_assert_eq!(base.samples_delivered, b.samples_delivered);
        prop_assert_eq!(base.bs_tx_uj.to_bits(), b.bs_tx_uj.to_bits());
        prop_assert_eq!(base.replans.len(), b.replans.len());
        for (x, y) in base.replans.iter().zip(&b.replans) {
            prop_assert_eq!(x.epoch, y.epoch);
            prop_assert_eq!(x.adopted, y.adopted);
            prop_assert_eq!(x.divergence.to_bits(), y.divergence.to_bits());
            prop_assert_eq!(x.new_cost.to_bits(), y.new_cost.to_bits());
        }
    }
}

/// The acceptance property of the persistence layer: a snapshot plus a
/// WAL tail, read back by a restarted process, reproduces the plan
/// version, the drift monitor's truth counts, the sliding window's
/// ring, and the counting estimator's mask cache *bit for bit* — and
/// recovery is idempotent.
#[test]
fn recovery_round_trip_reproduces_learned_state_bit_for_bit() {
    let dir = tmp("roundtrip");
    let (schema, data, query) = small_instance();

    // Learn state the expensive way: one full estimation pass.
    let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
    let sels = estimated_selectivities(&query, &est);
    let masks = est.cached_masks().expect("estimation populates the mask cache");
    let cfg = DriftConfig::default();
    let mut monitor = DriftMonitor::new(sels, cfg).unwrap();
    monitor.observe_counts(0, 40, 11);
    monitor.observe_counts(1, 40, 29);
    monitor.observe_counts(2, 40, 17);
    let mut window = SlidingWindow::new(&schema, 8);
    for r in 0..12 {
        window.push(data.row(r).to_vec());
    }
    let plan =
        PlanRecord { version: 3, wire: vec![1, 2, 3, 4, 5], expected_cost: 12.5, objective: 12.5 };

    let mut store = CheckpointStore::open(&dir).unwrap();
    store.append(&WalRecord::EpochEnd { epoch: 6 }).unwrap();
    let ckpt = BasestationCheckpoint {
        epoch: 7,
        last_seq: store.next_seq() - 1,
        plan: plan.clone(),
        drift: Some((cfg, monitor.state())),
        window: Some(window.state()),
        mask_cache: Some(masks.clone()),
        ledgers: vec![[1.0, 2.0, 3.0, 4.0], [0.5, 0.25, 0.0, 9.75]],
    };
    store.write_snapshot(&ckpt).unwrap();
    // State that accrued after the snapshot, surviving only in the WAL.
    let tail = vec![
        WalRecord::Observe { pred: 1, evaluated: 6, passed: 2 },
        WalRecord::WindowPush { row: data.row(12).to_vec() },
        WalRecord::EpochEnd { epoch: 8 },
    ];
    for r in &tail {
        store.append(r).unwrap();
    }
    drop(store);

    // A restarted process sees the snapshot plus exactly the tail.
    let store = CheckpointStore::open(&dir).unwrap();
    let out = store.recover().unwrap();
    assert!(!out.cold_start);
    assert_eq!(out.corrupt_snapshots, 0);
    assert_eq!(out.checkpoint.as_ref(), Some(&ckpt));
    assert_eq!(out.replayed, tail);

    // Replaying the tail converges on the state a crash-free process
    // would hold.
    let ck = out.checkpoint.clone().unwrap();
    let (rcfg, rstate) = ck.drift.clone().unwrap();
    let mut rec_monitor = DriftMonitor::from_state(rstate, rcfg).unwrap();
    let mut rec_window = SlidingWindow::from_state(ck.window.clone().unwrap()).unwrap();
    for r in &out.replayed {
        match r {
            WalRecord::Observe { pred, evaluated, passed } => {
                rec_monitor.observe_counts(usize::from(*pred), *evaluated, *passed);
            }
            WalRecord::WindowPush { row } => rec_window.push(row.clone()),
            _ => {}
        }
    }
    monitor.observe_counts(1, 6, 2);
    window.push(data.row(12).to_vec());
    assert_eq!(rec_monitor.state(), monitor.state());
    assert_eq!(rec_window.state(), window.state());
    assert_eq!(ck.plan, plan);

    // A fresh estimator accepts the recovered masks and serves them
    // back unchanged — the full-dataset pass is never re-paid.
    let fresh = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
    assert!(fresh.cached_masks().is_none());
    let (q, m) = ck.mask_cache.clone().unwrap();
    assert!(fresh.seed_masks(q, m));
    assert_eq!(fresh.cached_masks(), Some(masks));

    // Idempotence: recovering again changes nothing.
    assert_eq!(store.recover().unwrap(), out);
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupting every snapshot on disk must not panic or abort the next
/// run: recovery counts the bad snapshots, falls back to replaying the
/// WAL from genesis, and the simulation still completes correctly.
#[test]
fn corrupt_snapshots_fall_back_to_wal_replay_without_panicking() {
    let dir = tmp("corrupt");
    let (schema, data, query) = small_instance();
    let (history, live) = data.split_at(0.5);
    let bs = Basestation::new(schema.clone(), &history);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(3), 0.0).unwrap();
    let faults = FaultModel::lossy(7, 0.0);
    let rec = Recorder::new(Arc::new(NoopSink));

    // Run 1: checkpoints every 4 epochs, one mid-run crash.
    let crash = CrashConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 4,
        crash_epochs: vec![10],
        crash_rate: 0.0,
    };
    let opts = SimOptions { faults: faults.clone(), crash, ..SimOptions::default() };
    let first = run(&bs, &query, &planned, &live, &rec, &opts);
    assert_eq!(first.crashes, 1);
    assert!(first.checkpoints_written > 0);
    assert!(first.fault.sim.all_correct);

    // Flip one byte in the middle of every snapshot file.
    let mut snaps = 0usize;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.file_name().unwrap().to_str().unwrap().starts_with("snap-") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(BasestationCheckpoint::read_from(&path).is_err(), "flip must invalidate");
        snaps += 1;
    }
    assert!(snaps > 0);

    // Run 2 in the same directory, never snapshotting, crashing again:
    // every recovery attempt sees only corrupt snapshots and must cold
    // start from the WAL.
    let crash = CrashConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 0,
        crash_epochs: vec![6],
        crash_rate: 0.0,
    };
    let opts = SimOptions { faults, crash, ..SimOptions::default() };
    let second = run(&bs, &query, &planned, &live, &rec, &opts);
    assert_eq!(second.crashes, 1);
    assert_eq!(second.cold_starts, 1);
    assert!(second.corrupt_snapshots >= snaps);
    assert!(second.checkpoints_written == 0);
    assert!(second.fault.sim.all_correct);
    std::fs::remove_dir_all(&dir).ok();
}
