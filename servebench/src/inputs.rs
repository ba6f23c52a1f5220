//! The four workloads, generated from the workload seed.
//!
//! Seed 0 is the default: it reuses the `serve` bench's seeds (Lab
//! trace `0xced5`, schedule stream `0x5eed | 1`, query population 42,
//! fault stream `0x5eed`). Any other seed re-draws only the admission
//! stream (Zipf sampling, or the fleet's admission order) and the fault
//! stream; the Lab trace and the query populations stay fixed, so a
//! seed changes which inputs arrive in which order, not how much work
//! a run holds.

use acqp_core::{Dataset, DriftConfig, ExecMode, Query, Schema};
use acqp_data::{lab, workload};
use acqp_sensornet::{CrashConfig, EnergyModel, FaultModel, ScheduleEntry};
use acqp_serve::ServeConfig;

/// Lab trace seed shared by every workload.
const LAB_SEED: u64 = 0xced5;
/// Zipf admission stream at seed 0.
const SCHEDULE_SEED: u64 = 0x5eed | 1;
/// Fault stream at seed 0.
const FAULT_SEED: u64 = 0x5eed;
/// Zipf skew: weight of rank r is proportional to 1 / r^S.
const ZIPF_S: f64 = 1.1;
/// Distinct signatures in the Zipf population.
const ZIPF_POPULATION: usize = 48;
/// Long-lived fleet: signatures, stagger between admissions, trace length.
const FLEET_QUERIES: usize = 24;
const FLEET_STAGGER: usize = 8;
const FLEET_EPOCHS: usize = 20_000;
/// Planning history of the fleet: as many rows as `zipf_churn` plans
/// from, so a plan search costs about the same on both.
const FLEET_HISTORY: usize = 2_000;
/// `fleet_faulty`: snapshot cadence and the two scheduled crashes, both
/// off the cadence so recovery has a WAL tail to replay.
const CHECKPOINT_EVERY: usize = 256;
const CRASH_EPOCHS: [usize; 2] = [7_000, 14_000];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf(1.1) admissions over 48 signatures with drift churn.
    ZipfChurn,
    /// 24 long-lived queries, lossless, scalar execution.
    FleetSteady,
    /// `FleetSteady` with vectorized execution.
    FleetSteadyVec,
    /// `FleetSteady` through the robust loop: loss, sensing failures,
    /// checkpoints and two crashes.
    FleetFaulty,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfChurn,
        Workload::FleetSteady,
        Workload::FleetSteadyVec,
        Workload::FleetFaulty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfChurn => "zipf_churn",
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetSteadyVec => "fleet_steady_vec",
            Workload::FleetFaulty => "fleet_faulty",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload injects no faults: every scheduled entry
    /// must then be admitted and complete.
    pub fn lossless(self) -> bool {
        self != Workload::FleetFaulty
    }
}

/// Size of a Zipf run: admissions spread over epochs.
#[derive(Debug, Clone, Copy)]
pub struct ZipfSize {
    pub admissions: usize,
    pub epochs: usize,
}

/// The size the benchmark measures. A schedule's miss count varies by
/// about 16% with its seed at every size from 1,000 to 4,000
/// admissions, so a run serves many small independent schedules rather
/// than one large one.
pub const ZIPF_BENCH: ZipfSize = ZipfSize { admissions: 1_000, epochs: 75 };
/// The `serve` bench's size, reproduced by `--reference`.
pub const ZIPF_REFERENCE: ZipfSize = ZipfSize { admissions: 20_000, epochs: 1_500 };

/// Everything one serve call consumes, generated before timing starts.
pub struct Inputs {
    pub schema: Schema,
    pub history: Dataset,
    pub trace: Dataset,
    pub schedule: Vec<ScheduleEntry>,
    pub motes: u16,
    pub epochs: usize,
    pub mode: ExecMode,
    /// Planning, fault and crash settings.
    pub cfg: ServeConfig,
    pub model: EnergyModel,
}

/// splitmix64: the per-seed stream derivation (seed 0 keeps `base`).
fn stream(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tiny deterministic xorshift stream (the `serve` bench's sampler).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Generates a workload's inputs.
pub fn generate(w: Workload, seed: u64, zipf: ZipfSize) -> Inputs {
    match w {
        Workload::ZipfChurn => zipf_churn(seed, zipf),
        _ => fleet(w, seed),
    }
}

fn zipf_churn(seed: u64, size: ZipfSize) -> Inputs {
    let cfg = lab::LabConfig { motes: 8, epochs: 500, seed: LAB_SEED, ..lab::LabConfig::small() };
    let g = lab::generate(&cfg);
    let (history, trace) = g.split(0.5);
    let epochs = trace.len().min(size.epochs);
    let population = workload::lab_queries(&g.schema, &history, ZIPF_POPULATION, 3, 42)
        .expect("the Lab workload population generates");
    let cdf = zipf_cdf(ZIPF_POPULATION);
    let mut rng = XorShift(stream(SCHEDULE_SEED, seed) | 1);
    let usable = epochs.saturating_sub(12).max(1);
    let schedule = (0..size.admissions)
        .map(|i| {
            let u = rng.unit();
            let rank = cdf.iter().position(|&c| u <= c).unwrap_or(ZIPF_POPULATION - 1);
            ScheduleEntry::new(
                population[rank].clone(),
                i * usable / size.admissions,
                4 + (rng.next() % 8) as usize,
            )
        })
        .collect();
    Inputs {
        schema: g.schema,
        history,
        trace,
        schedule,
        motes: 2,
        epochs,
        mode: ExecMode::Scalar,
        cfg: ServeConfig {
            drift: DriftConfig { threshold: 0.45, min_samples: 256 },
            ..ServeConfig::default()
        },
        model: EnergyModel::mica_like(),
    }
}

fn fleet(w: Workload, seed: u64) -> Inputs {
    // The first FLEET_HISTORY rows plan, the next FLEET_EPOCHS run.
    let rows = FLEET_HISTORY + FLEET_EPOCHS;
    let cfg =
        lab::LabConfig { motes: 8, epochs: rows / 8, seed: LAB_SEED, ..lab::LabConfig::small() };
    let g = lab::generate(&cfg);
    let (history, trace) = g.split(FLEET_HISTORY as f64 / rows as f64);
    let epochs = trace.len().min(FLEET_EPOCHS);
    let population: Vec<Query> = workload::lab_queries(&g.schema, &history, FLEET_QUERIES, 3, 7)
        .expect("the Lab fleet population generates");
    // Seed 0 admits the population in order; other seeds shuffle it.
    let mut order: Vec<usize> = (0..population.len()).collect();
    if seed != 0 {
        let mut rng = XorShift(stream(SCHEDULE_SEED, seed) | 1);
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
    }
    let schedule = order
        .iter()
        .enumerate()
        .map(|(slot, &q)| {
            let admit = slot * FLEET_STAGGER;
            ScheduleEntry::new(population[q].clone(), admit, epochs - admit)
        })
        .collect();
    let mut serve = ServeConfig::default();
    if w == Workload::FleetFaulty {
        serve.faults =
            FaultModel::lossy(stream(FAULT_SEED, seed), 0.05).with_sensing_failures(0.01);
        serve.crash = CrashConfig {
            // Filled in per call: every call journals into a fresh directory.
            checkpoint_dir: None,
            checkpoint_every: CHECKPOINT_EVERY,
            crash_epochs: CRASH_EPOCHS.to_vec(),
            crash_rate: 0.0,
        };
    }
    Inputs {
        schema: g.schema,
        history,
        trace,
        schedule,
        motes: 8,
        epochs,
        mode: if w == Workload::FleetSteadyVec { ExecMode::Vectorized } else { ExecMode::Scalar },
        cfg: serve,
        model: EnergyModel::mica_like(),
    }
}
