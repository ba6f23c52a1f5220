//! Multi-query service workload driver (`DESIGN.md` §14): tens of
//! thousands of admissions drawn Zipf-style from a fixed query
//! population, fired at the shared-acquisition service over one fleet.
//!
//! Two scenarios, both deterministic under fixed seeds:
//!
//! * **zipf** (reported + gated) — a population of distinct Lab
//!   workload queries, admissions Zipf-distributed over it so a few
//!   hot signatures dominate — exactly the regime the signature-keyed
//!   plan cache exists for. Reports p50/p99 admission-to-first-result
//!   latency (in epochs; the service never reads a wall clock),
//!   amortized sensing µJ/query, cache hit rate, and wall-clock
//!   admission throughput. Gate: every cache hit expands *zero*
//!   plan-search subproblems.
//! * **overlap** (gated) — a handful of concurrently-live queries on
//!   overlapping attributes. Gate: the shared run's mote-side energy
//!   is *strictly below* the summed N-independent-runs baseline.
//!
//! `BENCH_serve.json` carries every reported field.

use std::time::Instant;

use acqp_core::prelude::*;
use acqp_data::{lab, workload};
use acqp_obs::Recorder;
use acqp_sensornet::{EnergyModel, ScheduleEntry};
use acqp_serve::{independent_schedule_energy, serve_schedule, ServeConfig, ServeReport};

/// Distinct query signatures in the population.
const POPULATION: usize = 48;
/// Admissions fired at the service.
const ADMISSIONS: usize = 20_000;
/// Zipf skew: weight of rank r is proportional to 1 / r^S.
const ZIPF_S: f64 = 1.1;

/// Tiny deterministic xorshift stream for admission sampling.
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

/// Cumulative Zipf distribution over ranks `1..=n`.
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

fn sample_rank(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
}

fn zipf_scenario(fields: &mut Vec<(String, f64)>) {
    let cfg = lab::LabConfig { motes: 8, epochs: 500, seed: 0xced5, ..lab::LabConfig::small() };
    let g = lab::generate(&cfg);
    let (train, live) = g.split(0.5);
    let epochs = live.len().min(1_500);
    let population = workload::lab_queries(&g.schema, &train, POPULATION, 3, 42)
        .expect("lab workload population");
    assert_eq!(population.len(), POPULATION);

    // Tens of thousands of admissions, Zipf-skewed over the population,
    // spread across the run with short staggered observation windows.
    let cdf = zipf_cdf(POPULATION);
    let mut rng = XorShift(0x5eed | 1);
    let usable = epochs.saturating_sub(12).max(1);
    let schedule: Vec<ScheduleEntry> = (0..ADMISSIONS)
        .map(|i| {
            let rank = sample_rank(&cdf, rng.unit());
            ScheduleEntry::new(
                population[rank].clone(),
                i * usable / ADMISSIONS,
                4 + (rng.next() % 8) as usize,
            )
        })
        .collect();

    let model = EnergyModel::mica_like();
    // Loosened drift bounds: this scenario measures cache and merge
    // throughput, so invalidation storms from the Lab train/test shift
    // would only swap plan-search time in for the thing under test
    // (the overlap scenario and fault_sweep cover drift behaviour).
    let serve_cfg = ServeConfig {
        drift: DriftConfig { threshold: 0.45, min_samples: 256 },
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let rep: ServeReport = serve_schedule(
        &g.schema,
        &train,
        &live,
        &schedule,
        2,
        &model,
        epochs,
        ExecMode::Scalar,
        serve_cfg,
        &Recorder::disabled(),
    )
    .expect("zipf service run");
    let wall = t0.elapsed().as_secs_f64();

    assert!(rep.service.all_correct(), "service verdicts diverged from ground truth");
    assert_eq!(rep.admitted, ADMISSIONS, "every admission lands inside the run");
    assert!(rep.cache_hits > 0, "a Zipf workload must hit the plan cache");
    assert_eq!(rep.hit_subproblems, 0, "cache hits must expand zero plan-search subproblems");
    assert!(rep.total_subproblems > 0 || rep.cache_misses as usize <= POPULATION);

    let hit_rate = rep.cache_hits as f64 / rep.admitted.max(1) as f64;
    let admissions_per_sec = rep.admitted as f64 / wall.max(1e-9);
    println!(
        "zipf       {ADMISSIONS} admissions over {POPULATION} signatures x {epochs} epochs: \
         {:.1}% cache hits, p50 {} / p99 {} epochs, {:.1} uJ/query sensing, {:.0} adm/s",
        100.0 * hit_rate,
        rep.p50_latency_epochs,
        rep.p99_latency_epochs,
        rep.amortized_sensing_uj_per_query,
        admissions_per_sec
    );
    fields.push(("zipf.admissions".into(), rep.admitted as f64));
    fields.push(("zipf.population".into(), POPULATION as f64));
    fields.push(("zipf.epochs".into(), epochs as f64));
    fields.push(("zipf.cache.hits".into(), rep.cache_hits as f64));
    fields.push(("zipf.cache.misses".into(), rep.cache_misses as f64));
    fields.push(("zipf.cache.hit_rate".into(), hit_rate));
    fields.push(("zipf.cache.invalidations".into(), rep.cache_invalidations as f64));
    fields.push(("zipf.cache.hit_subproblems".into(), rep.hit_subproblems as f64));
    fields.push(("zipf.plan.subproblems".into(), rep.total_subproblems as f64));
    fields.push(("zipf.admissions_per_sec".into(), admissions_per_sec));
    // Top-level aliases: the headline latency + energy numbers.
    fields.push(("p50_latency_epochs".into(), rep.p50_latency_epochs as f64));
    fields.push(("p99_latency_epochs".into(), rep.p99_latency_epochs as f64));
    fields.push(("amortized_sensing_uj_per_query".into(), rep.amortized_sensing_uj_per_query));
    fields.push(("cache_hit_gate_pass".into(), 1.0));
}

fn overlap_scenario(fields: &mut Vec<(String, f64)>) {
    let cfg = lab::LabConfig { motes: 6, epochs: 400, seed: 0xced5, ..lab::LabConfig::small() };
    let g = lab::generate(&cfg);
    let (train, live) = g.split(0.5);
    let epochs = live.len().min(240);
    let population = workload::lab_queries(&g.schema, &train, 6, 3, 7).expect("overlap population");
    // Everybody live at once over long overlapping windows.
    let schedule: Vec<ScheduleEntry> = population
        .into_iter()
        .enumerate()
        .map(|(i, query)| ScheduleEntry::new(query, i * 4, epochs))
        .collect();

    let model = EnergyModel::mica_like();
    let serve_cfg = ServeConfig::default();
    let rep = serve_schedule(
        &g.schema,
        &train,
        &live,
        &schedule,
        3,
        &model,
        epochs,
        ExecMode::Scalar,
        serve_cfg.clone(),
        &Recorder::disabled(),
    )
    .expect("overlap service run");
    let independent = independent_schedule_energy(
        &g.schema, &train, &live, &schedule, 3, &model, epochs, &serve_cfg,
    )
    .expect("independent baseline");

    assert!(rep.admitted >= 2, "the overlap gate needs at least two live queries");
    assert!(
        rep.shared_total_uj < independent,
        "shared-acquisition energy ({:.0} uJ) must be strictly below the \
         {}-independent-runs baseline ({independent:.0} uJ)",
        rep.shared_total_uj,
        rep.admitted
    );
    assert!(
        rep.service.performed_acquisitions < rep.service.demanded_acquisitions,
        "overlapping queries must actually share sensor reads"
    );

    let ratio = independent / rep.shared_total_uj.max(1e-9);
    println!(
        "overlap    {} concurrent queries x {epochs} epochs: shared {:.0} uJ vs \
         independent {:.0} uJ ({ratio:.2}x), {} performed / {} demanded reads",
        rep.admitted,
        rep.shared_total_uj,
        independent,
        rep.service.performed_acquisitions,
        rep.service.demanded_acquisitions
    );
    fields.push(("overlap.queries".into(), rep.admitted as f64));
    fields.push(("overlap.shared_uj".into(), rep.shared_total_uj));
    fields.push(("overlap.independent_uj".into(), independent));
    fields.push(("overlap.energy_ratio".into(), ratio));
    fields
        .push(("overlap.performed_acquisitions".into(), rep.service.performed_acquisitions as f64));
    fields.push(("overlap.demanded_acquisitions".into(), rep.service.demanded_acquisitions as f64));
    fields.push(("energy_gate_pass".into(), 1.0));
}

fn main() {
    let mut fields = Vec::new();
    zipf_scenario(&mut fields);
    overlap_scenario(&mut fields);
    println!("\nserve gates clear: zero-search cache hits, shared < independent energy");
    acqp_bench::report::emit_bench_json("serve", &fields);
}
