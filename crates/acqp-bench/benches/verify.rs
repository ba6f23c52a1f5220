//! Static-verifier throughput and the certified plan's executable form
//! (`DESIGN.md` §15).
//!
//! Two measurements over the Lab workload:
//!
//! * **verification throughput** — full three-pass `verify_wire` runs
//!   per second over a planner-produced corpus. This is the cost the
//!   basestation pays once per dissemination and once per recovered
//!   checkpoint plan; it should be microscopic next to planning.
//! * **checked interpretation vs the certified row walk** — per-tuple
//!   trace replay through `execute_wire` (decoding and validating the
//!   wire on every tuple, reusing one tuple state across the window)
//!   against `PreparedPlan::walk_row` over the certified wire's decoded
//!   plan, prepared once — the serve engine's slot kernel. Both paths
//!   replay the identical held-out window and must agree bitwise on
//!   verdicts and costs before any clock is trusted.
//!
//! Acceptance gate (lenient — both paths are cheap next to
//! acquisition): the certified row walk sustains at least 0.9x the
//! checked interpreter's tuples/sec, i.e. executing the prepared form
//! never *costs* throughput.

use std::time::Instant;

use acqp_core::prelude::*;
use acqp_data::synthetic::SyntheticConfig;
use acqp_data::{lab, synthetic, workload};
use acqp_sensornet::interp::execute_wire;
use acqp_verify::verify_wire;

const PASSES: usize = 7;
const GATE: f64 = 0.9;

struct Scenario {
    label: String,
    schema: Schema,
    live: Dataset,
    query: Query,
    wire: Vec<u8>,
    /// The certified wire's decoded plan, prepared once.
    prepared: PreparedPlan,
}

impl Scenario {
    fn new(label: String, schema: Schema, live: Dataset, query: Query, plan: &Plan) -> Scenario {
        let wire = plan.encode();
        verify_wire(&wire, &query, &schema).expect("corpus verifies");
        let decoded = Plan::decode(&wire).expect("certified wire decodes");
        let prepared = PreparedPlan::new(&decoded, &query, &schema, &CostModel::PerAttribute);
        Scenario { label, schema, live, query, wire, prepared }
    }
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // Lab: narrow three-predicate queries, sequential and conditional.
    let cfg = lab::LabConfig { motes: 10, epochs: 4_000, seed: 0xbeef, ..lab::LabConfig::small() };
    let g = lab::generate(&cfg);
    let (train, live) = g.split(0.5);
    let est = CountingEstimator::new(&train);
    let queries = workload::lab_queries(&g.schema, &train, 2, 3, 42).expect("lab workload");
    for (qi, query) in queries.into_iter().enumerate() {
        for (tag, k) in [("seq", 0usize), ("cond", 8)] {
            let plan = GreedyPlanner::new(k).plan(&g.schema, &query, &est).expect("planning");
            out.push(Scenario::new(
                format!("lab.q{qi}.{tag}"),
                g.schema.clone(),
                live.clone(),
                query.clone(),
                &plan,
            ));
        }
    }

    // Synthetic §6.3 wide conjunction: a 24-predicate leaf is where the
    // checked path's per-tuple body validation actually costs something.
    let cfg = SyntheticConfig::new(24, 3, 0.95).with_rows(20_000).with_seed(0xbeef);
    let g = synthetic::generate(&cfg);
    let (train, live) = g.split(0.5);
    let query = workload::synthetic_query(&cfg, &g.schema);
    let est = CountingEstimator::new(&train);
    let plan = SeqPlanner::auto().plan(&g.schema, &query, &est).expect("planning").simplify();
    out.push(Scenario::new("wide.seq".to_string(), g.schema, live, query, &plan));

    out
}

/// Best-of-`PASSES` full-corpus verification rate: (plans/sec,
/// wire bytes/sec).
fn verify_throughput(scs: &[Scenario]) -> (f64, f64) {
    let bytes: usize = scs.iter().map(|s| s.wire.len()).sum();
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for sc in scs {
            let cert = verify_wire(&sc.wire, &sc.query, &sc.schema).expect("corpus verifies");
            assert!(cert.bound.best_case <= cert.bound.worst_case);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let per_sec = scs.len() as f64 / best.max(1e-12);
    (per_sec, bytes as f64 / best.max(1e-12))
}

/// Row `r` of the scenario's live window through the checked
/// interpreter on `st` (`certified` false) or the certified row walk;
/// returns the verdict and the cost.
fn interpret(sc: &Scenario, r: usize, certified: bool, st: &mut TupleState) -> (bool, f64) {
    if certified {
        let row = sc.prepared.walk_row(&sc.live, r);
        (row.verdict, row.cost)
    } else {
        let mut src = RowSource::new(&sc.live, r);
        let verdict =
            execute_wire(&sc.wire, &sc.query, &sc.schema, st, &mut src).expect("valid wire");
        (verdict, st.cost())
    }
}

/// Replays the live window through one path, returning best-of
/// tuples/sec and the summed cost for the equal-work assertion.
fn replay_tuples_per_sec(sc: &Scenario, certified: bool) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0.0f64;
    let mut st = TupleState::new(sc.schema.len());
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let mut sum = 0.0f64;
        for r in 0..sc.live.len() {
            sum += interpret(sc, r, certified, &mut st).1;
        }
        best = best.min(t0.elapsed().as_secs_f64());
        total = sum;
    }
    (sc.live.len() as f64 / best.max(1e-12), total)
}

fn main() {
    let scs = scenarios();
    let mut fields = Vec::new();

    let (plans_per_sec, bytes_per_sec) = verify_throughput(&scs);
    println!(
        "verify_wire: {:>4} plans {:>14.0} plans/s {:>14.0} wire bytes/s",
        scs.len(),
        plans_per_sec,
        bytes_per_sec
    );
    fields.push(("verify.plans_per_sec".to_string(), plans_per_sec));
    fields.push(("verify.wire_bytes_per_sec".to_string(), bytes_per_sec));

    // Differential before the clocks: both paths agree bitwise on
    // every row of every scenario.
    for sc in &scs {
        let mut st = TupleState::new(sc.schema.len());
        for r in 0..sc.live.len() {
            let (checked_verdict, checked_cost) = interpret(sc, r, false, &mut st);
            let (walk_verdict, walk_cost) = interpret(sc, r, true, &mut st);
            assert_eq!(checked_verdict, walk_verdict, "{} row {r}", sc.label);
            assert_eq!(checked_cost.to_bits(), walk_cost.to_bits(), "{} row {r}", sc.label);
        }
    }

    let mut worst_ratio = f64::INFINITY;
    for sc in &scs {
        let (checked_tps, checked_cost) = replay_tuples_per_sec(sc, false);
        let (walk_tps, walk_cost) = replay_tuples_per_sec(sc, true);
        assert_eq!(checked_cost.to_bits(), walk_cost.to_bits(), "{}: unequal work", sc.label);
        let ratio = walk_tps / checked_tps.max(1e-12);
        worst_ratio = worst_ratio.min(ratio);
        println!(
            "{:<10} {:>3} wire bytes {:>14.0} checked t/s {:>14.0} certified t/s {:>6.2}x",
            sc.label,
            sc.wire.len(),
            checked_tps,
            walk_tps,
            ratio
        );
        fields.push((format!("{}.checked.tuples_per_sec", sc.label), checked_tps));
        fields.push((format!("{}.certified.tuples_per_sec", sc.label), walk_tps));
        fields.push((format!("{}.speedup", sc.label), ratio));
    }
    fields.push(("speedup.worst".to_string(), worst_ratio));

    assert!(
        worst_ratio >= GATE,
        "the certified row walk must sustain >= {GATE}x the checked \
         interpreter's tuples/sec on every scenario, got {worst_ratio:.2}x"
    );
    println!("\ncertified row walk clears the {GATE}x gate (worst {worst_ratio:.2}x)");

    acqp_bench::report::emit_bench_json("verify", &fields);
}
