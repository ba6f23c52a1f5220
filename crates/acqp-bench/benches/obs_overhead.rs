//! Observability overhead: the same Fig. 3-style exhaustive planning
//! workload timed three ways — recorder disabled, recorder live with a
//! no-op sink, and live with a JSON-lines sink to a temp file.
//!
//! Acceptance gates for the `acqp-obs` layer: the no-op-sink run and
//! the flight-recorder run must each stay within 2% of the disabled run
//! (the planner's hot loops pre-hoist every instrument, so the
//! per-subproblem cost is a handful of plain adds to cells; the flight
//! ring takes a few pushes per *plan*, not per subproblem).
//! The JSON sink is allowed to cost more — it is I/O.
//!
//! Env: `ACQP_QUERIES` (default 8), `ACQP_REPS` (default 3),
//! `ACQP_GRID` (default 2; grid 3 deepens the search ~10x).

use std::sync::Arc;
use std::time::Instant;

use acqp_core::prelude::*;
use acqp_data::lab::{self, LabConfig};
use acqp_data::workload::lab_queries;
use acqp_obs::{FlightRecorder, Hist, JsonLinesSink, NoopSink, Recorder};

fn plan_all(
    schema: &Schema,
    queries: &[Query],
    est: &CountingEstimator,
    grid_r: usize,
    rec: &Recorder,
) -> (f64, Vec<u64>) {
    let t0 = Instant::now();
    let mut bits = Vec::with_capacity(queries.len());
    for query in queries {
        let report = ExhaustivePlanner::with_grid(SplitGrid::for_query(schema, query, grid_r))
            .max_subproblems(700_000)
            .with_recorder(rec.clone())
            .plan_with_report(schema, query, est)
            .expect("planning failed");
        bits.push(report.expected_cost.to_bits());
    }
    (t0.elapsed().as_secs_f64(), bits)
}

fn main() {
    let g = lab::generate(&LabConfig::default());
    let (train_full, _) = g.split(0.6);
    let train = train_full.thin(4);
    let n_queries: usize =
        std::env::var("ACQP_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or(8);
    let reps: usize = std::env::var("ACQP_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
    let grid_r: usize = std::env::var("ACQP_GRID").ok().and_then(|s| s.parse().ok()).unwrap_or(2);
    let queries = lab_queries(&g.schema, &train, n_queries, 3, 0x8b).expect("lab workload");
    let est = CountingEstimator::with_ranges(&train, Ranges::root(&g.schema));

    println!(
        "=== Observability overhead: exhaustive planner, {n_queries} queries, grid r={grid_r} ==="
    );

    // Warm-up.
    let _ = plan_all(&g.schema, &queries, &est, grid_r, &Recorder::disabled());

    // Best-of-reps per configuration, interleaved so drift hits all
    // configurations equally.
    let json_path = std::env::temp_dir().join("acqp_obs_overhead_trace.jsonl");
    let mut t_off = f64::MAX;
    let mut t_noop = f64::MAX;
    let mut t_json = f64::MAX;
    let mut t_flight = f64::MAX;
    let mut flight_events = 0u64;
    for _ in 0..reps {
        let (t, bits_off) = plan_all(&g.schema, &queries, &est, grid_r, &Recorder::disabled());
        t_off = t_off.min(t);

        let rec = Recorder::new(Arc::new(NoopSink));
        let (t, bits) = plan_all(&g.schema, &queries, &est, grid_r, &rec);
        t_noop = t_noop.min(t);
        assert_eq!(bits_off, bits, "no-op-sink recording changed a plan cost");
        drop(rec.drain());

        let sink = JsonLinesSink::create(&json_path).expect("temp trace file");
        let rec = Recorder::new(Arc::new(sink));
        let (t, bits) = plan_all(&g.schema, &queries, &est, grid_r, &rec);
        t_json = t_json.min(t);
        assert_eq!(bits_off, bits, "json-sink recording changed a plan cost");
        drop(rec.drain());

        // Flight recorder on, metrics recorder off: measures the ring
        // buffer alone against the fully disabled baseline.
        let rec = Recorder::disabled().with_flight(FlightRecorder::new(1 << 16));
        let (t, bits) = plan_all(&g.schema, &queries, &est, grid_r, &rec);
        t_flight = t_flight.min(t);
        assert_eq!(bits_off, bits, "flight recording changed a plan cost");
        flight_events = rec.flight().emitted();
    }
    let _ = std::fs::remove_file(&json_path);

    // Per-query planning-time distribution (flight recorder live), to
    // exercise the Hist percentile accessors end to end in a bench
    // artifact.
    let plan_us = Hist::new();
    let rec = Recorder::disabled().with_flight(FlightRecorder::new(1 << 16));
    for query in &queries {
        let t0 = Instant::now();
        let _ = ExhaustivePlanner::with_grid(SplitGrid::for_query(&g.schema, query, grid_r))
            .max_subproblems(700_000)
            .with_recorder(rec.clone())
            .plan_with_report(&g.schema, query, &est)
            .expect("planning failed");
        plan_us.observe(t0.elapsed().as_micros() as u64);
    }

    let pct = |t: f64| (t / t_off - 1.0) * 100.0;
    println!("\n{:<12} {:>12} {:>10}", "recorder", "wall (s)", "vs off");
    println!("{:<12} {:>12.3} {:>9}%", "disabled", t_off, "0.0");
    println!("{:<12} {:>12.3} {:>+9.1}%", "noop sink", t_noop, pct(t_noop));
    println!("{:<12} {:>12.3} {:>+9.1}%", "json sink", t_json, pct(t_json));
    println!("{:<12} {:>12.3} {:>+9.1}%", "flight ring", t_flight, pct(t_flight));
    println!(
        "\nno-op overhead {:+.2}%, flight overhead {:+.2}% (gates: < 2%); \
         costs bitwise identical in all modes",
        pct(t_noop),
        pct(t_flight)
    );
    println!(
        "per-query planning time: p50 {} us, p90 {} us, p99 {} us ({} flight events)",
        plan_us.p50(),
        plan_us.p90(),
        plan_us.p99(),
        flight_events
    );

    let fields = vec![
        ("wall_disabled_s".to_string(), t_off),
        ("wall_noop_s".to_string(), t_noop),
        ("wall_json_s".to_string(), t_json),
        ("wall_flight_s".to_string(), t_flight),
        ("noop_overhead_pct".to_string(), pct(t_noop)),
        ("json_overhead_pct".to_string(), pct(t_json)),
        ("flight_overhead_pct".to_string(), pct(t_flight)),
        ("flight_gate_pass".to_string(), if pct(t_flight) < 2.0 { 1.0 } else { 0.0 }),
        ("flight_events".to_string(), flight_events as f64),
        ("plan_us_p50".to_string(), plan_us.p50() as f64),
        ("plan_us_p90".to_string(), plan_us.p90() as f64),
        ("plan_us_p99".to_string(), plan_us.p99() as f64),
    ];
    acqp_bench::report::emit_bench_json("obs_overhead", &fields);
}
