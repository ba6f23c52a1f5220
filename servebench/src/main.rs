//! End-to-end serve benchmark: one command over four seeded workloads
//! through the multi-query service (`run_service_with` driving
//! `acqp_serve::Service`), with a separate traced run for the per-layer
//! split.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload zipf_churn --seed 0 --seconds 25 --trace 0
//! ```
//!
//! A run derives [`SCHEDULES`] independent sub-schedules from `--seed`
//! and sets each up once (the median set-up is `setup_s`). It then
//! serves them in turn, each call one batch job on one thread over a
//! pre-generated schedule, until `--seconds` have passed and every
//! sub-schedule has run. Throughput is work over wall time summed
//! across calls, miss latencies are pooled, and deterministic figures
//! come from one pass over the sub-schedules. Every call must pass the
//! correctness gates in [`gates`] or the run reports `correct: false`
//! and exits 1.
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics. With `--trace 1` each untraced call is followed by a traced
//! call on the same inputs; the planner, estimator and verifier are then
//! replayed on the last traced call's admissions, its spans are written
//! to `.servebench/trace-<workload>-<seed>.jsonl`, and the last line
//! carries the per-layer metrics. `--reference` instead replays the
//! `serve` bench's full-size Zipf scenario and checks that it
//! reproduces exactly.

mod gates;
mod host;
mod inputs;
mod policy;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acqp_core::Result;
use acqp_obs::{NoopSink, Recorder, Snapshot};
use acqp_persist::CheckpointStore;
use acqp_sensornet::service::{ServiceOptions, ServiceReport};
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{run_service_with, Basestation, Mote};
use acqp_serve::Service;

use gates::{broken_gates, Facts, Tally};
use inputs::{Inputs, Workload, ZIPF_BENCH, ZIPF_REFERENCE};
use policy::{PolicyTimes, PolicyTrace, TimedPolicy};
use trace::Tracer;

/// Independent schedules a run cycles through (sub-seeds of `--seed`);
/// each is set up once, and `setup_s` is the median set-up.
const SCHEDULES: usize = 16;
/// How far the traced layer split may miss `serve.run`.
const SPLIT_TOLERANCE: f64 = 0.03;
/// Where runs write their trace and checkpoint files, under the working
/// directory.
const OUT_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: Workload::ZipfChurn,
        seed: 0,
        seconds: 20.0,
        trace: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Workload::parse(&value).ok_or_else(bad)?,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The policy and fleet one serve call starts from.
fn build(inputs: &Inputs) -> Result<(Service<'_>, Vec<Mote>)> {
    let service =
        Service::new(Basestation::new(inputs.schema.clone(), &inputs.history), inputs.cfg.clone())?;
    Ok((service, fleet_from_trace(&inputs.trace, inputs.motes)))
}

/// Sub-seed `j` of a run seed; sub-seed 0 of seed 0 is the `serve`
/// bench's input.
fn sub_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(SCHEDULES as u64).wrapping_add(j as u64)
}

/// One serve call and everything measured around it.
struct Call {
    /// Which sub-schedule it served.
    sub: usize,
    start: Instant,
    end: Instant,
    /// Thread CPU time of the serve call.
    cpu_ns: u64,
    report: ServiceReport,
    times: PolicyTimes,
    trace: PolicyTrace,
    /// Engine-side instruments (traced calls only).
    snapshot: Snapshot,
}

impl Call {
    fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

fn serve_once(inputs: &Inputs, sub: usize, traced: bool, ckpt: &Path) -> Result<Call> {
    let mut cfg = inputs.cfg.clone();
    if cfg.crash.is_active() {
        let _ = std::fs::remove_dir_all(ckpt);
        cfg.crash.checkpoint_dir = Some(ckpt.to_path_buf());
    }
    let opts = ServiceOptions {
        faults: cfg.faults.clone(),
        crash: cfg.crash.clone(),
        policy: cfg.policy.clone(),
        collect_rows: false,
    };
    let (service, mut fleet) = build(inputs)?;
    let mut policy = TimedPolicy::new(service, traced);
    let rec = if traced { Recorder::new(Arc::new(NoopSink)) } else { Recorder::disabled() };
    let cpu0 = host::thread_cpu_ns();
    let start = Instant::now();
    let report = run_service_with(
        &inputs.schema,
        &inputs.schedule,
        &mut policy,
        &mut fleet,
        &inputs.model,
        inputs.epochs,
        inputs.mode,
        &rec,
        &opts,
    )?;
    let end = Instant::now();
    let cpu_ns = host::thread_cpu_ns().saturating_sub(cpu0);
    let (times, trace) = policy.finish();
    Ok(Call { sub, start, end, cpu_ns, report, times, trace, snapshot: rec.drain() })
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending slice.
fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric a run reports, with its unit, in print order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --reference",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.reference {
        return reference();
    }
    let w = args.workload;
    println!(
        "servebench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host::facts());

    // Set-up, once per sub-schedule: input generation plus the policy
    // and fleet a call starts from.
    let mut setup_s = Vec::new();
    let mut subs = Vec::new();
    for j in 0..SCHEDULES {
        let t = Instant::now();
        let generated = inputs::generate(w, sub_seed(args.seed, j), ZIPF_BENCH);
        if let Err(e) = build(&generated) {
            eprintln!("servebench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        subs.push(generated);
    }
    println!(
        "inputs {SCHEDULES} schedules of {} entries, {} epochs, {} motes, {:?}; set-up median {:.4} s",
        subs[0].schedule.len(),
        subs[0].epochs,
        subs[0].motes,
        subs[0].mode,
        median(setup_s.clone())
    );

    let tag = format!("{}-{}", w.name(), args.seed);
    // The process id keeps concurrent runs from sharing a journal.
    let ckpt = Path::new(OUT_DIR).join(format!("ckpt-{tag}-{}", std::process::id()));
    let mut tally = Tally::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    // Untraced runs cover every sub-schedule at least once; traced runs
    // pair each untraced call with a traced call on the same inputs.
    let min_rounds = if args.trace { 2 } else { SCHEDULES };
    for round in 0.. {
        let sub = round % SCHEDULES;
        let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &is_traced in kinds {
            match serve_once(&subs[sub], sub, is_traced, &ckpt) {
                Ok(call) => {
                    tally.check(w, &call);
                    println!(
                        "call {round:>3} schedule {sub} {} {:.4} s wall, {:.4} s cpu, policy {:.4} s",
                        if is_traced { "traced  " } else { "untraced" },
                        call.wall_s(),
                        call.cpu_ns as f64 / 1e9,
                        call.times.total_ns() as f64 / 1e9
                    );
                    if is_traced {
                        traced.push(call);
                    } else {
                        plain.push(call);
                    }
                }
                Err(e) => tally.error(&e, subs[sub].schedule.len()),
            }
        }
        // A broken gate ends the run at once: it fails, however fast.
        let done = Instant::now() >= deadline && round + 1 >= min_rounds;
        if done || !tally.broken.is_empty() {
            break;
        }
    }

    let metrics = if !tally.broken.is_empty() {
        Metrics(Vec::new())
    } else if args.trace {
        traced_metrics(Tracer::new(origin), &subs, &plain, &traced, &ckpt, &tag, &mut tally)
    } else {
        end_to_end(&plain, median(setup_s))
    };
    let _ = std::fs::remove_dir_all(&ckpt);
    let digests: Vec<String> = tally.digests.iter().map(|(j, d)| format!("{j}:{d:016x}")).collect();
    println!("determinism digests {}", digests.join(" "));
    let mut correct = tally.broken.is_empty();
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            correct = false;
            println!("GATE metric {name} is not finite");
        }
    }
    for b in &tally.broken {
        println!("GATE {b}");
    }
    metrics.print();
    let metrics_json = if correct { metrics.json() } else { "{}".into() };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(calls: &[Call], setup_s: f64) -> Metrics {
    let facts: Vec<Facts> = calls.iter().map(|c| Facts::of(&c.report)).collect();
    // Deterministic figures over one pass through the sub-schedules.
    let cycle = &facts[..SCHEDULES.min(facts.len())];
    let sum = |g: &dyn Fn(&Facts) -> f64, of: &[Facts]| -> f64 { of.iter().map(g).sum() };
    let mut latencies: Vec<u64> = cycle.iter().flat_map(|f| f.latencies.iter().copied()).collect();
    latencies.sort_unstable();
    let mut miss_ms: Vec<f64> =
        calls.iter().flat_map(|c| c.times.miss_ms.iter().copied()).collect();
    miss_ms.sort_by(f64::total_cmp);
    let wall: f64 = calls.iter().map(Call::wall_s).sum();
    let cpu: f64 = calls.iter().map(|c| c.cpu_ns as f64 / 1e9).sum();
    // p90 keeps at least ten misses beyond it on every workload (a fleet
    // run's few hundred misses leave fewer beyond p99); p50 and p99 are
    // printed, not reported.
    println!(
        "{} calls, {wall:.3} s serving ({:.1}% on a CPU), {} cache misses pooled \
         ({} beyond p90), p50 {:.3} ms, p99 {:.3} ms",
        calls.len(),
        100.0 * ratio(cpu, wall),
        miss_ms.len(),
        miss_ms.len() / 10,
        percentile(&miss_ms, 0.5),
        percentile(&miss_ms, 0.99)
    );
    let admitted = sum(&|f| f.admitted as f64, cycle);
    let tuples = sum(&|f| f.tuples as f64, cycle);
    let scheduled = sum(&|f| f.scheduled as f64, cycle);
    let mut m = Metrics(Vec::new());
    m.push("setup_s", setup_s, "s");
    m.push("admissions_per_s", sum(&|f| f.admitted as f64, &facts) / wall, "1/s");
    m.push("tuples_per_s", sum(&|f| f.tuples as f64, &facts) / wall, "1/s");
    // The mean, not the median: misses re-plan a few dozen fixed queries,
    // and over those the pooled median moved more between runs than the
    // mean did.
    m.push("plan_miss_ms_mean", ratio(miss_ms.iter().sum(), miss_ms.len() as f64), "ms");
    m.push("plan_miss_ms_p90", percentile(&miss_ms, 0.9), "ms");
    m.push("uj_per_query", ratio(sum(&|f| f.sensing_uj, cycle), admitted), "uJ");
    m.push("uj_per_tuple", ratio(sum(&|f| f.total_uj, cycle), tuples), "uJ");
    m.push("result_latency_p50_epochs", percentile(&latencies, 0.5) as f64, "epochs");
    m.push("result_latency_p99_epochs", percentile(&latencies, 0.99) as f64, "epochs");
    m.push("served_share", 1.0 - ratio(sum(&|f| f.failed() as f64, cycle), scheduled), "share");
    m.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    m
}

/// Sum of the `serve.fault.<stream>.<what>` counters over the three
/// retried packet streams.
fn fault_sum(snap: &Snapshot, what: &str) -> u64 {
    ["diss", "result", "sample"]
        .iter()
        .map(|s| snap.counter(&format!("serve.fault.{s}.{what}")))
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn traced_metrics(
    mut tracer: Tracer,
    subs: &[Inputs],
    plain: &[Call],
    traced: &[Call],
    ckpt: &Path,
    tag: &str,
    tally: &mut Tally,
) -> Metrics {
    let mut engine_s = Vec::new();
    let mut engine_ns_per_tuple = Vec::new();
    let mut on_cpu = Vec::new();
    let mut policy_share = Vec::new();
    let mut unattributed = Vec::new();
    let mut run_gap = Vec::new();
    for call in traced {
        let run = tracer.record("serve.run", call.start, call.end, None, call.sub as u64);
        for s in &call.trace.spans {
            tracer.record(s.name, s.start, s.end, Some(run), s.req);
        }
        let run_ns = tracer.duration_ns(run) as f64;
        let engine_ns = tracer.uncovered_ns(run) as f64;
        let policy_ns = tracer.children_ns(run) as f64;
        engine_s.push(engine_ns / 1e9);
        engine_ns_per_tuple.push(ratio(engine_ns, call.report.tuples() as f64));
        on_cpu.push(call.cpu_ns as f64 / run_ns);
        policy_share.push(policy_ns / run_ns);
        unattributed.push((policy_ns + engine_ns - run_ns).abs() / run_ns);
        // The engine's own `serve.run` span, an independent clock.
        let inner_us = call.snapshot.spans.get("serve.run").map_or(0, |s| s.total_us) as f64;
        run_gap.push((run_ns / 1e3 - inner_us).abs() / (run_ns / 1e3));
    }
    let last = traced.last().expect("a traced run makes traced calls");
    let inputs = &subs[last.sub];
    let f = Facts::of(&last.report);

    // Replays on the last traced call, outside `serve.run`.
    let replay = tracer.open("replay", None, 0);
    let twin = Basestation::new(inputs.schema.clone(), &inputs.history);
    let mut subproblems = 0u64;
    for q in &last.trace.missed {
        let t0 = Instant::now();
        let planned =
            twin.plan_query_sized_reported(q, inputs.cfg.alpha, &inputs.cfg.candidate_splits);
        let t1 = Instant::now();
        std::hint::black_box(twin.estimated_selectivities(q));
        let t2 = Instant::now();
        tracer.record("planner.plan", t0, t1, Some(replay), q.signature());
        tracer.record("estimator.selectivities", t1, t2, Some(replay), q.signature());
        match planned {
            Ok((_, _, n)) => subproblems += n,
            Err(e) => tally.broken.push(format!("planner replay failed: {e}")),
        }
    }
    let mut wire_bytes = 0usize;
    for (q, wire) in &last.trace.admitted {
        let t0 = Instant::now();
        let cert = acqp_verify::verify_wire(wire, q, &inputs.schema);
        tracer.record("verify.wire", t0, Instant::now(), Some(replay), q.signature());
        if let Err(e) = cert {
            tally.broken.push(format!("verify replay rejected an admitted plan: {e}"));
        }
        wire_bytes += wire.len();
    }
    let (mut recover_ms, mut persist_bytes) = (0.0, 0);
    if inputs.cfg.crash.is_active() {
        persist_bytes = dir_bytes(ckpt);
        let t0 = Instant::now();
        let recovered = CheckpointStore::open(ckpt).and_then(|s| s.recover_serve());
        let t1 = Instant::now();
        tracer.record("persist.recover", t0, t1, Some(replay), 0);
        recover_ms = t1.duration_since(t0).as_secs_f64() * 1e3;
        match recovered {
            Ok(r) if r.cold_start => tally.broken.push("checkpoint dir recovers cold".into()),
            Ok(_) => {}
            Err(e) => tally.broken.push(format!("checkpoint dir does not recover: {e}")),
        }
    }
    tracer.close(replay);

    let self_times = tracer.self_times();
    print_split(&self_times);
    let path = Path::new(OUT_DIR).join(format!("trace-{tag}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => tally.broken.push(format!("cannot write {}: {e}", path.display())),
    }
    let worst = unattributed.iter().copied().fold(0.0, f64::max);
    if worst > SPLIT_TOLERANCE {
        tally.broken.push(format!("layer split misses serve.run by {:.1}%", 100.0 * worst));
    }
    let worst_gap = run_gap.iter().copied().fold(0.0, f64::max);
    if worst_gap > SPLIT_TOLERANCE {
        tally.broken.push(format!(
            "outer serve.run differs from the engine's span by {:.1}%",
            100.0 * worst_gap
        ));
    }

    let mean_of = |name: &str, scale: f64| -> f64 {
        let t = self_times.get(name).copied().unwrap_or_default();
        ratio(t.total_ns as f64 * scale, t.count as f64)
    };
    let misses = last.trace.missed.len() as f64;
    // A packet is delivered on its last attempt or times out after all
    // of them were lost.
    let attempts = fault_sum(&last.snapshot, "attempts");
    let delivered = attempts - fault_sum(&last.snapshot, "lost");
    let packets = delivered + fault_sum(&last.snapshot, "timeouts");
    // Each traced call ran the same inputs as the untraced call before it.
    let overhead = median(plain.iter().zip(traced).map(|(p, t)| t.wall_s() / p.wall_s()).collect());

    let mut m = Metrics(Vec::new());
    m.push("serve.admit_hit_us_mean", mean_of("serve.admit.hit", 1e-3), "us");
    m.push("serve.admit_miss_ms_mean", mean_of("serve.admit.miss", 1e-6), "ms");
    m.push("serve.cache_hit_rate", ratio(f.hits as f64, f.admitted as f64), "share");
    m.push("serve.cache_invalidations", f.invalidations as f64, "count");
    m.push("serve.complete_us_mean", mean_of("serve.complete", 1e-3), "us");
    m.push("serve.policy_share", median(policy_share), "share");
    m.push("serve.run_on_cpu_share", median(on_cpu), "share");
    m.push("planner.ms_per_miss", mean_of("planner.plan", 1e-6), "ms");
    m.push("planner.subproblems_per_miss", ratio(subproblems as f64, misses), "count");
    m.push("estimator.us_per_call", mean_of("estimator.selectivities", 1e-3), "us");
    m.push("verify.us_per_call", mean_of("verify.wire", 1e-3), "us");
    m.push(
        "verify.wire_bytes_mean",
        ratio(wire_bytes as f64, last.trace.admitted.len() as f64),
        "B",
    );
    m.push("engine.self_s", median(engine_s), "s");
    m.push("engine.ns_per_tuple", median(engine_ns_per_tuple), "ns");
    m.push("engine.reads_per_demand", ratio(f.performed as f64, f.demanded as f64), "share");
    m.push(
        "engine.radio_msgs_per_tuple",
        ratio(last.snapshot.counter("serve.radio.msgs") as f64, f.tuples as f64),
        "count",
    );
    // The lossless loop counts no retries: it sends every packet once
    // and never loses one.
    let (per_packet, delivery) = if packets == 0 {
        (1.0, 1.0)
    } else {
        (attempts as f64 / packets as f64, delivered as f64 / packets as f64)
    };
    m.push("fault.attempts_per_packet", per_packet, "count");
    m.push("fault.delivery_rate", delivery, "share");
    m.push("persist.checkpoints_written", f.checkpoints as f64, "count");
    m.push("persist.bytes_per_epoch", persist_bytes as f64 / inputs.epochs as f64, "B");
    m.push("persist.recover_ms", recover_ms, "ms");
    m.push("recovery.wal_replayed", f.wal_replayed as f64, "count");
    m.push("recovery.cold_starts", f.cold_starts as f64, "count");
    m.push("trace.overhead_share", overhead - 1.0, "share");
    m.push("trace.unattributed_share", median(unattributed), "share");
    m.push("trace.serve_run_gap_share", median(run_gap), "share");
    m
}

/// Prints the per-layer self-time table and the one-line layer split of
/// `serve.run` (policy calls by kind, the rest engine).
fn print_split(self_times: &BTreeMap<&'static str, trace::SelfTime>) {
    let run_ns = self_times.get("serve.run").map_or(0, |t| t.total_ns) as f64;
    // Spans under `serve.run` are named `serve.*`; the replays run after it.
    let in_run = |name: &str| name.starts_with("serve.");
    println!("  {:<26} {:>8} {:>12} {:>12} {:>9}", "span", "count", "total_s", "self_s", "of run");
    for (name, t) in self_times {
        let share = if in_run(name) {
            format!("{:.2}%", 100.0 * ratio(t.self_ns as f64, run_ns))
        } else {
            "-".into()
        };
        println!(
            "  {name:<26} {:>8} {:>12.6} {:>12.6} {share:>9}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9,
        );
    }
    let split: Vec<String> = self_times
        .iter()
        .filter(|(name, _)| in_run(name))
        .map(|(name, t)| {
            let label = if *name == "serve.run" { "engine" } else { name };
            format!("{label} {:.1}%", 100.0 * ratio(t.self_ns as f64, run_ns))
        })
        .collect();
    println!("layer split of serve.run: {}", split.join(", "));
}

/// Replays the `serve` bench's Zipf scenario at full size through this
/// benchmark's path and through `acqp_serve::serve_schedule`, and
/// checks that hit rate, latency epochs and µJ/query agree exactly.
fn reference() -> ExitCode {
    let inputs = inputs::generate(Workload::ZipfChurn, 0, ZIPF_REFERENCE);
    let ckpt = PathBuf::from(OUT_DIR).join("ckpt-reference");
    let ours = match serve_once(&inputs, 0, false, &ckpt) {
        Ok(c) => c,
        Err(e) => {
            println!("reference: serve call failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let theirs = match acqp_serve::serve_schedule(
        &inputs.schema,
        &inputs.history,
        &inputs.trace,
        &inputs.schedule,
        inputs.motes,
        &inputs.model,
        inputs.epochs,
        inputs.mode,
        inputs.cfg.clone(),
        &Recorder::disabled(),
    ) {
        Ok(r) => r,
        Err(e) => {
            println!("reference: serve_schedule failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let f = Facts::of(&ours.report);
    let uj = ratio(f.sensing_uj, f.admitted as f64);
    println!(
        "benchmark path: {} admissions, {} hits ({:.4}), p50 {} / p99 {} epochs, {uj} uJ/query, {:.1} s",
        f.admitted,
        f.hits,
        ratio(f.hits as f64, f.admitted as f64),
        percentile(&f.latencies, 0.5),
        percentile(&f.latencies, 0.99),
        ours.wall_s()
    );
    println!(
        "serve_schedule: {} admissions, {} hits, p50 {} / p99 {} epochs, {} uJ/query",
        theirs.admitted,
        theirs.cache_hits,
        theirs.p50_latency_epochs,
        theirs.p99_latency_epochs,
        theirs.amortized_sensing_uj_per_query
    );
    let same = f.admitted == theirs.admitted
        && f.hits == theirs.cache_hits
        && percentile(&f.latencies, 0.5) == theirs.p50_latency_epochs
        && percentile(&f.latencies, 0.99) == theirs.p99_latency_epochs
        && uj.to_bits() == theirs.amortized_sensing_uj_per_query.to_bits()
        && f.subproblems == theirs.total_subproblems
        && broken_gates(Workload::ZipfChurn, &ours.report, &f).is_empty();
    println!("reference {}", if same { "reproduced exactly" } else { "MISMATCH" });
    if same {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
