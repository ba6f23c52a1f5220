//! `acqp` — the command-line front end of the workspace.
//!
//! ```text
//! acqp info     --dataset lab
//! acqp gen      lab --out lab.csv [--seed N] [--epochs N]
//! acqp plan     --dataset lab --query "light >= 350 AND temp <= 21" \
//!               [--algo naive|corrseq|heuristic|exhaustive] [--splits K] [--grid R]
//! acqp simulate --dataset garden5 --query "temp0 BETWEEN 10 AND 18 AND hum0 <= 75" \
//!               [--motes M] [--splits K] [--flight-recorder out.json]
//! acqp serve    --dataset garden5 --schedule "0:200:temp0 <= 18;40:100:hum0 <= 75" \
//!               [--motes M] [--splits K] [--baseline yes]
//! ```

mod args;
mod datasets;
mod query_parse;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use acqp_core::prelude::*;
use acqp_obs::{FlightRecorder, JsonLinesSink, NoopSink, Recorder, DEFAULT_FLIGHT_CAP};

/// A CLI failure: either a typed error from the core library (bad flag
/// values, I/O on user-supplied paths) or a free-form usage message.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// Typed error carrying structured context.
    Core(Error),
    /// Plain usage / parse message.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Usage(m) => write!(f, "{m}"),
        }
    }
}

impl From<Error> for CliError {
    fn from(e: Error) -> Self {
        CliError::Core(e)
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.to_string())
    }
}

/// CLI-level result (the core prelude shadows `Result`).
type CliResult<T> = std::result::Result<T, CliError>;
use acqp_sensornet::{
    run_simulation, sim::fleet_from_trace, AdaptiveConfig, Basestation, CrashConfig, EnergyModel,
    FaultModel, ReplanBudget, ScheduleEntry, ServicePolicy, SimOptions,
};
use acqp_serve::{independent_schedule_energy, serve_schedule, ServeConfig};
use args::Args;

const USAGE: &str = "\
acqp — correlation-aware acquisitional query planning (ICDE 2005)

USAGE:
  acqp info     --dataset <kind> | --schema <file> --data <file.csv>
  acqp gen      <kind> --out <file.csv> [--seed N] [--epochs N] [--motes N]
                [--n N --gamma G --sel S --rows R]        (synthetic)
  acqp plan     --dataset <kind> --query \"<expr>\"
                [--algo naive|corrseq|heuristic|exhaustive]
                [--splits K] [--grid R] [--train-frac F] [--explain yes]
                [--plan-budget-ms MS] [--budget N] [--fallback yes]
                [--exec scalar|vectorized] [--explain-analyze yes]
                [--trace-json <file>] [--metrics yes]
                [--flight-recorder <file>] [--flight-jsonl <file>]
                [--flight-timeline yes] [--flight-cap N]
  acqp simulate --dataset <kind> --query \"<expr>\" [--motes M] [--splits K]
                [--fault-seed N] [--loss-rate F] [--sensing-fail F]
                [--max-attempts N] [--dropout m:from:until[,...]]
                [--replan-threshold F] [--replan-budget N] [--sample-every N]
                [--checkpoint-dir <dir>] [--checkpoint-every N]
                [--crash-epochs e1,e2,...] [--crash-rate F]
                [--trace-json <file>] [--metrics yes]
                [--flight-recorder <file>] [--flight-jsonl <file>]
                [--flight-timeline yes] [--flight-cap N]
  acqp verify   --dataset <kind> --query \"<expr>\"
                [--algo naive|corrseq|heuristic|exhaustive]
                [--splits K] [--grid R] [--json yes]
                | --dataset <kind> --schedule \"admit:window:<expr>[;...]\"
                | --dataset <kind> --query \"<expr>\" --wire <file>
  acqp serve    --dataset <kind> --schedule \"admit:window:<expr>[;...]\"
                [--motes M] [--splits K] [--baseline yes]
                [--deadline N] [--epoch-budget F]
                [--fault-seed N] [--loss-rate F] [--sensing-fail F]
                [--max-attempts N] [--dropout m:from:until[,...]]
                [--checkpoint-dir <dir>] [--checkpoint-every N]
                [--crash-epochs e1,e2,...] [--crash-rate F]
                [--trace-json <file>] [--metrics yes]
                [--flight-recorder <file>] [--flight-jsonl <file>]
                [--flight-timeline yes] [--flight-cap N]

  --trace-json <file>  stream spans and drained metrics as JSON lines
  --metrics yes        append a metrics summary table to the output
  --flight-recorder <file>  write the deterministic event log as Chrome
                       trace-event JSON (load in Perfetto / about:tracing)
  --flight-jsonl <file>  write per-epoch `epoch.tick` time series as JSONL
  --flight-timeline yes  print a text timeline of the event log
  --flight-cap N       flight ring capacity in events (default 65536);
                       overflow evicts oldest and is counted, never silent
  --explain-analyze yes  (plan) print the predicted-vs-actual cost table
                       with per-predicate regret attribution over the
                       held-out window
  --exec vectorized    (plan) run trace replay through the columnar
                       batch executor (results are bitwise-identical to
                       scalar). simulate and serve have one executor
                       and take no --exec

  fault injection (simulate): --loss-rate / --sensing-fail are
  probabilities in [0, 1]; --fault-seed makes lossy runs reproducible;
  --dropout takes mote outage windows. --replan-threshold (0, 1]
  enables drift-triggered re-planning under --replan-budget subproblems,
  with a full-tuple statistics sample every --sample-every epochs.

  serving: --schedule admits each query at its `admit` epoch for
  `window` epochs; overlapping queries share sensor acquisitions and
  repeat admissions hit the signature-keyed plan cache. --baseline yes
  also runs every query independently and prints the energy ratio
  (lossless runs only). Fault and crash flags work like `simulate`'s;
  --epoch-budget caps the summed expected per-tuple cost of live plans
  (excess admissions queue in schedule order, with a fairness bound so
  one hot signature cannot starve the tail) and --deadline N makes each
  query terminate within N epochs of its scheduled admission — crossing
  it returns the rows delivered so far as a typed timed-out outcome.
  Mid-run re-plan flags (--replan-threshold and friends) stay
  `simulate`-only: the service re-plans through its drift policy.

  verifying: `verify` runs the static plan verifier (structural,
  semantic and cost passes — no execution) over freshly planned wire
  bytes, every plan of a --schedule, or raw bytes from --wire, and
  reports findings. Exit codes mirror acqp-lint: 0 = all plans
  verified, 1 = findings, 2 = operational error. --json yes emits the
  findings as JSON.

  crash injection (simulate): --crash-epochs and --crash-rate kill and
  restart the basestation, recovering from --checkpoint-dir (snapshot
  every --checkpoint-every epochs + WAL replay; without a directory
  every crash cold-starts to the genesis plan). --fallback yes (plan)
  runs the degraded-mode ladder: planning never fails, it degrades.

  <kind> = lab | garden5 | garden11 | synthetic
  <expr> = clause (AND clause)*          values in natural units
  clause = name >= v | name <= v | name > v | name < v | name = v
         | name BETWEEN v AND v | NOT( clause )
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: Vec<String>) -> CliResult<ExitCode> {
    let args = Args::parse(raw)?;
    match args.positional.first().map(String::as_str) {
        Some("info") => cmd_info(&args).map(|()| ExitCode::SUCCESS),
        Some("gen") => cmd_gen(&args).map(|()| ExitCode::SUCCESS),
        Some("plan") => cmd_plan(&args).map(|()| ExitCode::SUCCESS),
        Some("simulate") => cmd_simulate(&args).map(|()| ExitCode::SUCCESS),
        Some("serve") => cmd_serve(&args).map(|()| ExitCode::SUCCESS),
        Some("verify") => Ok(cmd_verify(&args)),
        Some(other) => Err(format!("unknown subcommand `{other}`").into()),
        None => Err("no subcommand given".into()),
    }
}

/// Where a command's dataset comes from (`datasets::resolve`).
const SOURCE_FLAGS: &[&str] = &["dataset", "schema", "data"];
/// Generator overrides read by `datasets::build`.
const GENERATOR_FLAGS: &[&str] = &["seed", "epochs", "motes", "n", "gamma", "sel", "rows"];
/// Observability outputs (`recorder_from`, `finish_flight`, `finish_metrics`).
const OBS_FLAGS: &[&str] =
    &["trace-json", "metrics", "flight-recorder", "flight-jsonl", "flight-timeline", "flight-cap"];
/// Fault and crash injection, parsed alike by `simulate` and `serve`.
const FAULT_FLAGS: &[&str] = &[
    "fault-seed",
    "loss-rate",
    "sensing-fail",
    "max-attempts",
    "dropout",
    "checkpoint-dir",
    "checkpoint-every",
    "crash-rate",
    "crash-epochs",
];

/// Every flag some code path of `cmd` reads; anything else is rejected
/// up front by [`check_flags`].
fn known_flags(cmd: &str) -> &'static [&'static [&'static str]] {
    match cmd {
        "info" => &[SOURCE_FLAGS, GENERATOR_FLAGS],
        "gen" => &[GENERATOR_FLAGS, &["out"]],
        "plan" => &[
            SOURCE_FLAGS,
            GENERATOR_FLAGS,
            OBS_FLAGS,
            &[
                "query",
                "train-frac",
                "algo",
                "splits",
                "grid",
                "budget",
                "plan-budget-ms",
                "fallback",
                "explain",
                "explain-analyze",
                "exec",
            ],
        ],
        "verify" => &[
            SOURCE_FLAGS,
            GENERATOR_FLAGS,
            &["query", "schedule", "wire", "algo", "splits", "grid", "budget", "json"],
        ],
        "simulate" => &[
            SOURCE_FLAGS,
            GENERATOR_FLAGS,
            OBS_FLAGS,
            FAULT_FLAGS,
            &["query", "splits", "replan-threshold", "replan-budget", "sample-every"],
        ],
        "serve" => &[
            SOURCE_FLAGS,
            GENERATOR_FLAGS,
            OBS_FLAGS,
            FAULT_FLAGS,
            SERVE_INCOMPATIBLE,
            &["schedule", "splits", "deadline", "epoch-budget", "baseline"],
        ],
        _ => &[],
    }
}

/// Fails on any flag the subcommand never reads (`unknown flag --X for
/// <cmd>`), so a typo cannot silently run with the default.
fn check_flags(args: &Args) -> CliResult<()> {
    let cmd = args.positional.first().map_or("", String::as_str);
    Ok(args.reject_unknown(cmd, known_flags(cmd))?)
}

fn cmd_info(args: &Args) -> CliResult<()> {
    check_flags(args)?;
    let g = datasets::resolve(args)?;
    println!("dataset: {} tuples, {} attributes\n", g.data.len(), g.schema.len());
    println!("{:<4} {:<12} {:>7} {:>9}  natural range", "id", "name", "domain", "cost");
    for (i, a) in g.schema.attrs().iter().enumerate() {
        let range = match &g.discretizers[i] {
            Some(d) => format!("[{:.1}, {:.1}]", d.bin_lo(0), d.bin_hi(d.bins() - 1)),
            None => format!("raw 0..{}", a.domain()),
        };
        println!("{i:<4} {:<12} {:>7} {:>9.1}  {range}", a.name(), a.domain(), a.cost());
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> CliResult<()> {
    check_flags(args)?;
    let kind = args
        .positional
        .get(1)
        .ok_or("gen needs a dataset kind, e.g. `acqp gen lab --out lab.csv`")?;
    let out = args.require("out")?;
    let g = datasets::build(kind, args)?;
    acqp_data::csv::save_csv(Path::new(out), &g.schema, &g.data)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} tuples x {} attributes to {out}", g.data.len(), g.schema.len());
    Ok(())
}

/// Builds the command's recorder from `--trace-json` / `--metrics`,
/// attaching a flight recorder when any `--flight-*` output was asked
/// for. Observability stays disabled (zero overhead) otherwise.
fn recorder_from(args: &Args) -> CliResult<Recorder> {
    let flight = flight_from(args)?;
    let rec = if let Some(path) = args.get("trace-json") {
        let sink = JsonLinesSink::create(Path::new(path))
            .map_err(|e| Error::Io { path: path.to_string(), what: e.to_string() })?;
        Recorder::new(Arc::new(sink))
    } else if args.get("metrics").is_some_and(|v| v != "no") {
        Recorder::new(Arc::new(NoopSink))
    } else {
        Recorder::disabled()
    };
    Ok(rec.with_flight(flight))
}

/// Builds the flight recorder from the `--flight-*` flags. Disabled
/// (every emit a no-op) unless at least one output was requested, so
/// default runs stay byte-identical to previous releases.
fn flight_from(args: &Args) -> CliResult<FlightRecorder> {
    let wanted = args.get("flight-recorder").is_some()
        || args.get("flight-jsonl").is_some()
        || args.get("flight-timeline").is_some_and(|v| v != "no");
    if !wanted {
        return Ok(FlightRecorder::disabled());
    }
    let cap: usize = args.get_or("flight-cap", DEFAULT_FLIGHT_CAP)?;
    if cap == 0 {
        return Err(invalid("flight-cap", "0", "the ring needs room for at least one event"));
    }
    Ok(FlightRecorder::new(cap))
}

/// Writes the requested flight-recorder exports and folds the ring's
/// totals into the metric stream (`trace.events` / `trace.dropped`).
fn finish_flight(args: &Args, rec: &Recorder) -> CliResult<()> {
    let flight = rec.flight();
    if !flight.enabled() {
        return Ok(());
    }
    rec.counter("trace.events").incr(flight.emitted());
    rec.counter("trace.dropped").incr(flight.dropped());
    if let Some(path) = args.get("flight-recorder") {
        std::fs::write(path, flight.to_chrome_json())
            .map_err(|e| Error::Io { path: path.to_string(), what: e.to_string() })?;
        println!(
            "flight recorder: {} events retained ({} dropped) -> {path}",
            flight.len(),
            flight.dropped()
        );
    }
    if let Some(path) = args.get("flight-jsonl") {
        std::fs::write(path, flight.to_epoch_jsonl())
            .map_err(|e| Error::Io { path: path.to_string(), what: e.to_string() })?;
        println!("flight time series -> {path}");
    }
    if args.get("flight-timeline").is_some_and(|v| v != "no") {
        println!(
            "
flight timeline:"
        );
        print!("{}", flight.to_timeline());
    }
    Ok(())
}

/// Drains `rec` (flushing any `--trace-json` sink) and prints the
/// `--metrics` summary table when requested.
fn finish_metrics(args: &Args, rec: &Recorder) {
    if !rec.enabled() {
        return;
    }
    let snap = rec.drain();
    if args.get("metrics").is_some_and(|v| v != "no") {
        println!("\nmetrics:");
        print!("{}", snap.render_table());
    }
}

/// A typed bad-flag error.
fn invalid(flag: &str, value: &str, why: &'static str) -> CliError {
    CliError::Core(Error::InvalidFlag { flag: format!("--{flag}"), value: value.to_string(), why })
}

/// Parses `--exec scalar|vectorized` (scalar when absent).
fn exec_mode_from(args: &Args) -> CliResult<ExecMode> {
    match args.get("exec") {
        None | Some("scalar") => Ok(ExecMode::Scalar),
        Some("vectorized") => Ok(ExecMode::Vectorized),
        Some(other) => Err(invalid("exec", other, "expected `scalar` or `vectorized`")),
    }
}

/// Parses a probability flag, rejecting values outside `[0, 1]` with a
/// typed error.
fn prob_flag(args: &Args, flag: &str, default: f64) -> CliResult<f64> {
    let v: f64 = args.get_or(flag, default)?;
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(invalid(flag, args.get(flag).unwrap_or(""), "must be a probability in [0, 1]"));
    }
    Ok(v)
}

/// Builds the simulate command's fault model from its flags, with every
/// out-of-range value rejected as a typed error before anything runs.
fn fault_model_from(args: &Args) -> CliResult<FaultModel> {
    let seed: u64 = args.get_or("fault-seed", 0)?;
    let loss = prob_flag(args, "loss-rate", 0.0)?;
    let sensing = prob_flag(args, "sensing-fail", 0.0)?;
    let max_attempts: u32 = args.get_or("max-attempts", 4)?;
    if max_attempts == 0 {
        return Err(invalid("max-attempts", "0", "at least one attempt is required"));
    }
    let mut faults = FaultModel::lossy(seed, loss)
        .with_sensing_failures(sensing)
        .with_max_attempts(max_attempts);
    if let Some(spec) = args.get("dropout") {
        for part in spec.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            let parsed = if fields.len() == 3 {
                match (
                    fields[0].parse::<u16>(),
                    fields[1].parse::<usize>(),
                    fields[2].parse::<usize>(),
                ) {
                    (Ok(m), Ok(from), Ok(until)) => Some((m, from, until)),
                    _ => None,
                }
            } else {
                None
            };
            match parsed {
                Some((m, from, until)) if from < until => {
                    faults = faults.with_dropout(m, from, until);
                }
                _ => {
                    return Err(invalid(
                        "dropout",
                        spec,
                        "expected mote:from:until[,mote:from:until...] with from < until",
                    ));
                }
            }
        }
    }
    Ok(faults)
}

fn planner_label(algo: &str, splits: usize) -> String {
    match algo {
        "heuristic" => format!("heuristic (at most {splits} splits)"),
        other => other.to_string(),
    }
}

fn cmd_plan(args: &Args) -> CliResult<()> {
    check_flags(args)?;
    let g = datasets::resolve(args)?;
    let query_text = args.require("query")?;
    let query = query_parse::parse_query(query_text, &g.schema, &g.discretizers)
        .map_err(|e| format!("parsing query: {e}"))?;

    let train_frac: f64 = args.get_or("train-frac", 0.6)?;
    let (train, test) = g.data.split_at(train_frac);
    let rec = recorder_from(args)?;
    let est = CountingEstimator::with_ranges(&train, Ranges::root(&g.schema)).with_recorder(&rec);

    let algo = args.get("algo").unwrap_or("heuristic");
    let splits: usize = args.get_or("splits", 10)?;
    let grid: usize = args.get_or("grid", 12)?;
    let plan_budget = match args.get("plan-budget-ms") {
        Some(v) => Some(std::time::Duration::from_millis(
            v.parse().map_err(|_| format!("bad value for --plan-budget-ms: {v}"))?,
        )),
        None => None,
    };
    let mut truncated = false;
    let mut degradation = DegradationLevel::None;
    let use_fallback = args.get("fallback").is_some_and(|v| v != "no");
    let plan = if use_fallback {
        // The degraded-mode ladder: Exhaustive -> GreedyPlan ->
        // GreedySeq -> Naive under per-stage budgets. Never fails —
        // worst case is a naive ordering tagged with its rung.
        let mut p = FallbackPlanner::new()
            .with_grid(SplitGrid::for_query(&g.schema, &query, grid))
            .max_splits(splits)
            .max_subproblems(args.get_or("budget", 1_000_000usize)?)
            .with_recorder(rec.clone());
        if let Some(d) = plan_budget {
            p = p.stage_budget(d);
        }
        let r = p.plan_data(&g.schema, &query, &train);
        truncated = r.truncated;
        degradation = r.degradation;
        Ok(r.plan)
    } else {
        match algo {
            "naive" => SeqPlanner::naive().plan(&g.schema, &query, &est),
            "corrseq" => SeqPlanner::auto().plan(&g.schema, &query, &est),
            "heuristic" => {
                let mut p = GreedyPlanner::new(splits)
                    .with_grid(SplitGrid::for_query(&g.schema, &query, grid))
                    .with_recorder(rec.clone());
                if let Some(d) = plan_budget {
                    p = p.time_budget(d);
                }
                p.plan_with_report(&g.schema, &query, &est).map(|r| {
                    truncated = r.truncated;
                    r.plan
                })
            }
            "exhaustive" => {
                let mut p = ExhaustivePlanner::with_grid(SplitGrid::for_query(
                    &g.schema,
                    &query,
                    grid.min(3),
                ))
                .max_subproblems(args.get_or("budget", 1_000_000usize)?)
                .with_recorder(rec.clone());
                if let Some(d) = plan_budget {
                    p = p.time_budget(d);
                }
                p.plan_with_report(&g.schema, &query, &est).map(|r| {
                    truncated = r.truncated;
                    r.plan
                })
            }
            other => return Err(format!("unknown --algo `{other}`").into()),
        }
    }
    .map_err(|e| format!("planning: {e}"))?;
    let plan = plan.simplify();
    if truncated {
        println!("note   : planning budget exhausted; plan is best-effort, not optimal");
    }
    if degradation != DegradationLevel::None {
        println!("note   : fallback ladder degraded to `{}`", degradation.as_str());
    }

    println!("query  : {query_text}");
    let label = if use_fallback {
        format!("fallback ladder (landed on `{}`)", degradation.as_str())
    } else {
        planner_label(algo, splits)
    };
    println!("planner: {label}");
    println!("plan   : {} splits, {} bytes on the wire\n", plan.split_count(), plan.wire_size());
    if args.get("explain").is_some_and(|v| v != "no") {
        let ex = explain(&plan, &query, &g.schema, &CostModel::PerAttribute, &est);
        println!("{}", ex.render(&g.schema, &query));
        println!("expected cost (model): {:.2}\n", ex.total_cost());
    } else {
        println!("{}", plan.pretty(&g.schema, &query));
    }

    let mode = exec_mode_from(args)?;
    let rtr = measure_mode(
        &plan,
        &query,
        &g.schema,
        &CostModel::PerAttribute,
        &train,
        0..train.len(),
        mode,
    );
    let (rte, exec_metrics) = if rec.enabled() {
        // Meter the held-out window: per-attribute acquisitions, cost
        // distribution, per-predicate outcomes.
        let m = ExecMetrics::new(&rec, &g.schema, &query);
        let r = measure_metered_mode(
            &plan,
            &query,
            &g.schema,
            &CostModel::PerAttribute,
            &test,
            0..test.len(),
            mode,
            &m,
        );
        (r, Some(m))
    } else {
        (
            measure_mode(
                &plan,
                &query,
                &g.schema,
                &CostModel::PerAttribute,
                &test,
                0..test.len(),
                mode,
            ),
            None,
        )
    };
    if !(rtr.all_correct && rte.all_correct) {
        return Err("internal error: plan disagreed with direct evaluation".into());
    }
    println!(
        "cost/tuple: {:.2} (train window), {:.2} (held-out window)",
        rtr.mean_cost, rte.mean_cost
    );
    println!("pass rate : {:.1}% of held-out tuples", 100.0 * rte.pass_rate);

    if args.get("explain-analyze").is_some_and(|v| v != "no") {
        // Plan-regret attribution: re-cost the adopted plan under a
        // held-out estimator and decompose predicted-vs-actual into
        // per-predicate estimator-error contributions (telescoping
        // walk; the contributions sum bitwise to the total gap).
        let actual = CountingEstimator::with_ranges(&test, Ranges::root(&g.schema));
        let rep = regret_report(&plan, &query, &g.schema, &CostModel::PerAttribute, &est, &actual);
        println!(
            "
explain-analyze (train-estimated vs held-out actual):"
        );
        print!("{}", rep.render(&g.schema, &query));
    }

    if let Some(m) = &exec_metrics {
        // Estimated-vs-actual selectivity per predicate: the training
        // marginal against the held-out pass fraction (§7's train/test
        // shift, quantified per predicate).
        let table = est.truth_table(&est.root(), &query);
        for j in 0..query.len() {
            let est_sel = table.marginal(j);
            rec.gauge(&format!("exec.pred{j}.est_sel"), est_sel);
            if let Some(actual) = m.actual_selectivity(j) {
                rec.gauge(&format!("exec.pred{j}.actual_sel"), actual);
                rec.gauge(&format!("exec.pred{j}.sel_abs_err"), (est_sel - actual).abs());
            }
        }
    }

    // Always show the Naive baseline for context.
    if algo != "naive" {
        let naive = SeqPlanner::naive()
            .plan(&g.schema, &query, &est)
            .map_err(|e| format!("planning baseline: {e}"))?;
        let base = measure(&naive, &query, &g.schema, &test);
        println!(
            "vs Naive  : {:.2} cost/tuple -> {:.2}x gain",
            base.mean_cost,
            base.mean_cost / rte.mean_cost.max(1e-9)
        );
    }
    finish_flight(args, &rec)?;
    finish_metrics(args, &rec);
    Ok(())
}

/// `acqp verify`: the static plan verifier as a command. Operational
/// failures (bad flags, unreadable files) exit 2; verification findings
/// exit 1; a fully verified corpus exits 0 — mirroring `acqp-lint`.
fn cmd_verify(args: &Args) -> ExitCode {
    match verify_corpus(args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One plan to verify: a display label, the query it must be meaningful
/// for, the wire bytes, and the planner's claimed expected cost when
/// one exists (raw `--wire` bytes carry no claim).
type VerifyUnit = (String, Query, Vec<u8>, Option<f64>);

/// Builds the corpus from the flags, runs the verifier over it, prints
/// findings (human or `--json`), and returns how many there were.
fn verify_corpus(args: &Args) -> CliResult<usize> {
    check_flags(args)?;
    let g = datasets::resolve(args)?;
    let splits: usize = args.get_or("splits", 8)?;
    let grid: usize = args.get_or("grid", 12)?;
    let (train, _) = g.data.split_at(0.6);
    let est = CountingEstimator::with_ranges(&train, Ranges::root(&g.schema));

    let mut units: Vec<VerifyUnit> = Vec::new();
    if let Some(path) = args.get("wire") {
        let text = args.require("query")?;
        let query = query_parse::parse_query(text, &g.schema, &g.discretizers)
            .map_err(|e| format!("parsing query: {e}"))?;
        let bytes =
            std::fs::read(path).map_err(|e| format!("reading wire bytes from {path}: {e}"))?;
        units.push((format!("wire:{path}"), query, bytes, None));
    } else if let Some(spec) = args.get("schedule") {
        for (text, entry) in schedule_from(spec, &g.schema, &g.discretizers)? {
            let plan = GreedyPlanner::new(splits)
                .with_grid(SplitGrid::for_query(&g.schema, &entry.query, grid))
                .plan(&g.schema, &entry.query, &est)
                .map_err(|e| format!("planning `{text}`: {e}"))?;
            let claimed = expected_cost(&plan, &entry.query, &g.schema, &est);
            units.push((text, entry.query, plan.encode(), Some(claimed)));
        }
    } else {
        let text = args.require("query")?;
        let query = query_parse::parse_query(text, &g.schema, &g.discretizers)
            .map_err(|e| format!("parsing query: {e}"))?;
        let algo = args.get("algo").unwrap_or("heuristic");
        let plan = match algo {
            "naive" => SeqPlanner::naive().plan(&g.schema, &query, &est),
            "corrseq" => SeqPlanner::auto().plan(&g.schema, &query, &est),
            "heuristic" => GreedyPlanner::new(splits)
                .with_grid(SplitGrid::for_query(&g.schema, &query, grid))
                .plan(&g.schema, &query, &est),
            "exhaustive" => {
                ExhaustivePlanner::with_grid(SplitGrid::for_query(&g.schema, &query, grid.min(3)))
                    .max_subproblems(args.get_or("budget", 1_000_000usize)?)
                    .plan(&g.schema, &query, &est)
            }
            other => return Err(format!("unknown --algo `{other}`").into()),
        }
        .map_err(|e| format!("planning: {e}"))?;
        let claimed = expected_cost(&plan, &query, &g.schema, &est);
        units.push((text.to_string(), query, plan.encode(), Some(claimed)));
    }

    let json = args.get("json").is_some_and(|v| v != "no");
    let mut findings: Vec<(String, acqp_verify::VerifyError)> = Vec::new();
    for (label, query, wire, claimed) in &units {
        let verdict = acqp_verify::verify_wire(wire, query, &g.schema).and_then(|cert| {
            if let Some(c) = claimed {
                cert.check_claim(*c)?;
            }
            Ok(cert)
        });
        match verdict {
            Ok(cert) if !json => println!(
                "plan `{label}`: {} bytes, {} split(s), {} path(s), cost in [{:.2}, {:.2}] — verified",
                cert.stats.wire_len,
                cert.stats.splits,
                cert.stats.paths,
                cert.bound.best_case,
                cert.bound.worst_case,
            ),
            Ok(_) => {}
            Err(e) => findings.push((label.clone(), e)),
        }
    }

    if json {
        let rows: Vec<String> = findings
            .iter()
            .map(|(label, e)| {
                let offset = e.offset().map_or("null".to_string(), |o| o.to_string());
                format!(
                    "{{\"class\":{},\"plan\":{},\"offset\":{offset},\"message\":{}}}",
                    verify_json_str(e.class()),
                    verify_json_str(label),
                    verify_json_str(&e.to_string()),
                )
            })
            .collect();
        println!(
            "{{\"findings\":[{}],\"plans_checked\":{},\"errors\":{}}}",
            rows.join(","),
            units.len(),
            findings.len(),
        );
    } else {
        for (label, e) in &findings {
            println!("error[{}]: {e}\n  --> plan `{label}`", e.class());
        }
        println!("{} plan(s) checked: {} finding(s)", units.len(), findings.len());
    }
    Ok(findings.len())
}

/// Minimal JSON string escaping for the `verify --json` output.
fn verify_json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmd_simulate(args: &Args) -> CliResult<()> {
    check_flags(args)?;
    let g = datasets::resolve(args)?;
    let query_text = args.require("query")?;
    let query = query_parse::parse_query(query_text, &g.schema, &g.discretizers)
        .map_err(|e| format!("parsing query: {e}"))?;

    let (history, live) = g.data.split_at(0.5);
    let fleet: u16 = args.get_or("motes", 4)?;
    if fleet == 0 {
        return Err(invalid("motes", "0", "the fleet needs at least one mote"));
    }
    let splits: usize = args.get_or("splits", 8)?;
    let faults = fault_model_from(args)?;
    let replan_threshold = if args.get("replan-threshold").is_some() {
        let t: f64 = args.get_or("replan-threshold", 0.15)?;
        if !t.is_finite() || t <= 0.0 || t > 1.0 {
            return Err(invalid(
                "replan-threshold",
                args.get("replan-threshold").unwrap_or(""),
                "must be a divergence in (0, 1]",
            ));
        }
        Some(t)
    } else {
        None
    };
    let sample_every: usize = args.get_or("sample-every", 4)?;
    if sample_every == 0 {
        return Err(invalid("sample-every", "0", "sampling period must be at least 1 epoch"));
    }
    let replan_budget: usize = args.get_or("replan-budget", 50_000)?;
    let checkpoint_dir = args.get("checkpoint-dir").map(std::path::PathBuf::from);
    let checkpoint_every: usize = args.get_or("checkpoint-every", 16)?;
    let crash_rate = prob_flag(args, "crash-rate", 0.0)?;
    let crash_epochs: Vec<usize> = match args.get("crash-epochs") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<std::result::Result<_, _>>()
            .map_err(|_| {
                invalid("crash-epochs", spec, "expected a comma-separated list of epoch numbers")
            })?,
        None => Vec::new(),
    };
    // Any crash/checkpoint flag turns on crash recovery and its summary
    // lines; without one the output stays byte-identical to previous
    // releases.
    let crashy = checkpoint_dir.is_some()
        || !crash_epochs.is_empty()
        || crash_rate > 0.0
        || args.get("checkpoint-every").is_some();
    let bs = Basestation::new(g.schema.clone(), &history);
    let model = EnergyModel::mica_like();
    let alpha = Basestation::alpha_for(&model, fleet as usize, live.len());
    let (k, planned) = bs
        .plan_query_sized(&query, alpha, &[0, 1, 2, 4, splits.max(1)])
        .map_err(|e| format!("planning: {e}"))?;

    println!("query : {query_text}");
    println!(
        "plan  : Heuristic-{k}, {} splits, {} bytes (alpha = {alpha:.5})",
        planned.plan.split_count(),
        planned.wire.len()
    );
    let rec = recorder_from(args)?;
    let mut motes = fleet_from_trace(&live, fleet);
    let opts = SimOptions {
        faults,
        adaptive: replan_threshold.map(|threshold| AdaptiveConfig {
            drift: DriftConfig { threshold, ..DriftConfig::default() },
            sample_every,
            budget: ReplanBudget { max_subproblems: replan_budget.max(1), grid_splits: 3 },
            alpha,
            ..AdaptiveConfig::default()
        }),
        crash: if crashy {
            CrashConfig { checkpoint_dir, checkpoint_every, crash_epochs, crash_rate }
        } else {
            CrashConfig::default()
        },
        topology: None,
    };
    let crep = run_simulation(&bs, &query, &planned, &mut motes, &model, live.len(), &rec, &opts)?;
    let rep = &crep.fault;
    if !rep.sim.all_correct {
        return Err(CliError::Usage("internal error: simulation verdicts diverged".into()));
    }
    println!(
        "\nsimulated {} tuples over {} motes x {} epochs: {} results",
        rep.sim.tuples, fleet, rep.sim.epochs, rep.sim.results
    );
    println!(
        "energy: sensing {:.0} uJ + boards {:.0} uJ + radio {:.0} uJ = {:.0} uJ total",
        rep.sim.network.sensing_uj,
        rep.sim.network.board_uj,
        rep.sim.network.radio_tx_uj + rep.sim.network.radio_rx_uj,
        rep.sim.network.total_uj()
    );
    println!("sensing energy per tuple: {:.1} uJ", rep.sim.sensing_uj_per_tuple);
    // Fault and re-plan summaries print only when the feature is
    // active, so a `--loss-rate 0.0` run stays byte-identical to the
    // lossless default.
    if !opts.faults.is_lossless() {
        println!(
            "faults: seed {}, delivered {}/{} results ({:.1}%), {} aborted tuples, \
             {} offline epochs, {} undisseminated",
            opts.faults.seed,
            rep.delivered_results,
            rep.sim.results,
            100.0 * rep.delivery_rate(),
            rep.aborted_tuples,
            rep.offline_epochs,
            rep.undisseminated_epochs
        );
    }
    if crashy {
        println!(
            "crashes: {} injected, {} cold starts, {} corrupt snapshots, \
             {} WAL records replayed",
            crep.crashes, crep.cold_starts, crep.corrupt_snapshots, crep.wal_replayed
        );
        println!(
            "recovery: {} checkpoints written, re-dissemination cost {:.0} uJ",
            crep.checkpoints_written, crep.recovery_rediss_uj
        );
    }
    if opts.adaptive.is_some() {
        let adopted = rep.replans.iter().filter(|r| r.adopted).count();
        println!("replans: {} triggered, {} adopted", rep.replans.len(), adopted);
        for r in rep.replans.iter().filter(|r| r.adopted) {
            println!(
                "  epoch {}: divergence {:.2}, cost {:.1} -> {:.1}{}",
                r.epoch,
                r.divergence,
                r.stale_cost,
                r.new_cost,
                if r.fell_back { " (greedy fallback)" } else { "" }
            );
        }
    }
    finish_flight(args, &rec)?;
    finish_metrics(args, &rec);
    Ok(())
}

/// Flags that opt into behaviour the serve loop does not support;
/// each is rejected with a typed error before anything runs. Fault and
/// crash flags are serve-compatible since the fault-tolerant service
/// loop landed; mid-run re-planning remains `simulate`-only because
/// the service already re-plans through its drift policy.
const SERVE_INCOMPATIBLE: &[&str] = &["replan-threshold", "replan-budget", "sample-every"];

/// Parses `--schedule "admit:window:<expr>[;...]"` into schedule
/// entries plus the verbatim query texts (for echoing).
fn schedule_from(
    spec: &str,
    schema: &Schema,
    discretizers: &[Option<acqp_core::Discretizer>],
) -> CliResult<Vec<(String, ScheduleEntry)>> {
    let mut out = Vec::new();
    for part in spec.split(';') {
        let fields: Vec<&str> = part.splitn(3, ':').collect();
        if fields.len() != 3 {
            return Err(invalid("schedule", part, "expected admit:window:<expr>[;...]"));
        }
        let admit: usize = fields[0]
            .trim()
            .parse()
            .map_err(|_| invalid("schedule", part, "admission epoch must be a whole number"))?;
        let window: usize = fields[1]
            .trim()
            .parse()
            .map_err(|_| invalid("schedule", part, "window must be a whole number of epochs"))?;
        if window == 0 {
            return Err(invalid("schedule", part, "the observation window needs at least 1 epoch"));
        }
        let text = fields[2].trim();
        let query = query_parse::parse_query(text, schema, discretizers)
            .map_err(|e| format!("parsing query `{text}`: {e}"))?;
        out.push((text.to_string(), ScheduleEntry::new(query, admit, window)));
    }
    Ok(out)
}

fn cmd_serve(args: &Args) -> CliResult<()> {
    check_flags(args)?;
    for flag in SERVE_INCOMPATIBLE {
        if let Some(v) = args.get(flag) {
            return Err(invalid(
                flag,
                v,
                "mid-run re-plan flags apply to `simulate`; the service \
                 re-plans through its drift policy",
            ));
        }
    }
    let g = datasets::resolve(args)?;
    let mut schedule = schedule_from(args.require("schedule")?, &g.schema, &g.discretizers)?;

    let (history, live) = g.data.split_at(0.5);
    let fleet: u16 = args.get_or("motes", 4)?;
    if fleet == 0 {
        return Err(invalid("motes", "0", "the fleet needs at least one mote"));
    }
    let splits: usize = args.get_or("splits", 8)?;

    // Robustness flags: faults and crashes exactly as `simulate` parses
    // them, plus the serve-only deadline and admission budget.
    let faults = fault_model_from(args)?;
    let checkpoint_dir = args.get("checkpoint-dir").map(std::path::PathBuf::from);
    let checkpoint_every: usize = args.get_or("checkpoint-every", 16)?;
    let crash_rate = prob_flag(args, "crash-rate", 0.0)?;
    let crash_epochs: Vec<usize> = match args.get("crash-epochs") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<std::result::Result<_, _>>()
            .map_err(|_| {
                invalid("crash-epochs", spec, "expected a comma-separated list of epoch numbers")
            })?,
        None => Vec::new(),
    };
    let crashy = checkpoint_dir.is_some()
        || !crash_epochs.is_empty()
        || crash_rate > 0.0
        || args.get("checkpoint-every").is_some();
    let deadline = match args.get("deadline") {
        Some(v) => {
            let d: usize = v
                .parse()
                .map_err(|_| invalid("deadline", v, "must be a whole number of epochs"))?;
            if d == 0 {
                return Err(invalid("deadline", v, "a deadline needs at least 1 epoch"));
            }
            Some(d)
        }
        None => None,
    };
    let epoch_budget = match args.get("epoch-budget") {
        Some(v) => {
            let b: f64 = v
                .parse()
                .map_err(|_| invalid("epoch-budget", v, "must be a per-epoch cost budget in uJ"))?;
            if !b.is_finite() || b <= 0.0 {
                return Err(invalid(
                    "epoch-budget",
                    v,
                    "the per-epoch cost budget must be a positive finite number",
                ));
            }
            Some(b)
        }
        None => None,
    };
    let baseline = args.get("baseline").is_some_and(|v| v != "no");
    if baseline && (crashy || !faults.is_lossless()) {
        return Err(invalid(
            "baseline",
            args.get("baseline").unwrap_or("yes"),
            "the independent-runs baseline is lossless; it cannot be \
             compared against a faulty or crash-prone service run",
        ));
    }
    let robust = crashy || !faults.is_lossless() || deadline.is_some() || epoch_budget.is_some();
    if let Some(d) = deadline {
        for (_, entry) in schedule.iter_mut() {
            entry.deadline = Some(d);
        }
    }
    let model = EnergyModel::mica_like();
    let alpha = Basestation::alpha_for(&model, fleet as usize, live.len());
    let candidates = vec![0, 1, 2, 4, splits.max(1)];

    // Echo every entry's plan the way `simulate` does, planning each
    // distinct signature once (presentation only — the service itself
    // plans through its own cache). A single-entry schedule therefore
    // prints a preamble byte-identical to `acqp simulate`.
    let bs = Basestation::new(g.schema.clone(), &history);
    let mut shown: std::collections::BTreeMap<u64, (usize, usize, usize)> =
        std::collections::BTreeMap::new();
    for (text, entry) in &schedule {
        let sig = entry.query.signature();
        let (k, split_count, wire_bytes) = match shown.get(&sig) {
            Some(&v) => v,
            None => {
                let (k, planned) = bs
                    .plan_query_sized(&entry.query, alpha, &candidates)
                    .map_err(|e| format!("planning: {e}"))?;
                let v = (k, planned.plan.split_count(), planned.wire.len());
                shown.insert(sig, v);
                v
            }
        };
        println!("query : {text}");
        println!(
            "plan  : Heuristic-{k}, {split_count} splits, {wire_bytes} bytes (alpha = {alpha:.5})"
        );
    }

    let rec = recorder_from(args)?;
    // Without crash flags the crash config stays inactive (`Default`):
    // a nonzero checkpoint cadence alone would count as active.
    let crash = if crashy {
        CrashConfig { checkpoint_dir, checkpoint_every, crash_epochs, crash_rate }
    } else {
        CrashConfig::default()
    };
    let cfg = ServeConfig {
        alpha,
        candidate_splits: candidates,
        drift: DriftConfig::default(),
        faults: faults.clone(),
        crash,
        policy: ServicePolicy {
            epoch_cost_budget: epoch_budget,
            readmit_on_drift: robust,
            ..ServicePolicy::default()
        },
        collect_rows: false,
    };
    let entries: Vec<ScheduleEntry> = schedule.iter().map(|(_, e)| e.clone()).collect();
    let rep = serve_schedule(
        &g.schema,
        &history,
        &live,
        &entries,
        fleet,
        &model,
        live.len(),
        ExecMode::Scalar,
        cfg.clone(),
        &rec,
    )
    .map_err(|e| format!("serving: {e}"))?;
    if !rep.service.all_correct() {
        return Err(CliError::Usage("internal error: service verdicts diverged".into()));
    }

    let tuples = rep.service.tuples();
    println!(
        "\nsimulated {} tuples over {} motes x {} epochs: {} results",
        tuples,
        fleet,
        rep.service.epochs,
        rep.service.results()
    );
    println!(
        "energy: sensing {:.0} uJ + boards {:.0} uJ + radio {:.0} uJ = {:.0} uJ total",
        rep.service.network.sensing_uj,
        rep.service.network.board_uj,
        rep.service.network.radio_tx_uj + rep.service.network.radio_rx_uj,
        rep.service.network.total_uj()
    );
    let per_tuple = if tuples > 0 { rep.service.network.sensing_uj / tuples as f64 } else { 0.0 };
    println!("sensing energy per tuple: {per_tuple:.1} uJ");

    // Everything service-specific carries the `serve` prefix so a
    // single-query run can be byte-compared against plain `simulate`
    // by filtering these lines out.
    println!(
        "serve : {} of {} queries admitted; plan cache {} hits / {} misses / {} invalidations",
        rep.admitted,
        entries.len(),
        rep.cache_hits,
        rep.cache_misses,
        rep.cache_invalidations
    );
    println!(
        "serve : plan search expanded {} subproblems ({} on cache hits)",
        rep.total_subproblems, rep.hit_subproblems
    );
    println!(
        "serve : latency p50 {} epochs, p99 {} epochs (admission to first result)",
        rep.p50_latency_epochs, rep.p99_latency_epochs
    );
    println!(
        "serve : acquisitions {} performed / {} demanded; amortized sensing {:.1} uJ/query",
        rep.service.performed_acquisitions,
        rep.service.demanded_acquisitions,
        rep.amortized_sensing_uj_per_query
    );
    for (i, q) in rep.service.queries.iter().enumerate() {
        if !q.admitted {
            match q.shed_at {
                Some(e) => println!("serve : q{i} shed at epoch {e} by admission control"),
                None => println!("serve : q{i} never admitted (admission epoch beyond the run)"),
            }
            continue;
        }
        let lat = match q.latency_epochs {
            Some(l) => format!("first result after {l} epochs"),
            None => "no results".to_string(),
        };
        // The status suffix appears only for degraded outcomes, so a
        // lossless run's per-query lines are byte-identical to before.
        let status = match q.status {
            QueryStatus::Complete => String::new(),
            other => format!(", {}", other.label()),
        };
        println!(
            "serve : q{i} epochs {}..{}, {}/{} results, {}, {}{}",
            q.admit,
            q.completed_at,
            q.results,
            q.tuples,
            if q.cache_hit { "cached plan" } else { "planned" },
            lat,
            status
        );
    }
    // Robustness summaries print only when their feature is active, so
    // zero-rate fault flags leave a serve run's output byte-identical.
    if let Some(rob) = rep.service.robustness.as_ref() {
        if !faults.is_lossless() {
            println!(
                "faults: seed {}, delivered {}/{} results, {} lost, {} aborted tuples, \
                 {} offline epochs",
                faults.seed,
                rob.delivered_results,
                rep.service.results(),
                rob.lost_results,
                rob.aborted_tuples,
                rob.offline_epochs
            );
        }
        if epoch_budget.is_some() || deadline.is_some() {
            println!(
                "policy: {} shed, {} timed out, {} partial; {} budget deferrals, \
                 {} fairness deferrals",
                rep.shed, rep.timed_out, rep.partial, rob.budget_deferrals, rob.fairness_deferrals
            );
        }
        if rob.readmissions > 0 {
            println!(
                "policy: {} live queries re-planned onto fresh statistics after drift",
                rob.readmissions
            );
        }
        if crashy {
            println!(
                "crashes: {} injected, {} cold starts, {} corrupt snapshots, \
                 {} WAL records replayed",
                rob.crashes, rob.cold_starts, rob.corrupt_snapshots, rob.wal_replayed
            );
            println!(
                "recovery: {} checkpoints written, re-dissemination cost {:.0} uJ",
                rob.checkpoints_written, rob.recovery_rediss_uj
            );
        }
    }
    if baseline {
        let independent = independent_schedule_energy(
            &g.schema,
            &history,
            &live,
            &entries,
            fleet,
            &model,
            live.len(),
            &cfg,
        )
        .map_err(|e| format!("baseline: {e}"))?;
        println!(
            "serve : shared {:.0} uJ vs {:.0} uJ over {} independent runs ({:.2}x)",
            rep.shared_total_uj,
            independent,
            rep.admitted,
            independent / rep.shared_total_uj.max(1e-9)
        );
    }
    finish_flight(args, &rec)?;
    finish_metrics(args, &rec);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_vec(v: &[&str]) -> CliResult<()> {
        run(v.iter().map(|s| s.to_string()).collect()).map(|_| ())
    }

    #[test]
    fn usage_errors() {
        assert!(run_vec(&[]).is_err());
        assert!(run_vec(&["bogus"]).is_err());
        assert!(run_vec(&["plan", "--dataset", "lab"]).is_err(), "missing --query");
        assert!(run_vec(&["plan", "--dataset", "nope", "--query", "x > 1"]).is_err());
    }

    #[test]
    fn plan_end_to_end_small() {
        // Small lab dataset; heuristic plan.
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "lab",
                "--epochs",
                "300",
                "--motes",
                "6",
                "--query",
                "light >= 350 AND temp <= 21",
                "--splits",
                "4",
            ]),
            Ok(())
        );
    }

    #[test]
    fn plan_with_budget() {
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "lab",
                "--epochs",
                "300",
                "--motes",
                "6",
                "--query",
                "light >= 350 AND temp <= 21",
                "--splits",
                "4",
                "--plan-budget-ms",
                "5000",
            ]),
            Ok(())
        );
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "lab",
                "--epochs",
                "300",
                "--motes",
                "6",
                "--query",
                "light >= 350 AND temp <= 21",
                "--algo",
                "exhaustive",
                "--grid",
                "2",
            ]),
            Ok(())
        );
        assert!(run_vec(&[
            "plan",
            "--dataset",
            "lab",
            "--query",
            "light >= 350",
            "--plan-budget-ms",
            "abc",
        ])
        .is_err());
    }

    #[test]
    fn plan_with_trace_json_and_metrics() {
        let trace =
            std::env::temp_dir().join(format!("acqp_cli_trace_{}.jsonl", std::process::id()));
        let trace_s = trace.to_str().unwrap();
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "lab",
                "--epochs",
                "300",
                "--motes",
                "6",
                "--query",
                "light >= 350 AND temp <= 21",
                "--splits",
                "4",
                "--trace-json",
                trace_s,
                "--metrics",
                "yes",
            ]),
            Ok(())
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let span_shape = line.starts_with("{\"span\":") && line.contains("\"elapsed_us\":");
            let counter_shape = line.starts_with("{\"counter\":") && line.contains("\"value\":");
            assert!(span_shape || counter_shape, "unexpected trace line {line}");
        }
        // Planner, estimator and executor metrics all made it to the trace.
        assert!(text.contains("\"counter\":\"planner.subproblems.opened\""), "{text}");
        assert!(text.contains("\"counter\":\"estimator.mask_cache.hit\""));
        assert!(text.contains("\"counter\":\"exec.acquire."));
        assert!(text.contains("\"counter\":\"exec.pred0.est_sel\""));
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn simulate_with_metrics_table() {
        assert_eq!(
            run_vec(&[
                "simulate",
                "--dataset",
                "garden5",
                "--epochs",
                "400",
                "--query",
                "temp0 BETWEEN 5 AND 25 AND hum0 <= 90",
                "--motes",
                "2",
                "--splits",
                "2",
                "--metrics",
                "yes",
            ]),
            Ok(())
        );
    }

    #[test]
    fn info_and_gen_roundtrip() {
        assert_eq!(run_vec(&["info", "--dataset", "synthetic", "--rows", "50"]), Ok(()));
        let out = std::env::temp_dir().join("acqp_cli_gen.csv");
        let out_s = out.to_str().unwrap();
        assert_eq!(run_vec(&["gen", "synthetic", "--rows", "100", "--out", out_s]), Ok(()));
        assert!(out.exists());
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn plan_with_fallback_ladder() {
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "lab",
                "--epochs",
                "300",
                "--motes",
                "6",
                "--query",
                "light >= 350 AND temp <= 21",
                "--splits",
                "4",
                "--grid",
                "3",
                "--fallback",
                "yes",
            ]),
            Ok(())
        );
        // A starved budget descends the ladder instead of erroring.
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "lab",
                "--epochs",
                "300",
                "--motes",
                "6",
                "--query",
                "light >= 350 AND temp <= 21",
                "--fallback",
                "yes",
                "--budget",
                "1",
            ]),
            Ok(())
        );
    }

    #[test]
    fn simulate_with_crashes_and_checkpoints() {
        let dir = std::env::temp_dir().join(format!("acqp_cli_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap();
        assert_eq!(
            run_vec(&[
                "simulate",
                "--dataset",
                "garden5",
                "--epochs",
                "400",
                "--query",
                "temp0 BETWEEN 5 AND 25 AND hum0 <= 90",
                "--motes",
                "2",
                "--splits",
                "2",
                "--checkpoint-dir",
                dir_s,
                "--checkpoint-every",
                "8",
                "--crash-epochs",
                "20,60",
            ]),
            Ok(())
        );
        assert!(dir.join("wal.log").exists(), "journaling must have written a WAL");
        std::fs::remove_dir_all(&dir).ok();
        // Crashes without a checkpoint dir cold-start; still succeeds.
        assert_eq!(
            run_vec(&[
                "simulate",
                "--dataset",
                "garden5",
                "--epochs",
                "300",
                "--query",
                "temp0 BETWEEN 5 AND 25",
                "--motes",
                "2",
                "--splits",
                "2",
                "--crash-rate",
                "0.05",
            ]),
            Ok(())
        );
        // Bad crash schedules are typed flag errors.
        assert!(run_vec(&[
            "simulate",
            "--dataset",
            "garden5",
            "--epochs",
            "100",
            "--query",
            "temp0 BETWEEN 5 AND 25",
            "--crash-epochs",
            "ten,20",
        ])
        .is_err());
    }

    #[test]
    fn simulate_small() {
        assert_eq!(
            run_vec(&[
                "simulate",
                "--dataset",
                "garden5",
                "--epochs",
                "400",
                "--query",
                "temp0 BETWEEN 5 AND 25 AND hum0 <= 90",
                "--motes",
                "2",
                "--splits",
                "2",
            ]),
            Ok(())
        );
    }

    #[test]
    fn exec_flag_is_plan_only() {
        // Trace replay has two executors; --exec picks one.
        assert_eq!(
            run_vec(&[
                "plan",
                "--dataset",
                "synthetic",
                "--rows",
                "200",
                "--query",
                "x0 = 1 AND x1 = 1",
                "--splits",
                "2",
                "--exec",
                "vectorized",
            ]),
            Ok(())
        );
        assert!(run_vec(&[
            "plan",
            "--dataset",
            "synthetic",
            "--rows",
            "100",
            "--query",
            "x0 = 1",
            "--exec",
            "simd",
        ])
        .is_err());
        // simulate and serve run one kernel, so they read no --exec.
        let simulate = ["simulate", "--dataset", "garden5", "--query", "temp0 BETWEEN 5 AND 25"];
        let serve = ["serve", "--dataset", "garden5", "--schedule", "0:40:temp0 BETWEEN 5 AND 25"];
        for argv in [simulate, serve] {
            let unknown = CliError::Usage(format!("unknown flag --exec for {}", argv[0]));
            assert_eq!(run_vec(&[&argv[..], &["--exec", "vectorized"]].concat()), Err(unknown));
        }
    }

    #[test]
    fn serve_end_to_end_small() {
        assert_eq!(
            run_vec(&[
                "serve",
                "--dataset",
                "garden5",
                "--epochs",
                "300",
                "--schedule",
                "0:80:temp0 BETWEEN 5 AND 25 AND hum0 <= 90;20:60:temp0 BETWEEN 5 AND 25",
                "--motes",
                "2",
                "--splits",
                "2",
                "--baseline",
                "yes",
                "--metrics",
                "yes",
            ]),
            Ok(())
        );
    }

    #[test]
    fn serve_accepts_fault_flags_and_rejects_invalid_combinations() {
        let base = |extra: &[&str]| {
            let mut v = vec![
                "serve",
                "--dataset",
                "garden5",
                "--epochs",
                "200",
                "--schedule",
                "0:40:temp0 BETWEEN 5 AND 25",
            ];
            v.extend_from_slice(extra);
            run_vec(&v)
        };
        // Fault, crash and policy flags are serve-compatible now.
        assert_eq!(base(&["--loss-rate", "0.2", "--fault-seed", "7"]), Ok(()));
        assert_eq!(base(&["--crash-rate", "0.05"]), Ok(()));
        assert_eq!(base(&["--deadline", "8"]), Ok(()));
        assert_eq!(base(&["--epoch-budget", "500"]), Ok(()));
        // Mid-run re-planning stays `simulate`-only.
        assert!(base(&["--replan-threshold", "0.3"]).is_err());
        assert!(base(&["--sample-every", "4"]).is_err());
        // The independent baseline is meaningless under faults/crashes.
        assert!(base(&["--baseline", "yes", "--loss-rate", "0.2"]).is_err());
        assert!(base(&["--baseline", "yes", "--crash-epochs", "10"]).is_err());
        // Malformed robustness values are typed errors.
        assert!(base(&["--deadline", "0"]).is_err());
        assert!(base(&["--epoch-budget", "-1"]).is_err());
        assert!(base(&["--epoch-budget", "nan"]).is_err());
        assert!(base(&["--loss-rate", "1.5"]).is_err());
        assert!(base(&["--motes", "0"]).is_err());
        assert!(run_vec(&[
            "serve",
            "--dataset",
            "garden5",
            "--epochs",
            "200",
            "--schedule",
            "0:0:temp0 BETWEEN 5 AND 25",
        ])
        .is_err());
        assert!(run_vec(&["serve", "--dataset", "garden5", "--epochs", "200"]).is_err());
    }
}
