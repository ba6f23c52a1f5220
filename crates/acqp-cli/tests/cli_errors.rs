//! End-to-end CLI tests through the real binary: typed errors for bad
//! user input exit nonzero with a structured message, and the fault
//! flags keep the documented determinism guarantees.

use std::process::{Command, Output};

fn acqp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_acqp")).args(args).output().expect("spawning the acqp binary")
}

const SIM: &[&str] = &[
    "simulate",
    "--dataset",
    "garden5",
    "--epochs",
    "240",
    "--query",
    "temp0 BETWEEN 5 AND 25 AND hum0 <= 90",
    "--motes",
    "2",
    "--splits",
    "2",
];

fn sim_with(extra: &[&str]) -> Output {
    let mut v: Vec<&str> = SIM.to_vec();
    v.extend_from_slice(extra);
    acqp(&v)
}

fn assert_rejected(out: &Output, needle: &str, ctx: &str) {
    assert!(!out.status.success(), "{ctx}: expected nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{ctx}: stderr missing `{needle}`:\n{stderr}");
}

#[test]
fn malformed_trace_path_is_a_typed_io_error() {
    let out = sim_with(&["--trace-json", "/nonexistent-dir/trace.jsonl"]);
    assert_rejected(&out, "io error on", "bad --trace-json path");
}

#[test]
fn out_of_range_fault_flags_are_typed_errors() {
    let out = sim_with(&["--loss-rate", "1.5"]);
    assert_rejected(&out, "invalid value `1.5` for --loss-rate", "loss rate above 1");

    let out = sim_with(&["--sensing-fail", "-0.1"]);
    assert_rejected(&out, "invalid value", "negative sensing-fail");

    let out = sim_with(&["--max-attempts", "0"]);
    assert_rejected(&out, "invalid value `0` for --max-attempts", "zero attempts");

    let out = sim_with(&["--dropout", "0:9:3"]);
    assert_rejected(&out, "invalid value", "dropout window with from >= until");

    let out = sim_with(&["--dropout", "banana"]);
    assert_rejected(&out, "invalid value", "unparseable dropout spec");
}

#[test]
fn zero_motes_and_bad_replan_threshold_are_typed_errors() {
    let mut v: Vec<&str> = SIM.to_vec();
    let m = v.iter().position(|a| *a == "--motes").unwrap();
    v[m + 1] = "0";
    assert_rejected(&acqp(&v), "invalid value `0` for --motes", "zero motes");

    let out = sim_with(&["--replan-threshold", "1.5"]);
    assert_rejected(&out, "invalid value `1.5` for --replan-threshold", "threshold above 1");

    let out = sim_with(&["--replan-threshold", "0"]);
    assert_rejected(&out, "invalid value `0` for --replan-threshold", "zero threshold");
}

#[test]
fn zero_loss_faulty_flags_leave_output_bitwise_identical() {
    let base = acqp(SIM);
    assert!(base.status.success(), "{}", String::from_utf8_lossy(&base.stderr));
    let zero = sim_with(&["--loss-rate", "0.0", "--fault-seed", "99"]);
    assert!(zero.status.success(), "{}", String::from_utf8_lossy(&zero.stderr));
    assert_eq!(base.stdout, zero.stdout, "loss-rate 0 must not perturb output");
}

#[test]
fn lossy_runs_are_deterministic_for_a_fixed_seed() {
    let flags = &["--loss-rate", "0.3", "--fault-seed", "7", "--sensing-fail", "0.1"];
    let a = sim_with(flags);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = sim_with(flags);
    assert_eq!(a.stdout, b.stdout, "same seed must reproduce the run bitwise");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("faults: seed 7"), "lossy run must print the fault summary:\n{text}");
}

#[test]
fn adaptive_run_prints_replan_summary() {
    let out = sim_with(&["--replan-threshold", "0.2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replans:"), "adaptive run must print the replan summary:\n{text}");
}

/// Every fault / re-plan / crash flag, with a value that activates it.
/// `simulate` accepts them all; `serve` all but the re-plan family.
const ENGINE_FORKING: &[(&str, &str)] = &[
    ("--loss-rate", "0.2"),
    ("--sensing-fail", "0.1"),
    ("--dropout", "0:3:9"),
    ("--max-attempts", "2"),
    ("--fault-seed", "7"),
    ("--replan-threshold", "0.3"),
    ("--checkpoint-every", "8"),
    ("--checkpoint-dir", "/tmp/acqp_cli_fault_flags_ckpt"),
    ("--crash-epochs", "20"),
    ("--crash-rate", "0.05"),
];

#[test]
fn simulate_accepts_each_engine_forking_flag() {
    for (flag, value) in ENGINE_FORKING {
        let out = sim_with(&[*flag, *value]);
        assert!(
            out.status.success(),
            "{flag} {value} must run on the simulation engine:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all("/tmp/acqp_cli_fault_flags_ckpt").ok();
}

const SERVE: &[&str] = &[
    "serve",
    "--dataset",
    "garden5",
    "--epochs",
    "240",
    "--schedule",
    "0:60:temp0 BETWEEN 5 AND 25 AND hum0 <= 90;10:40:temp0 BETWEEN 5 AND 25",
    "--motes",
    "2",
    "--splits",
    "2",
];

fn serve_with(extra: &[&str]) -> Output {
    let mut v: Vec<&str> = SERVE.to_vec();
    v.extend_from_slice(extra);
    acqp(&v)
}

/// Fault and crash flags are serve-compatible since the fault-tolerant
/// service landed; only the mid-run re-plan family stays
/// `simulate`-only (the service re-plans through its drift policy).
#[test]
fn serve_accepts_fault_and_crash_flags_but_rejects_replan_flags() {
    for (flag, value) in ENGINE_FORKING {
        let out = serve_with(&[*flag, *value]);
        if *flag == "--replan-threshold" {
            assert_rejected(&out, &format!("invalid value `{value}` for {flag}"), flag);
            assert_rejected(&out, "drift policy", flag);
        } else {
            assert!(
                out.status.success(),
                "{flag} {value} must run on the robust service:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    for (flag, value) in [("--replan-budget", "1000"), ("--sample-every", "4")] {
        let out = serve_with(&[flag, value]);
        assert_rejected(&out, &format!("invalid value `{value}` for {flag}"), flag);
    }
    std::fs::remove_dir_all("/tmp/acqp_cli_fault_flags_ckpt").ok();
}

/// Combinations the robust service still cannot honor stay typed
/// errors: the independent-runs baseline is only meaningful
/// losslessly, and malformed policy values are refused.
#[test]
fn serve_rejects_still_invalid_flag_combinations() {
    let out = serve_with(&["--baseline", "yes", "--loss-rate", "0.2"]);
    assert_rejected(&out, "invalid value `yes` for --baseline", "baseline + loss");
    let out = serve_with(&["--baseline", "yes", "--crash-rate", "0.05"]);
    assert_rejected(&out, "invalid value `yes` for --baseline", "baseline + crashes");
    let out = serve_with(&["--deadline", "0"]);
    assert_rejected(&out, "invalid value `0` for --deadline", "zero deadline");
    let out = serve_with(&["--epoch-budget", "-5"]);
    assert_rejected(&out, "invalid value `-5` for --epoch-budget", "negative budget");
}

#[test]
fn loss_zero_serve_output_is_bitwise_identical_to_default() {
    let base = serve_with(&[]);
    assert!(base.status.success(), "{}", String::from_utf8_lossy(&base.stderr));
    let text = String::from_utf8_lossy(&base.stdout);
    assert!(text.contains("serve : 2 of 2 queries admitted"), "{text}");
    let zero = serve_with(&["--loss-rate", "0.0", "--crash-rate", "0.0", "--fault-seed", "123"]);
    assert!(zero.status.success(), "{}", String::from_utf8_lossy(&zero.stderr));
    assert_eq!(base.stdout, zero.stdout, "loss-0/no-crash serve must match a flagless run");
}

#[test]
fn lossy_serve_runs_are_deterministic_for_a_fixed_seed() {
    let flags = &["--loss-rate", "0.25", "--fault-seed", "11", "--sensing-fail", "0.05"];
    let a = serve_with(flags);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = serve_with(flags);
    assert_eq!(a.stdout, b.stdout, "same seed must reproduce the serve run bitwise");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("faults: seed 11"), "lossy serve must print the fault summary:\n{text}");
}

#[test]
fn serve_rejects_malformed_schedules_with_typed_errors() {
    let cases: &[(&str, &str)] = &[
        ("temp0 <= 25", "expected admit:window:<expr>"),
        ("0:60", "expected admit:window:<expr>"),
        ("x:60:temp0 <= 25", "admission epoch must be a whole number"),
        ("0:x:temp0 <= 25", "window must be a whole number"),
        ("0:0:temp0 <= 25", "at least 1 epoch"),
        ("0:60:temp0 <= 25;;", "expected admit:window:<expr>"),
    ];
    for (spec, needle) in cases {
        let mut v: Vec<&str> = SERVE.to_vec();
        let s = v.iter().position(|a| *a == "--schedule").unwrap();
        v[s + 1] = spec;
        assert_rejected(&acqp(&v), needle, spec);
    }
    let mut v: Vec<&str> = SERVE.to_vec();
    let s = v.iter().position(|a| *a == "--schedule").unwrap();
    v[s + 1] = "0:60:bogus_attr <= 25";
    let out = acqp(&v);
    assert!(!out.status.success(), "unknown attribute in a schedule must fail");
}

/// A flag the subcommand never reads fails with exit 1 and names the
/// flag instead of silently running with defaults: removed options
/// (`plan --threads`, `simulate --exec`, `serve --exec`) and a misspelt
/// one (`--loss-rte`) alike.
#[test]
fn flags_a_subcommand_never_reads_are_rejected() {
    let out = acqp(&[
        "plan",
        "--dataset",
        "lab",
        "--epochs",
        "300",
        "--query",
        "light >= 350 AND temp <= 21",
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "plan --threads must exit 1");
    assert_rejected(&out, "unknown flag --threads for plan", "plan --threads");
    assert!(out.stdout.is_empty(), "rejected before any planning output");

    let out = sim_with(&["--loss-rte", "0.1"]);
    assert_eq!(out.status.code(), Some(1), "misspelt simulate flag must exit 1");
    assert_rejected(&out, "unknown flag --loss-rte for simulate", "simulate --loss-rte");
    assert!(out.stdout.is_empty(), "rejected before any simulation output");

    // simulate and serve run one slot kernel; only `plan` replays
    // traces through two executors.
    let out = sim_with(&["--exec", "vectorized"]);
    assert_eq!(out.status.code(), Some(1), "simulate --exec must exit 1");
    assert_rejected(&out, "unknown flag --exec for simulate", "simulate --exec");
    assert!(out.stdout.is_empty(), "rejected before any simulation output");
    let out = serve_with(&["--exec", "scalar"]);
    assert_eq!(out.status.code(), Some(1), "serve --exec must exit 1");
    assert_rejected(&out, "unknown flag --exec for serve", "serve --exec");
    assert!(out.stdout.is_empty(), "rejected before any serve output");
}
