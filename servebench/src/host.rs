//! Host facts stamped on every result, and the process's peak RSS.

use std::process::Command;

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c.is_control() => " ".to_string(),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

/// `nproc`, CPU model, rustc version and git commit as one JSON object.
/// The commit is read only from a `.git` in the working directory, so a
/// checkout without history reports `unknown` rather than a parent
/// repository's commit.
pub fn facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        command_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    let commit =
        command_line(Command::new("git").env("GIT_DIR", ".git").args(["rev-parse", "HEAD"]))
            .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit)
    )
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` lacks it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds this thread has spent on a CPU (`/proc/thread-self/schedstat`),
/// or 0 where the kernel does not report it. Unlike wall time it leaves
/// out time the thread was runnable but waiting for a CPU.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}
