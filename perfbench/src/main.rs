//! The repository benchmark: end-to-end and per-layer measurements of
//! the PyGB stack (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dsl-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, and the Chrome trace of the
//! traced calls is written under `target/perfbench/` (or
//! `$CARGO_TARGET_DIR/perfbench/`). The exit code is nonzero when any
//! output differs from the reference or any operation fails.

mod dsl;
mod fig10;
mod load;
mod oracle;
mod probes;
mod report;
mod respond;
mod spans;
mod window;
mod workloads;

use std::process::ExitCode;

use workloads::Run;

const USAGE: &str = "usage: perfbench --workload <dsl-small|dsl-large> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace {t}: want 0 or 1")),
                })
            }
            "--tiny" => tiny = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            tiny,
        },
    ))
}

/// Output of a command, trimmed, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and build a result belongs to, as one JSON object.
fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let esc = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"commit\":\"{}\",\"rustc\":\"{}\"}}",
        esc(cpu),
        esc(command_output("git", &["rev-parse", "HEAD"])),
        esc(command_output("rustc", &["--version"])),
    )
}

fn main() -> ExitCode {
    // A stray tunable silently changes the measured program (PYGB_PASSES
    // drops tokens it does not know), so refuse to measure under one.
    let tunables: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PYGB_"))
        .collect();
    if !tunables.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set",
            tunables.join(", ")
        );
        return ExitCode::from(2);
    }
    let (workload, run) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = environment_json();
    eprintln!(
        "perfbench: {workload} seed={} seconds={} trace={} env={env}",
        run.seed, run.seconds, run.trace
    );
    let outcome = match workload.as_str() {
        "dsl-small" => workloads::dsl(256, &run),
        "dsl-large" => workloads::dsl(2048, &run),
        w => Err(format!("unknown workload `{w}`\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(trace) = &outcome.chrome_trace {
        let dir = std::path::Path::new(
            &std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
        )
        .join("perfbench");
        let path = dir.join(format!("trace-{workload}-{}.json", run.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => eprintln!("perfbench: Chrome trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"environment\":{env}}}",
        run.seed
    );
    println!("{}", report::result_line(&outcome.tally, &outcome.metrics));
    if outcome.tally.failed() > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed or differ from the reference",
            outcome.tally.failed(),
            outcome.tally.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
