//! perfbench — end-to-end and per-layer benchmark of the Veri-HVAC
//! pipeline and fleet server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload extract|decide|tick --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Scratch files, spans and the tracing-overhead report go
//! to `.bench_out/`. See `perfbench/README.md` for what each workload
//! measures and why.

mod extract;
mod gen;
mod host;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::Path;

const USAGE: &str =
    "usage: perfbench --workload extract|decide|tick --seed N --seconds S --trace 0|1";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(".bench_out");
    let result = std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))
        .and_then(|()| match args.workload.as_str() {
            "extract" => extract::run(&args, out_dir),
            "decide" => serving::run(serving::Mode::Decide, &args, out_dir),
            "tick" => serving::run(serving::Mode::Tick, &args, out_dir),
            other => Err(format!("unknown workload {other:?}\n{USAGE}")),
        })
        .and_then(|report| {
            for why in &report.failures {
                eprintln!("perfbench: check failed: {why}");
            }
            report.result_line(args.trace)
        });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "tick",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "tick".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_incomplete_or_malformed_command_lines() {
        assert!(args(&["--workload", "tick"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
