//! The repository benchmark: one seeded command, three workloads.
//!
//! ```text
//! mayflower-perfbench --workload <fs-small-read|fs-bulk-read|sim-paper64>
//!                     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics — the same names on every workload; the last
//! line of standard output is the JSON result. `perfbench/README.md`
//! describes the workloads and metrics; `perfbench/run.py` builds this
//! binary, runs it and adds each process's peak RSS.

mod common;
mod fs;
mod layers;
mod sim;

use common::Args;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "fs-small-read" => fs::run_small(&args),
        "fs-bulk-read" => fs::run_bulk(&args),
        "sim-paper64" => sim::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.print();
}
