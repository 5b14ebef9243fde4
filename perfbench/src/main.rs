//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record and every metric with its unit as `#` lines, then one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero
//! when an argument is invalid or a declared metric could not be measured.

use perfbench::inputs::{Scale, Workload};
use perfbench::workloads::{run, RunConfig};
use std::process::ExitCode;

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        traced,
        scale: Scale::full(),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, oracle) = run(&cfg);
    let missing = report.missing(cfg.traced);
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
        return ExitCode::from(3);
    }
    print!("{}", report.render(&oracle, cfg.traced));
    ExitCode::SUCCESS
}
