//! End-to-end benchmark of the fact-checking engine: the validation loop,
//! a served stream under query load, and durable ingest with crash
//! recovery, each with a traced per-layer run.
//!
//! ```text
//! perfbench --workload <validate|serve_mixed|durable_recover> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>] [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The lines
//! before it give every metric under the name of the path it measures,
//! the checks that ran and the run's environment; the same record, and in
//! a traced run every span, is written under the work directory.

mod driver;
mod durable_recover;
mod live;
mod metrics;
mod report;
mod serve_mixed;
mod stats;
mod storage;
mod trace;
mod validate;

use report::{Environment, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["validate", "serve_mixed", "durable_recover"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    work_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut work_dir = PathBuf::from(".bench_run");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--commit" => commit = value.clone(),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        commit,
        work_dir,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon_threads = rayon::current_num_threads();
    let env = Environment {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        commit: args.commit.clone(),
        nproc,
        rayon_threads,
        worker_threads: match args.workload.as_str() {
            // The E-step's parallel region; the driver thread waits on it.
            "validate" => rayon_threads,
            // Writer and reader.
            "serve_mixed" => 2,
            _ => 1,
        },
    };
    if env.worker_threads > nproc {
        eprintln!(
            "perfbench: {} needs {} threads, the machine has {nproc}",
            env.workload, env.worker_threads
        );
        return ExitCode::from(2);
    }

    let mut out = Outcome::default();
    let tracer = match args.workload.as_str() {
        "validate" => validate::run(args.seed, args.seconds, args.trace, &mut out),
        "serve_mixed" => serve_mixed::run(args.seed, args.seconds, args.trace, &mut out),
        _ => durable_recover::run(
            args.seed,
            args.seconds,
            args.trace,
            &args.work_dir,
            &mut out,
        ),
    };

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if let Some(tr) = &tracer {
        let path = args.work_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(tr.spans())) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let record = record_json(&env, &out);
    let path = args.work_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    println!(
        "# {} seed {} trace {}",
        env.workload, env.seed, env.trace as u8
    );
    for m in &out.named {
        println!(
            "  {:<32} {:>16.4} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<32} {:>16.4} {:<10}",
        "failed_ratio",
        failed_ratio(&out),
        "fraction"
    );
    println!("# metrics");
    for m in &out.metrics {
        println!(
            "  {:<32} {:>16.4} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "# checks: {} run, {} failed",
        out.checks_run,
        out.check_failures.len()
    );
    for f in out.check_failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    println!("# environment {}", env.to_json());
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

fn failed_ratio(out: &Outcome) -> f64 {
    out.failed as f64 / out.attempted.max(1) as f64
}

/// The run's full record: environment, result, metrics under both names,
/// and failed checks.
fn record_json(env: &Environment, out: &Outcome) -> String {
    let list = |ms: &[report::Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"note\": {}}}",
                    report::json_string(&m.name),
                    report::json_number(if m.value.is_finite() { m.value } else { 0.0 }),
                    report::json_string(m.unit),
                    report::json_string(&m.note)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ")
    };
    let failures = out
        .check_failures
        .iter()
        .map(|f| report::json_string(f))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"environment\": {},\n  \"result\": {},\n  \"failed_ratio\": {},\n  \"checks_run\": {},\n  \"check_failures\": [{failures}],\n  \"metrics\": [\n    {}\n  ],\n  \"paths\": [\n    {}\n  ]\n}}\n",
        env.to_json(),
        out.result_line(),
        report::json_number(failed_ratio(out)),
        out.checks_run,
        list(&out.metrics),
        list(&out.named)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse(&args("--workload validate --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("validate", 3, 10, true)
        );
        assert_eq!(a.work_dir, PathBuf::from(".bench_run"));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload validate --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload validate --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload validate --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("--workload validate --seed")).is_err());
    }
}
