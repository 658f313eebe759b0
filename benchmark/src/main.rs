//! `seqavf-benchmark`: runs the benchmark workloads and prints every
//! metric by name with its unit; exits non-zero if any answer was wrong.
//!
//! ```text
//! seqavf-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--trace-out PATH] [--json PATH] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! each workload's output is its result as one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! untraced, per-layer metrics with `--trace 1`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use seqavf_benchmark::{run_workload, Ctx, WORKLOADS};
use seqavf_obs::Collector;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| (*w).to_owned()).collect(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        trace_out: None,
        json: None,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("one of {}", WORKLOADS.join(", "))));
                }
                args.workloads = vec![value];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value.into()),
            "--json" => args.json = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.trace_out.is_some() {
        args.trace = true;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seqavf-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        obs: if args.trace {
            Collector::new()
        } else {
            Collector::disabled()
        },
        workdir: workdir.clone(),
    };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("seqavf-benchmark: some answers differed from the reference");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("seqavf-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the selected workloads; `Ok(false)` when any answer was wrong.
fn run(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let mut all_correct = true;
    let mut reports = Vec::new();
    for name in &args.workloads {
        let outcome = run_workload(name, ctx)?;
        all_correct &= outcome.correct();
        let mut out = std::io::stdout().lock();
        let _ = write!(out, "{}", outcome.render());
        let _ = writeln!(out, "{}", outcome.result_line());
        let _ = out.flush();
        reports.push(outcome.to_value());
    }
    if let Some(path) = &args.json {
        let text =
            serde_json::to_string_pretty(&serde::Value::Arr(reports)).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let Some(path) = &args.trace_out {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let workloads = args.workloads.join(",");
        let seed = args.seed.to_string();
        ctx.obs
            .write_ndjson(
                &mut file,
                &[
                    ("cmd", "seqavf-benchmark"),
                    ("workloads", &workloads),
                    ("seed", &seed),
                ],
            )
            .and_then(|()| file.flush())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}
