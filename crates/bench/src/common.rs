//! Shared experiment scaffolding: standard design/suite scales, a
//! provenance stamp for every report, and a tiny output helper.

use serde::{Deserialize, Serialize};

use seqavf_core::engine::SartConfig;
use seqavf_netlist::synth::SynthConfig;
use seqavf_perf::pipeline::PerfConfig;
use seqavf_workloads::suite::SuiteConfig;

/// Experiment scale, selectable from the command line (`--scale full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast: small design, few short workloads. The default.
    Quick,
    /// The paper-scale run: full Xeon-like design, 547 workloads.
    Full,
}

impl Scale {
    /// Parses a bin's arguments (after the program name). Exactly three
    /// forms are accepted: none, `--scale quick` and `--scale full`; any
    /// other token is an error naming it, so a mistyped scale never runs
    /// quick and overwrites a full-scale report.
    fn parse(args: &[String]) -> Result<Scale, String> {
        let mut tokens = args.iter().map(String::as_str);
        let scale = match tokens.next() {
            None => return Ok(Scale::Quick),
            Some("--scale") => match tokens.next() {
                Some("quick") => Scale::Quick,
                Some("full") => Scale::Full,
                Some(other) => return Err(format!("--scale takes quick or full, not `{other}`")),
                None => return Err("flag --scale requires a value".to_owned()),
            },
            Some(other) => return Err(format!("unexpected argument `{other}`")),
        };
        match tokens.next() {
            None => Ok(scale),
            Some(other) => Err(format!("unexpected argument `{other}`")),
        }
    }

    /// Reads the scale from the process's arguments (the three forms
    /// `parse` accepts). A usage error is printed and exits with status 1,
    /// as the `seqavf` CLI does.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::parse(&args).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: [--scale quick|full]");
            std::process::exit(1)
        })
    }
}

/// Measurement provenance stamped into every `BENCH_*.json`, so any
/// recorded ratio can be traced to the exact design revision and host
/// concurrency that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Hex content digest of the (base) benchmarked netlist.
    pub design_digest: String,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// wall-clock speedups above 1.0 require this to exceed 1.
    pub host_parallelism: usize,
    /// Thread counts exercised by the experiment.
    pub threads: Vec<usize>,
}

impl Provenance {
    /// Captures the stamp for a run over `threads` of a design whose
    /// content digest is `design_digest`.
    pub fn capture(design_digest: u64, threads: &[usize]) -> Provenance {
        Provenance {
            design_digest: format!("{design_digest:016x}"),
            host_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            threads: threads.to_vec(),
        }
    }
}

/// The standard flow configuration for experiments at a scale.
pub fn flow_config(scale: Scale, seed: u64) -> seqavf::flow::FlowConfig {
    let sart = SartConfig {
        boundary_in_pavf: 0.35,
        boundary_out_pavf: 0.35,
        ..SartConfig::default()
    };
    match scale {
        Scale::Quick => seqavf::flow::FlowConfig {
            design: SynthConfig::xeon_like(seed).scaled(0.5),
            suite: SuiteConfig {
                workloads: 12,
                len: 3_000,
                ..SuiteConfig::default()
            },
            perf: PerfConfig::default(),
            sart,
            graph_cache: None,
        },
        Scale::Full => seqavf::flow::FlowConfig {
            design: SynthConfig::xeon_like(seed).scaled(3.0),
            suite: SuiteConfig::default(),
            perf: PerfConfig::default(),
            sart,
            graph_cache: None,
        },
    }
}

/// Writes a report JSON under `results/` (created if absent, next to the
/// binary's working directory) and prints the text rendering.
pub fn emit(name: &str, text: &str, json: &impl serde::Serialize) {
    println!("{text}");
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match serde_json::to_string_pretty(json) {
        Ok(s) => {
            if std::fs::write(&path, s).is_ok() {
                println!("[report written to {path}]");
            }
        }
        Err(e) => eprintln!("could not serialize report: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Scale, String> {
        Scale::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_accepts_exactly_three_forms() {
        assert_eq!(parse(&[]), Ok(Scale::Quick));
        assert_eq!(parse(&["--scale", "quick"]), Ok(Scale::Quick));
        assert_eq!(parse(&["--scale", "full"]), Ok(Scale::Full));
    }

    #[test]
    fn mistyped_scale_names_the_offending_token() {
        for (args, token) in [
            (&["--scale", "Full"][..], "`Full`"),
            (&["--scale", "fulll"], "`fulll`"),
            (&["--scale=full"], "`--scale=full`"),
            (&["full"], "`full`"),
            (&["--scale", "full", "extra"], "`extra`"),
            (&["--scale", "quick", "--scale", "full"], "`--scale`"),
        ] {
            let err = parse(args).expect_err("must be rejected");
            assert!(err.contains(token), "{args:?}: {err}");
        }
        assert_eq!(
            parse(&["--scale"]),
            Err("flag --scale requires a value".to_owned())
        );
    }

    #[test]
    fn quick_config_is_smaller_than_full() {
        let q = flow_config(Scale::Quick, 1);
        let f = flow_config(Scale::Full, 1);
        assert!(q.suite.workloads < f.suite.workloads);
    }
}
