//! The seqavf benchmark: four seeded workloads that time what a user of
//! the tool flow and of the AVF server waits for, check every answer bit
//! for bit against a reference computed outside the timed region, and —
//! in a separate traced run — attribute each op's wall time to the layers
//! (crates) it passed through.
//!
//! | workload     | load                                   | stresses                      |
//! |--------------|----------------------------------------|-------------------------------|
//! | `cold-sweep` | closed loop, one client                | ACE, parse/flatten, relax, compile |
//! | `edit-loop`  | closed loop, chained one-gate edits    | warm relax, DAG patch, fixed per-edit floor |
//! | `serve-query`| open loop, Poisson 40 req/s, 16 tables | request decode, resident query path |
//! | `serve-mixed`| open loop, 200 queries/s + 1 update/s  | transport; updates vs reads   |

mod attrib;
pub mod heap;
pub mod inputs;
mod library;
pub mod report;
mod serve;
pub mod server;
pub mod stats;
mod sys;

use std::path::PathBuf;

use seqavf_obs::Collector;

use inputs::{Design, Size};
use report::Outcome;

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: &[&str] = &["cold-sweep", "edit-loop", "serve-query", "serve-mixed"];

/// Relaxation and evaluation threads of the library workloads. One: on
/// the two-vCPU host this benchmark was built on, two threads made the
/// cold sweep both slower (median 404–491 ms against 315–362 ms) and
/// noisier, and every thread count gives bit-identical answers.
pub const LIBRARY_THREADS: usize = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Tail percentile of open-loop query latency (`serve.query_p90_ms`).
pub const QUERY_TAIL: f64 = 0.9;

/// What one workload run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Small designs, short traces, minimum op counts.
    pub smoke: bool,
    /// Enabled for the traced run, disabled otherwise.
    pub obs: Collector,
    /// Scratch directory for design files and caches.
    pub workdir: PathBuf,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.obs.is_enabled()
    }

    /// The big design, or its small stand-in in smoke runs.
    pub fn big(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Big
        }
    }

    /// Instructions per ACE trace.
    pub fn trace_len(&self) -> usize {
        if self.smoke {
            1_000
        } else {
            5_000
        }
    }

    /// Provenance shared by every workload, plus `extra`.
    pub fn provenance(
        &self,
        designs: &[&Design],
        extra: &[(&str, String)],
    ) -> Vec<(String, String)> {
        let mut p = vec![
            ("seed".to_owned(), self.seed.to_string()),
            (
                "mode".to_owned(),
                if self.traced() { "traced" } else { "untraced" }.to_owned(),
            ),
            ("smoke".to_owned(), self.smoke.to_string()),
            (
                "host_parallelism".to_owned(),
                sys::host_parallelism().to_string(),
            ),
            (
                "git_head".to_owned(),
                sys::git_revision().unwrap_or_else(|| "unavailable".to_owned()),
            ),
        ];
        for d in designs {
            p.push((
                format!("design.{}", d.size.label()),
                format!("digest {:016x}, {} nodes", d.digest, d.nodes),
            ));
        }
        p.extend(extra.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        p
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.workdir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.workdir.display()))?;
    match name {
        "cold-sweep" => library::cold_sweep(ctx),
        "edit-loop" => library::edit_loop(ctx),
        "serve-query" => serve::serve_query(ctx),
        "serve-mixed" => serve::serve_mixed(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
