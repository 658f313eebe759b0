//! The frontend at production scale, end to end through the CLI: a
//! ~100k-node design (8 replicated cores behind a shared uncore) solved
//! twice against a `--graph-cache`. The first run must miss the snapshot
//! and the second hit it, with byte-identical output and schema-valid
//! traces, and each `sart` run must finish inside a wall-time budget so
//! a frontend or solver regression at scale fails the suite.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Wall-time budget of one `sart` run.
const SART_BUDGET: Duration = Duration::from_secs(120);

/// Runs `seqavf args` with its output in `log`, killing it and failing
/// once it outlives `budget`.
fn run_within(args: &[&str], log: &Path, budget: Duration) {
    let out = std::fs::File::create(log).unwrap();
    let start = Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_seqavf"))
        .args(args)
        .stdout(Stdio::from(out.try_clone().unwrap()))
        .stderr(Stdio::from(out))
        .spawn()
        .expect("spawning seqavf");
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > budget {
            let _ = child.kill();
            let _ = child.wait();
            panic!("seqavf {args:?} ran past its {budget:?} budget");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.success(),
        "seqavf {args:?} failed:\n{}",
        std::fs::read_to_string(log).unwrap_or_default()
    );
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Reads a trace and checks it against the `seqavf-trace/1` schema.
fn valid_trace(p: &Path) -> String {
    let text = std::fs::read_to_string(p).unwrap();
    seqavf_obs::ndjson::validate_trace(&text)
        .unwrap_or_else(|e| panic!("trace {} invalid: {e}", p.display()));
    text
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn production_scale_sart_hits_its_graph_snapshot_within_budget() {
    let dir =
        Scratch(std::env::temp_dir().join(format!("seqavf-cli-scale-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).unwrap();
    let file = |name: &str| dir.0.join(name);
    let (design, map, pavf, cache) = (
        file("scale.exlif"),
        file("scale.map"),
        file("pavf.json"),
        file("graph-cache"),
    );
    let no_budget = Duration::MAX;
    run_within(
        &[
            "gen",
            "--out",
            path(&design),
            "--map",
            path(&map),
            "--scale",
            "2",
            "--cores",
            "8",
        ],
        &file("gen.log"),
        no_budget,
    );
    run_within(
        &[
            "ace",
            "--out",
            path(&pavf),
            "--workloads",
            "4",
            "--len",
            "1000",
        ],
        &file("ace.log"),
        no_budget,
    );
    let sart = |run: usize| {
        let (out, trace) = (
            file(&format!("avf{run}.json")),
            file(&format!("scale{run}.ndjson")),
        );
        run_within(
            &[
                "sart",
                "--design",
                path(&design),
                "--map",
                path(&map),
                "--pavf",
                path(&pavf),
                "--threads",
                "8",
                "--graph-cache",
                path(&cache),
                "--out",
                path(&out),
                "--trace-out",
                path(&trace),
            ],
            &file(&format!("sart{run}.log")),
            SART_BUDGET,
        );
        (valid_trace(&trace), std::fs::read(&out).unwrap())
    };
    let (cold_trace, cold) = sart(1);
    assert!(cold_trace.contains("frontend.snapshot.miss"));
    let (warm_trace, warm) = sart(2);
    assert!(warm_trace.contains("frontend.snapshot.hit"));
    assert!(!warm_trace.contains("frontend.snapshot.miss"));
    assert_eq!(warm, cold, "the snapshot changed the output");
}
