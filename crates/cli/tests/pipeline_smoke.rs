//! The file-based `gen` → `ace` → `sart` pipeline, end to end through the
//! CLI binary on a small generated design:
//!
//! - every step run with `--trace-out` writes a trace that passes the
//!   `seqavf-trace/1` schema validator;
//! - the incremental (dirty-FUB) relaxation writes byte-identical `--out`
//!   AVFs to full sweeps, at one thread and at eight (DESIGN.md §9).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("seqavf-cli-pipeline-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_ok(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_seqavf"))
        .args(args)
        .output()
        .expect("spawning seqavf");
    assert!(
        out.status.success(),
        "seqavf {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Checks a trace against the `seqavf-trace/1` schema; it must hold at
/// least one span.
fn assert_valid_trace(p: &str) {
    let text = std::fs::read_to_string(Path::new(p)).unwrap();
    let stats = seqavf_obs::ndjson::validate_trace(&text)
        .unwrap_or_else(|e| panic!("trace {p} invalid: {e}"));
    assert!(stats.spans > 0, "trace {p} holds no span");
}

#[test]
fn pipeline_traces_validate_against_the_schema() {
    let s = Scratch::new("trace");
    let (design, map, pavf) = (
        s.file("smoke.exlif"),
        s.file("smoke.map"),
        s.file("pavf.json"),
    );
    let traces = [
        s.file("gen.ndjson"),
        s.file("ace.ndjson"),
        s.file("sart.ndjson"),
    ];
    run_ok(&[
        "gen",
        "--out",
        &design,
        "--map",
        &map,
        "--scale",
        "0.3",
        "--trace-out",
        &traces[0],
        "--metrics",
    ]);
    run_ok(&[
        "ace",
        "--out",
        &pavf,
        "--workloads",
        "4",
        "--len",
        "1000",
        "--trace-out",
        &traces[1],
    ]);
    run_ok(&[
        "sart",
        "--design",
        &design,
        "--map",
        &map,
        "--pavf",
        &pavf,
        "--threads",
        "2",
        "--trace-out",
        &traces[2],
        "--metrics",
    ]);
    for trace in &traces {
        assert_valid_trace(trace);
    }
}

#[test]
fn incremental_relaxation_writes_the_bytes_of_full_sweeps() {
    let s = Scratch::new("incremental");
    let (design, map, pavf) = (s.file("inc.exlif"), s.file("inc.map"), s.file("pavf.json"));
    run_ok(&["gen", "--out", &design, "--map", &map, "--scale", "0.3"]);
    run_ok(&["ace", "--out", &pavf, "--workloads", "4", "--len", "1000"]);
    // `flag` is `--no-incremental`, `--global` or nothing.
    let sart = |threads: &str, flag: Option<&str>| {
        let out = s.file(&format!(
            "avf-{}-t{threads}.json",
            flag.unwrap_or("--inc").trim_start_matches('-')
        ));
        let mut args = vec![
            "sart",
            "--design",
            &design,
            "--map",
            &map,
            "--pavf",
            &pavf,
            "--threads",
            threads,
            "--out",
            &out,
        ];
        args.extend(flag);
        run_ok(&args);
        std::fs::read(&out).unwrap()
    };
    let reference = sart("1", None);
    assert!(!reference.is_empty());
    // The whole design as one partition (`--global`) reaches the same
    // fixpoint, so it writes the same bytes too.
    for threads in ["1", "8"] {
        for flag in [None, Some("--no-incremental"), Some("--global")] {
            assert!(
                sart(threads, flag) == reference,
                "--threads {threads} {} changed the AVF output",
                flag.unwrap_or("")
            );
        }
    }
}
