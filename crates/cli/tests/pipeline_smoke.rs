//! The file-based `gen` → `ace` → `sart` pipeline, end to end through the
//! CLI binary on a small generated design:
//!
//! - every step run with `--trace-out` writes a trace that passes the
//!   `seqavf-trace/1` schema validator;
//! - the relaxation writes byte-identical `--out` AVFs at one thread and
//!   at eight (DESIGN.md §9), and the retired `--global` and
//!   `--no-incremental` switches are usage errors;
//! - an `--iterations` cap outside [1, 10000] is a usage error.

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

/// Runs `seqavf` expecting a usage error (exit code 1) and returns its
/// stderr.
fn run_usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_seqavf"))
        .args(args)
        .output()
        .expect("spawning seqavf");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seqavf {args:?}:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
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
    let sart = |threads: &str| {
        let out = s.file(&format!("avf-t{threads}.json"));
        let args = [
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
        run_ok(&args);
        std::fs::read(&out).unwrap()
    };
    let reference = sart("1");
    assert!(!reference.is_empty());
    assert!(sart("8") == reference, "--threads 8 changed the AVF output");
    // No switch selects another relaxation schedule.
    for (flag, commands) in [
        ("--global", ["sart", "sweep", "validate", "query"]),
        ("--no-incremental", ["sart", "sweep", "validate", "flow"]),
    ] {
        for command in commands {
            let err = run_usage_error(&[command, flag]);
            assert!(
                err.contains(&format!("unknown flag {flag}")),
                "{command} {flag}: {err}"
            );
        }
    }
}

#[test]
fn iteration_caps_outside_one_to_ten_thousand_are_usage_errors() {
    let s = Scratch::new("iterations");
    let (design, map, pavf) = (s.file("it.exlif"), s.file("it.map"), s.file("pavf.json"));
    run_ok(&["gen", "--out", &design, "--map", &map, "--scale", "0.3"]);
    run_ok(&["ace", "--out", &pavf, "--workloads", "4", "--len", "1000"]);
    for n in ["0", "10001"] {
        for command in ["sart", "sweep"] {
            let err = run_usage_error(&[
                command,
                "--design",
                &design,
                "--map",
                &map,
                "--pavf",
                &pavf,
                "--iterations",
                n,
            ]);
            assert!(
                err.contains(&format!(
                    "flag --iterations: must be in [1, 10000], got {n}"
                )),
                "{command} --iterations {n}: {err}"
            );
        }
    }
    // `query` refuses the cap before its ACE run or any connection: no
    // server listens on port 1.
    let err = run_usage_error(&["query", "--iterations", "0", "--addr", "127.0.0.1:1"]);
    assert!(
        err.contains("flag --iterations: must be in [1, 10000], got 0"),
        "{err}"
    );
}
