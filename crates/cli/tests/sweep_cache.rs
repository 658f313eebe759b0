//! End-to-end CLI test of the compiled-sweep artifact cache: a repeated
//! `sweep` against the same `--cache-dir` must skip relaxation, change
//! nothing in its output, and emit traces that pass the schema validator;
//! a damaged artifact must cost a recompute, never change the answer.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqavf-cli-sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str]) -> String {
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
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn repeated_sweep_hits_the_cache_and_a_damaged_artifact_misses() {
    let dir = scratch();
    let (design, map, pavf) = (
        dir.join("sweep.exlif"),
        dir.join("sweep.map"),
        dir.join("pavf.json"),
    );
    let cache = dir.join("cache");
    run_ok(&[
        "gen",
        "--out",
        path(&design),
        "--map",
        path(&map),
        "--scale",
        "0.3",
    ]);
    run_ok(&[
        "ace",
        "--out",
        path(&pavf),
        "--workloads",
        "3",
        "--len",
        "1000",
    ]);
    let sweep = |run: usize| {
        let trace = dir.join(format!("sweep{run}.ndjson"));
        let out = dir.join(format!("sweep{run}.json"));
        let stdout = run_ok(&[
            "sweep",
            "--design",
            path(&design),
            "--map",
            path(&map),
            "--pavf",
            path(&pavf),
            "--workloads",
            "3",
            "--len",
            "1000",
            "--threads",
            "2",
            "--cache-dir",
            path(&cache),
            "--trace-out",
            path(&trace),
            "--out",
            path(&out),
        ]);
        let text = std::fs::read_to_string(&trace).unwrap();
        seqavf_obs::ndjson::validate_trace(&text)
            .unwrap_or_else(|e| panic!("trace of run {run} invalid: {e}"));
        (stdout, std::fs::read(&out).unwrap())
    };

    let (first, rows) = sweep(1);
    assert!(first.contains("cache miss"), "{first}");
    let (second, warm_rows) = sweep(2);
    assert!(second.contains("cache hit"), "{second}");
    assert_eq!(warm_rows, rows, "a cache hit changed the output");

    // Damage the stored artifact: the checksum turns it into a miss, and
    // the recomputed output is unchanged.
    let artifacts: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(artifacts.len(), 1, "{artifacts:?}");
    let mut bytes = std::fs::read(&artifacts[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&artifacts[0], &bytes).unwrap();
    let (third, cold_rows) = sweep(3);
    assert!(third.contains("cache miss"), "{third}");
    assert_eq!(cold_rows, rows, "a damaged artifact changed the output");
    let _ = std::fs::remove_dir_all(&dir);
}
