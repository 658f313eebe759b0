//! The fault-injection validation campaign, end to end through the CLI
//! binary on a small generated design: run `validate` twice against the
//! same compiled-sweep cache, at two thread counts, and check that
//!
//! - the first run misses the cache and the second reuses its artifact;
//! - the two `seqavf-validate/1` artifacts are byte-identical
//!   (counter-mode RNG streams make the tallies independent of the thread
//!   count);
//! - the Pearson correlation between per-FUB injection AVFs and the
//!   derated analytical prediction clears 0.9 (`--assert-corr` fails the
//!   run otherwise);
//! - both traces pass the `seqavf-trace/1` schema validator.
//!
//! 5,000 trials keep a debug build under half a minute per run; on this
//! 535-node design the correlation reads ~0.95 from 2,000 trials up.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("seqavf-cli-validate-{name}-{}", std::process::id()));
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

/// Runs the CLI, asserts success, and returns its stdout.
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

#[test]
fn validation_is_thread_invariant_and_reuses_the_cached_sweep() {
    let s = Scratch::new("smoke");
    let (design, map, cache) = (s.file("val.exlif"), s.file("val.map"), s.file("cache"));
    run_ok(&["gen", "--out", &design, "--map", &map, "--scale", "0.3"]);
    let validate = |threads: &str| {
        let (out, trace) = (
            s.file(&format!("val-t{threads}.json")),
            s.file(&format!("val-t{threads}.ndjson")),
        );
        let stdout = run_ok(&[
            "validate",
            "--design",
            &design,
            "--map",
            &map,
            "--trials",
            "5000",
            "--threads",
            threads,
            "--assert-corr",
            "0.9",
            "--cache-dir",
            &cache,
            "--out",
            &out,
            "--trace-out",
            &trace,
        ]);
        let text = std::fs::read_to_string(&trace).unwrap();
        seqavf_obs::ndjson::validate_trace(&text)
            .unwrap_or_else(|e| panic!("trace {trace} invalid: {e}"));
        (stdout, std::fs::read(&out).unwrap())
    };
    let (first, t2) = validate("2");
    assert!(first.contains("cache miss"), "{first}");
    let (second, t8) = validate("8");
    assert!(second.contains("cache hit"), "{second}");
    assert!(!t2.is_empty());
    assert!(t2 == t8, "--threads 8 changed the validation artifact");
}
