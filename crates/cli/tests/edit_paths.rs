//! End-to-end CLI tests of the three edit-path tiers every surface
//! shares: the graph snapshot (`--graph-cache`), the warm-started
//! relaxation (`--warm-start`) and the patched compiled DAG (`sweep
//! --cache-dir --warm-start`). Each run must report the tier it took,
//! leave output byte-identical to an independent cold run, and emit
//! traces that pass the schema validator. A snapshot the CLI writes must
//! also be one the server's resident graph tier hits.

use std::path::{Path, PathBuf};
use std::process::Command;

use seqavf_core::mapping::PavfInputs;
use seqavf_obs::Collector;
use seqavf_serve::api::{AvfRequest, NamedTable};
use seqavf_serve::resident::{Resident, ResidentConfig};

/// A generated design, its mapping and an ACE pAVF table in a fresh
/// scratch directory.
struct Fixture {
    dir: PathBuf,
    design: PathBuf,
    map: PathBuf,
    pavf: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!(
            "seqavf-cli-edit-paths-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let f = Fixture {
            design: dir.join("design.exlif"),
            map: dir.join("design.map"),
            pavf: dir.join("pavf.json"),
            dir,
        };
        run_ok(&[
            "gen",
            "--out",
            path(&f.design),
            "--map",
            path(&f.map),
            "--scale",
            "0.3",
        ]);
        run_ok(&[
            "ace",
            "--out",
            path(&f.pavf),
            "--workloads",
            "4",
            "--len",
            "1000",
        ]);
        f
    }

    fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `seqavf <cmd> --design --map --pavf --threads 2` plus `extra`.
    fn run(&self, cmd: &str, extra: &[&str]) -> String {
        let mut args = vec![
            cmd,
            "--design",
            path(&self.design),
            "--map",
            path(&self.map),
            "--pavf",
            path(&self.pavf),
            "--threads",
            "2",
        ];
        args.extend_from_slice(extra);
        run_ok(&args)
    }

    /// Flips the first and-gate of the design: a one-gate edit.
    fn edit_one_gate(&self) {
        let text = std::fs::read_to_string(&self.design).unwrap();
        let edited = text.replacen(".gate and ", ".gate or ", 1);
        assert_ne!(text, edited, "the design must contain an and-gate");
        std::fs::write(&self.design, edited).unwrap();
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
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

/// Reads a trace, checks it against the `seqavf-trace/1` schema, and
/// returns its text.
fn valid_trace(p: &Path) -> String {
    let text = std::fs::read_to_string(p).unwrap();
    seqavf_obs::ndjson::validate_trace(&text)
        .unwrap_or_else(|e| panic!("trace {} invalid: {e}", p.display()));
    text
}

/// The integer printed just before `suffix` on the first line holding it.
fn number_before(stdout: &str, suffix: &str) -> u64 {
    let at = stdout
        .find(suffix)
        .unwrap_or_else(|| panic!("no `{suffix}` in:\n{stdout}"));
    let digits: String = stdout[..at]
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.chars().rev().collect::<String>().parse().unwrap()
}

#[test]
fn graph_snapshot_misses_then_hits_with_identical_output() {
    let f = Fixture::new("snapshot");
    let cache = f.file("graph-cache");
    let sart = |run: usize| {
        let (out, trace) = (
            f.file(&format!("avf{run}.json")),
            f.file(&format!("snap{run}.ndjson")),
        );
        f.run(
            "sart",
            &[
                "--graph-cache",
                path(&cache),
                "--out",
                path(&out),
                "--trace-out",
                path(&trace),
            ],
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

#[test]
fn warm_start_seeds_from_the_stored_fixpoint_and_matches_a_cold_solve() {
    let f = Fixture::new("warmstart");
    let fix = f.file("fix-cache");
    let (base_trace, warm_trace) = (f.file("warm1.ndjson"), f.file("warm2.ndjson"));
    let first = f.run(
        "sart",
        &[
            "--warm-start",
            path(&fix),
            "--out",
            path(&f.file("avf-base.json")),
            "--trace-out",
            path(&base_trace),
        ],
    );
    assert!(first.contains("warm start: cold solve"), "{first}");
    assert!(first.contains("stored fixpoint artifact"), "{first}");
    valid_trace(&base_trace);

    f.edit_one_gate();
    let warm_out = f.file("avf-warm.json");
    let warm = f.run(
        "sart",
        &[
            "--warm-start",
            path(&fix),
            "--out",
            path(&warm_out),
            "--trace-out",
            path(&warm_trace),
        ],
    );
    assert!(warm.contains("warm start: seeded"), "{warm}");
    assert!(valid_trace(&warm_trace).contains("relax.warmstart.hit"));

    let cold_out = f.file("avf-cold.json");
    let cold = f.run("sart", &["--out", path(&cold_out)]);
    assert_eq!(
        std::fs::read(&warm_out).unwrap(),
        std::fs::read(&cold_out).unwrap(),
        "the warm re-solve differs from a cold one"
    );
    let (warm_walks, cold_walks) = (
        number_before(&warm, " node-walks"),
        number_before(&cold, " node-walks"),
    );
    assert!(
        warm_walks < cold_walks,
        "warm walked {warm_walks} nodes, cold {cold_walks}"
    );
}

#[test]
fn edited_sweep_patches_the_previous_dag_with_identical_rows() {
    let f = Fixture::new("dagpatch");
    let (cache, fix) = (f.file("patch-cache"), f.file("patch-fix"));
    let sweep = |name: &str, warm: bool| {
        let (out, trace) = (
            f.file(&format!("rows-{name}.json")),
            f.file(&format!("{name}.ndjson")),
        );
        let mut extra = vec![
            "--workloads",
            "3",
            "--len",
            "1000",
            "--out",
            path(&out),
            "--trace-out",
            path(&trace),
        ];
        if warm {
            extra.extend(["--cache-dir", path(&cache), "--warm-start", path(&fix)]);
        }
        let stdout = f.run("sweep", &extra);
        (stdout, valid_trace(&trace), std::fs::read(&out).unwrap())
    };
    let (first, _, _) = sweep("base", true);
    assert!(first.contains("cache miss"), "{first}");
    assert!(!first.contains("DAG patch"), "{first}");

    f.edit_one_gate();
    let (patched, trace, rows) = sweep("warm", true);
    assert!(patched.contains("warm start: seeded"), "{patched}");
    assert!(patched.contains("ops patched"), "{patched}");
    assert!(!patched.contains("full rebuild"), "{patched}");
    assert!(trace.contains("sweep.patch.hit"));
    let ops = number_before(&patched, " ops patched");
    let retained = number_before(&patched, " retained");
    assert!(ops > 0 && retained > 0, "{patched}");

    let (_, _, cold_rows) = sweep("cold", false);
    assert_eq!(
        rows, cold_rows,
        "the patched DAG's rows differ from a cold sweep"
    );
}

#[test]
fn a_cli_graph_snapshot_is_a_hit_for_the_server() {
    let f = Fixture::new("snapshot-compat");
    let cache = f.file("graph-cache");
    f.run("sart", &["--graph-cache", path(&cache)]);

    let obs = Collector::new();
    let resident = Resident::new(
        ResidentConfig {
            graph_cache: Some(cache),
            ..ResidentConfig::default()
        },
        obs.clone(),
    );
    let answer = resident
        .handle(&AvfRequest {
            design_path: Some(path(&f.design).to_owned()),
            design_ref: None,
            map_path: Some(path(&f.map).to_owned()),
            config: None,
            base_inputs: None,
            tables: vec![NamedTable {
                workload: "w".to_owned(),
                inputs: PavfInputs::new(),
            }],
            include_nodes: None,
            include_fubs: None,
        })
        .unwrap();
    assert_eq!(answer.graph_cache, "miss");
    let report = obs.report();
    assert_eq!(report.counter("frontend.snapshot.hit"), Some(1));
    assert_eq!(report.counter("frontend.snapshot.miss"), None);
    assert!(
        report.span("frontend.parse").is_none(),
        "the server re-parsed"
    );
}
