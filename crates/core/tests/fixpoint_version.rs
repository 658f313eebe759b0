//! The fixpoint artifact's version bumps. `/2` changed what per-FUB
//! digests mean (they fold interned name hashes) and `/3` dropped the
//! boundary-dependency section, so an artifact written under `/1` or `/2`
//! must be refused as a version mismatch — one cold solve with unchanged
//! answers that rewrites the file as `/3` — never trusted as a seed.

mod common;

use std::path::{Path, PathBuf};

use seqavf_core::engine::{SartConfig, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{run_sweep_with_loops_traced, SweepOptions, SweepOutcome};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::snapshot::{put_section, seal, SnapshotError};
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;

use common::{cached_dag, fresh_dag, node_bits};

const V1: &[u8] = b"seqavf-fixpoint/1\n";
const V2: &[u8] = b"seqavf-fixpoint/2\n";
const V3: &[u8] = b"seqavf-fixpoint/3\n";

struct Revision {
    text: String,
    mapping: StructureMapping,
    workloads: Vec<(String, PavfInputs)>,
}

impl Revision {
    fn base() -> Revision {
        let design = generate(&SynthConfig::xeon_like(42));
        let workloads = (0..2)
            .map(|k| {
                let mut p = PavfInputs::new();
                p.set_port("uops_executed", 0.2 + 0.1 * k as f64, 0.34);
                (format!("w{k}"), p)
            })
            .collect();
        Revision {
            text: exlif::write(&design.netlist),
            mapping: StructureMapping::from_pairs(design.meta.structure_map.clone()),
            workloads,
        }
    }

    /// The `nth` `and` gate becomes an `or`: a one-gate edit.
    fn edit(&self, nth: usize) -> Revision {
        let at = self
            .text
            .match_indices(".gate and ")
            .nth(nth)
            .expect("enough and-gates")
            .0;
        let mut text = self.text.clone();
        text.replace_range(at..at + ".gate and ".len(), ".gate or ");
        Revision {
            text,
            mapping: self.mapping.clone(),
            workloads: self.workloads.clone(),
        }
    }

    /// Sweeps this revision, and returns the sweep with the node-level
    /// answer of the DAG it used. A warm sweep gets an empty cache
    /// directory of its own, which holds no earlier revision's DAG to
    /// patch, so it compiles its warm result and stores that DAG there; a
    /// cold sweep's DAG is compiled again from a fresh relaxation.
    fn sweep(&self, warm_start: Option<&Path>) -> (SweepOutcome, Vec<Vec<u64>>) {
        let nl = parse_netlist(&self.text).expect("flattens");
        let config = SartConfig::default();
        let dags = warm_start.map(|dir| dir.with_extension("dags"));
        if let Some(dags) = &dags {
            let _ = std::fs::remove_dir_all(dags);
        }
        let opts = SweepOptions {
            threads: 1,
            cache_dir: dags.clone(),
            warm_start: warm_start.map(Path::to_path_buf),
        };
        let outcome = run_sweep_with_loops_traced(
            &nl,
            &self.mapping,
            &config,
            &self.workloads[0].1,
            &self.workloads,
            &opts,
            None,
            &Collector::disabled(),
        )
        .expect("sweeps");
        let dag = match &dags {
            Some(dags) => {
                let dag = cached_dag(dags, &nl, &self.mapping, &config);
                let _ = std::fs::remove_dir_all(dags);
                dag
            }
            None => fresh_dag(&nl, &self.mapping, &config, &self.workloads[0].1),
        };
        let bits = node_bits(&outcome, &dag, &nl, &self.workloads);
        (outcome, bits)
    }
}

/// The one fixpoint artifact in `dir`.
fn artifact(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    files.into_iter().next().unwrap()
}

/// A current artifact's body re-sealed under an older magic, with a
/// valid checksum. A `/2` body also gets back the boundary section `/3`
/// dropped (section 5: six empty arrays), so it is a well-formed `/2`
/// file.
fn as_version(bytes: &[u8], magic: &[u8]) -> Vec<u8> {
    assert!(bytes.starts_with(V3));
    let mut out = magic.to_vec();
    out.extend_from_slice(&bytes[V3.len()..bytes.len() - 8]);
    if magic == V2 {
        put_section(&mut out, 5, &[0; 6]);
    }
    seal(&mut out);
    out
}

/// The first edit after `old` replaced the artifact runs cold with the
/// answers of no warm start and rewrites the file as `/3`; the next edit
/// then runs warm, still bit-identical to cold.
fn old_artifact_runs_cold_once_and_is_rewritten(old: &[u8]) {
    let tag = String::from_utf8_lossy(&old[old.len() - 2..old.len() - 1]).into_owned();
    let dir = std::env::temp_dir().join(format!("seqavf-fixpoint-v{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = Revision::base();
    base.sweep(Some(&dir));
    let path = artifact(&dir);
    let current = std::fs::read(&path).unwrap();
    assert!(StoredFixpoint::decode(&current).is_ok());
    let stale = as_version(&current, old);
    assert_eq!(
        StoredFixpoint::decode(&stale),
        Err(SnapshotError::UnsupportedVersion)
    );
    std::fs::write(&path, &stale).unwrap();

    // The first edit finds only the old file: a cold solve, the same
    // answers as without a warm-start directory, and a `/3` rewrite.
    let first = base.edit(0);
    let (warm, warm_bits) = first.sweep(Some(&dir));
    assert_eq!(
        warm.warm,
        Some(WarmStatus::Cold("no usable fixpoint artifact"))
    );
    assert_eq!(warm_bits, first.sweep(None).1);
    let rewritten = std::fs::read(&path).unwrap();
    assert!(rewritten.starts_with(V3));
    assert!(StoredFixpoint::decode(&rewritten).is_ok());

    // So the next edit runs warm, still bit-identical to cold.
    let second = first.edit(3);
    let (warm, warm_bits) = second.sweep(Some(&dir));
    match warm.warm {
        Some(WarmStatus::Warm {
            seeded_fubs,
            dirty_fubs,
        }) => assert!(
            seeded_fubs > 0 && dirty_fubs >= 1,
            "{warm:?}",
            warm = warm.warm
        ),
        other => panic!("expected a warm solve, got {other:?}"),
    }
    assert_eq!(warm_bits, second.sweep(None).1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_artifact_runs_cold_once_and_is_rewritten_as_v3() {
    old_artifact_runs_cold_once_and_is_rewritten(V1);
}

#[test]
fn a_v2_artifact_runs_cold_once_and_is_rewritten_as_v3() {
    old_artifact_runs_cold_once_and_is_rewritten(V2);
}
