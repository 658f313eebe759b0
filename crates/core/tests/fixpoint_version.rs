//! The `seqavf-fixpoint/2` version bump: per-FUB digests changed meaning
//! (they fold interned name hashes), so an artifact written under `/1`
//! must be refused as a version mismatch — one cold solve with unchanged
//! answers that rewrites the file as `/2` — never trusted as a seed.

use std::path::{Path, PathBuf};

use seqavf_core::engine::{SartConfig, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{run_sweep_with_loops_traced, SweepOptions, SweepOutcome};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::snapshot::{seal, SnapshotError};
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;

const V1: &[u8] = b"seqavf-fixpoint/1\n";
const V2: &[u8] = b"seqavf-fixpoint/2\n";

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

    fn sweep(&self, warm_start: Option<&Path>) -> SweepOutcome {
        let nl = parse_netlist(&self.text).expect("flattens");
        let opts = SweepOptions {
            threads: 1,
            cache_dir: None,
            warm_start: warm_start.map(Path::to_path_buf),
        };
        run_sweep_with_loops_traced(
            &nl,
            &self.mapping,
            &SartConfig::default(),
            &self.workloads[0].1,
            &self.workloads,
            &opts,
            None,
            &Collector::disabled(),
        )
        .expect("sweeps")
    }
}

fn bits(outcome: &SweepOutcome) -> Vec<Vec<u64>> {
    outcome
        .rows
        .iter()
        .map(|r| r.node_avfs.iter().map(|v| v.to_bits()).collect())
        .collect()
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

/// `bytes` re-sealed under the `/1` magic: the body is untouched, the
/// checksum valid.
fn as_v1(bytes: &[u8]) -> Vec<u8> {
    assert!(bytes.starts_with(V2));
    let mut out = V1.to_vec();
    out.extend_from_slice(&bytes[V2.len()..bytes.len() - 8]);
    seal(&mut out);
    out
}

#[test]
fn a_v1_artifact_runs_cold_once_and_is_rewritten_as_v2() {
    let dir = std::env::temp_dir().join(format!("seqavf-fixpoint-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = Revision::base();
    base.sweep(Some(&dir));
    let path = artifact(&dir);
    let v2 = std::fs::read(&path).unwrap();
    assert!(StoredFixpoint::decode(&v2).is_ok());
    let v1 = as_v1(&v2);
    assert_eq!(
        StoredFixpoint::decode(&v1),
        Err(SnapshotError::UnsupportedVersion)
    );
    std::fs::write(&path, &v1).unwrap();

    // The first edit finds only the `/1` file: a cold solve, the same
    // answers as without a warm-start directory, and a `/2` rewrite.
    let first = base.edit(0);
    let warm = first.sweep(Some(&dir));
    assert_eq!(
        warm.warm,
        Some(WarmStatus::Cold("no usable fixpoint artifact"))
    );
    assert_eq!(bits(&warm), bits(&first.sweep(None)));
    let rewritten = std::fs::read(&path).unwrap();
    assert!(rewritten.starts_with(V2));
    assert!(StoredFixpoint::decode(&rewritten).is_ok());

    // So the next edit runs warm, still bit-identical to cold.
    let second = first.edit(3);
    let warm = second.sweep(Some(&dir));
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
    assert_eq!(bits(&warm), bits(&second.sweep(None)));
    let _ = std::fs::remove_dir_all(&dir);
}
