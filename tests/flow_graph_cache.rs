//! `FlowConfig::graph_cache`: the flow's design snapshot and its sealed
//! ground-truth sidecar. A hit must answer exactly what the miss that
//! wrote it answered, and a damaged sidecar must read as a miss that
//! regenerates, never as different ground truth.

use std::path::{Path, PathBuf};

use seqavf::flow::{run_flow_traced, FlowConfig};
use seqavf::obs::Collector;

fn config(dir: &Path) -> FlowConfig {
    let mut cfg = FlowConfig::small(11);
    cfg.suite.workloads = 2;
    cfg.suite.len = 500;
    cfg.graph_cache = Some(dir.to_path_buf());
    cfg
}

/// Every node's AVF bits, and whether the design came from the cache.
fn run(dir: &Path) -> (Vec<u64>, bool) {
    let obs = Collector::new();
    let out = run_flow_traced(&config(dir), &obs);
    let report = obs.report();
    let hit = report.counter("frontend.snapshot.hit").is_some();
    assert_ne!(
        hit,
        report.counter("frontend.snapshot.miss").is_some(),
        "a flow either hits or misses"
    );
    let bits = out.result.node_avfs().iter().map(|v| v.to_bits()).collect();
    (bits, hit)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqavf-flow-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one sidecar in `dir`.
fn sidecar(dir: &Path) -> PathBuf {
    let metas: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "meta"))
        .collect();
    assert_eq!(metas.len(), 1, "{metas:?}");
    metas.into_iter().next().unwrap()
}

#[test]
fn a_miss_then_a_hit_give_the_same_avf_bits() {
    let dir = scratch("hit");
    let (cold, hit) = run(&dir);
    assert!(!hit, "an empty cache misses");
    let (warm, hit) = run(&dir);
    assert!(hit, "the second run reads the snapshot");
    assert_eq!(cold, warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_sidecar_is_a_miss() {
    let dir = scratch("damaged");
    let (cold, _) = run(&dir);
    let path = sidecar(&dir);
    let good = std::fs::read(&path).unwrap();
    // One byte inside the sealed body, then the `/1` text format.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x04;
    let old = b"seqavf-synthmeta/1\nstruct 0 itlb\n".to_vec();
    for damaged in [flipped, old] {
        std::fs::write(&path, &damaged).unwrap();
        let (bits, hit) = run(&dir);
        assert!(!hit, "a damaged sidecar must not be trusted");
        assert_eq!(bits, cold);
        assert_eq!(std::fs::read(&path).unwrap(), good, "the miss rewrites it");
    }
    let (bits, hit) = run(&dir);
    assert!(hit);
    assert_eq!(bits, cold);
    let _ = std::fs::remove_dir_all(&dir);
}
