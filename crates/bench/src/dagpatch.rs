//! E19 — incremental sweep-DAG patching latency (`BENCH_10.json`).
//!
//! E18 measured the *solve* half of the interactive-edit loop: warm
//! relaxation re-walks only the dirty cone. This experiment measures the
//! other half — rebuilding the compiled symbolic sweep DAG. The cold
//! path pays a full [`CompiledSweep::compile`] (O(nodes) lowering) after
//! every edit; the patch path reuses the previous revision's DAG,
//! relocating clean FUBs' slots through a compaction remap and
//! re-lowering only the dirty cone
//! ([`CompiledSweep::patch_traced`]).
//!
//! Per edit magnitude (one FUB / 5% of FUBs / full rewrite) we report
//! end-to-end warm latency (warm relax + patch) against end-to-end cold
//! latency (cold relax + full compile), plus how many DAG ops the patch
//! actually touched. Bit-identity of the patched DAG against an
//! independent cold compile is checked before any ratio is reported.
//!
//! The acceptance bar is a ≥3× wall speedup for the one-FUB edit on the
//! production-size (~102k node) design; the full-rewrite row documents
//! the honest ~1× floor where the patch degrades to a rebuild.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::{SartConfig, SartEngine, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten;
use seqavf_netlist::synth::{generate, SynthConfig};

use crate::common::{Provenance, Scale};
use crate::warmstart::flip_spread;

/// One edit magnitude's cold-rebuild vs patch comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EditPoint {
    /// Edit kind: `one_fub`, `five_percent_fubs`, or `full_rewrite`.
    pub edit: String,
    /// Gates flipped in the EXLIF text to produce the edit.
    pub flipped_gates: usize,
    /// FUBs whose content digest changed.
    pub dirty_fubs: usize,
    /// Whether the patch applied; `false` means it degraded to a full
    /// rebuild (the fallback the full-rewrite row is expected to hit).
    pub patched: bool,
    /// Why the patch fell back, when it did.
    pub rebuild_reason: Option<String>,
    /// DAG ops the patch wrote (re-lowered slots + new ops).
    pub ops_patched: usize,
    /// Ops tombstoned and compacted away.
    pub ops_orphaned: usize,
    /// Ops in the cold-compiled DAG of the edited revision.
    pub total_ops: usize,
    /// Cold relax + full compile wall time, milliseconds.
    pub cold_wall_ms: f64,
    /// Warm relax + patch (or fallback rebuild) wall time, milliseconds.
    pub warm_wall_ms: f64,
    /// `cold_wall_ms / warm_wall_ms`.
    pub wall_speedup: f64,
    /// Whether the patched DAG's sweep matched the cold-compiled DAG's
    /// bit for bit.
    pub bit_identical: bool,
}

/// One design size's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Design label.
    pub label: String,
    /// Nodes in the design.
    pub nodes: usize,
    /// FUB partitions.
    pub fubs: usize,
    /// Ops in the base revision's compiled DAG.
    pub base_ops: usize,
    /// Base-revision cold solve + compile (the run that paid for the
    /// artifacts the warm path reuses).
    pub base_build_ms: f64,
    /// One point per edit magnitude.
    pub edits: Vec<EditPoint>,
}

/// The E19 report, emitted as `BENCH_10.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagPatchReport {
    /// Measurement provenance (base design digest, host, thread counts).
    pub provenance: Provenance,
    /// One entry per design size, ascending.
    pub points: Vec<DesignPoint>,
}

impl DagPatchReport {
    /// The one-FUB wall speedup on the largest design — the acceptance
    /// metric.
    pub fn headline_wall_speedup(&self) -> Option<f64> {
        let p = self.points.last()?;
        p.edits
            .iter()
            .find(|e| e.edit == "one_fub")
            .map(|e| e.wall_speedup)
    }

    /// Renders the per-design tables.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incremental DAG-patch study (host parallelism: {}, threads: {:?})",
            self.provenance.host_parallelism, self.provenance.threads
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "\n== {} — {} nodes, {} FUBs, {} base ops, base build {:.1} ms\n\
                 {:<18} {:>6} {:>8} {:>11} {:>11} {:>11} {:>10} {:>10} {:>8}",
                p.label,
                p.nodes,
                p.fubs,
                p.base_ops,
                p.base_build_ms,
                "edit",
                "dirty",
                "path",
                "ops patched",
                "orphaned",
                "total ops",
                "cold ms",
                "warm ms",
                "wall x"
            );
            for e in &p.edits {
                let _ = writeln!(
                    out,
                    "{:<18} {:>6} {:>8} {:>11} {:>11} {:>11} {:>10.2} {:>10.2} {:>7.2}x{}",
                    e.edit,
                    e.dirty_fubs,
                    if e.patched { "patch" } else { "rebuild" },
                    e.ops_patched,
                    e.ops_orphaned,
                    e.total_ops,
                    e.cold_wall_ms,
                    e.warm_wall_ms,
                    e.wall_speedup,
                    if e.bit_identical {
                        ""
                    } else {
                        "  AVF MISMATCH"
                    }
                );
            }
        }
        if let Some(r) = self.headline_wall_speedup() {
            let _ = writeln!(
                out,
                "\nheadline: a one-FUB edit reaches a fresh sweep DAG {r:.1}x faster than \
                 a cold relax + recompile on the largest design"
            );
        }
        out
    }
}

/// Cold rebuild vs patch for one edited revision. Both sides pay their
/// solve: cold = full relax + full compile, warm = seeded relax + patch
/// (or fallback rebuild when the patch refuses). Disk artifact I/O is
/// excluded from both sides. Each side runs `REPS` times and reports the
/// minimum wall time — single-shot numbers on a loaded host conflate
/// scheduler noise (first-touch page faults, oversubscribed relax
/// workers) with the algorithmic cost being compared.
const REPS: usize = 3;

/// The base revision's artifacts every edit is measured against.
struct BaseRevision<'a> {
    text: &'a str,
    mapping: &'a StructureMapping,
    inputs: &'a PavfInputs,
    stored: &'a StoredFixpoint,
    dag: &'a CompiledSweep,
    threads: usize,
}

fn measure_edit(edit: &str, flips: usize, base: &BaseRevision) -> EditPoint {
    let BaseRevision {
        text: base_text,
        mapping,
        inputs,
        stored,
        dag: old_dag,
        threads,
    } = *base;
    let (edited, flipped_gates) = flip_spread(base_text, flips);
    let nl = flatten::parse_netlist(&edited).expect("edited EXLIF parses");
    let config = SartConfig {
        threads,
        ..SartConfig::default()
    };
    let engine = SartEngine::new(&nl, mapping, config);
    let layout: Vec<(&str, usize)> = stored
        .fubs
        .iter()
        .map(|f| (f.name.as_str(), f.fwd.len()))
        .collect();

    let mut cold_wall_ms = f64::INFINITY;
    let mut cold_dag = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let cold = engine.run(inputs);
        let dag = CompiledSweep::compile(&cold, &nl);
        cold_wall_ms = cold_wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        cold_dag = Some(dag);
    }
    let cold_dag = cold_dag.expect("REPS > 0");

    let mut warm_wall_ms = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..REPS {
        let t1 = Instant::now();
        let (warm, status, mask) =
            engine.run_warm_patch_traced(inputs, stored, &seqavf_obs::Collector::disabled());
        let attempt = match &mask {
            Some(m) => {
                old_dag.patch_traced(&warm, &nl, &layout, m, &seqavf_obs::Collector::disabled())
            }
            None => Err("warm solve fell back to cold"),
        };
        let resolved = match attempt {
            Ok((dag, st)) => (dag, true, None, st.nodes_patched(), st.ops_orphaned),
            Err(why) => (
                CompiledSweep::compile(&warm, &nl),
                false,
                Some(why.to_owned()),
                0,
                0,
            ),
        };
        warm_wall_ms = warm_wall_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        outcome = Some((resolved, status));
    }
    let ((warm_dag, patched, rebuild_reason, ops_patched, ops_orphaned), status) =
        outcome.expect("REPS > 0");

    let dirty_fubs = match status {
        WarmStatus::Warm { dirty_fubs, .. } => dirty_fubs,
        WarmStatus::Cold(_) => nl.fub_count(),
    };
    let reference = cold_dag.evaluate(inputs);
    let swept = warm_dag.evaluate(inputs);
    let bit_identical = reference.len() == swept.len()
        && reference
            .iter()
            .zip(&swept)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let st = cold_dag.stats();
    EditPoint {
        edit: edit.to_owned(),
        flipped_gates,
        dirty_fubs,
        patched,
        rebuild_reason,
        ops_patched,
        ops_orphaned,
        total_ops: st.sum_ops + st.min_ops,
        cold_wall_ms,
        warm_wall_ms,
        wall_speedup: cold_wall_ms / warm_wall_ms.max(1e-9),
        bit_identical,
    }
}

/// Measures one design size: base solve + DAG + fixpoint capture, then
/// the three edit magnitudes against those artifacts.
fn measure_design(label: &str, cfg: &SynthConfig, threads: usize) -> DesignPoint {
    let design = generate(cfg);
    let base_text = exlif::write(&design.netlist);
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let mut inputs = PavfInputs::new();
    inputs.set_port("uops_executed", 0.21, 0.34);

    let nl = flatten::parse_netlist(&base_text).expect("generated EXLIF parses");
    let config = SartConfig {
        threads,
        ..SartConfig::default()
    };
    let engine = SartEngine::new(&nl, &mapping, config);
    let t0 = Instant::now();
    let result = engine.run(&inputs);
    let old_dag = CompiledSweep::compile(&result, &nl);
    let base_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stored = engine
        .capture_fixpoint(&result)
        .expect("base revision converges");

    let fubs = nl.fub_count();
    let base_stats = old_dag.stats();
    let base = BaseRevision {
        text: &base_text,
        mapping: &mapping,
        inputs: &inputs,
        stored: &stored,
        dag: &old_dag,
        threads,
    };
    let edits = vec![
        measure_edit("one_fub", 1, &base),
        measure_edit("five_percent_fubs", fubs.div_ceil(20), &base),
        measure_edit("full_rewrite", usize::MAX, &base),
    ];
    DesignPoint {
        label: label.to_owned(),
        nodes: nl.node_count(),
        fubs,
        base_ops: base_stats.sum_ops + base_stats.min_ops,
        base_build_ms,
        edits,
    }
}

/// Runs E19. Quick measures the ~3k-node reference; full adds the
/// production-size (~102k node) design the acceptance bar is set on.
pub fn run(scale: Scale, seed: u64) -> DagPatchReport {
    let threads = 8usize;
    let mut points = vec![measure_design(
        "xeon_like",
        &SynthConfig::xeon_like(seed),
        threads,
    )];
    if scale == Scale::Full {
        points.push(measure_design(
            "xeon_like_x8 @ 2.0",
            &SynthConfig::xeon_like(seed).scaled(2.0).with_cores(8),
            threads,
        ));
    }
    DagPatchReport {
        provenance: Provenance::capture(
            generate(&SynthConfig::xeon_like(seed))
                .netlist
                .content_digest(),
            &[threads],
        ),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_patches_and_stays_bit_identical() {
        let report = run(Scale::Quick, 42);
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.edits.len(), 3);
        for e in &p.edits {
            assert!(e.bit_identical, "{} diverged", e.edit);
        }
        let one = &p.edits[0];
        assert!(one.patched, "one-FUB edit must take the patch path");
        assert_eq!(one.dirty_fubs, 1, "one gate flip dirties one FUB");
        assert!(
            one.ops_patched < one.total_ops,
            "patch touched {} of {} ops — not incremental",
            one.ops_patched,
            one.total_ops
        );
        let five = &p.edits[1];
        assert!(five.patched, "5% edit must take the patch path");
        assert!(
            one.ops_patched <= five.ops_patched,
            "a bigger edit should patch at least as many ops"
        );
    }
}
