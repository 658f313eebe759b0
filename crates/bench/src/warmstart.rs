//! E18 — cross-run warm-start latency (`BENCH_9.json`).
//!
//! The interactive-edit scenario: a design is solved once and its
//! converged fixpoint captured as a `seqavf-fixpoint/1` artifact; then
//! the designer edits the netlist and re-solves. The warm path diffs
//! per-FUB content digests against the artifact, seeds the relaxation
//! with the stored annotations, and re-walks only the dirty cone —
//! bit-identical to a cold solve by construction (property-tested in
//! `warmstart_equivalence.rs`); this experiment records how much *work*
//! the seed removes.
//!
//! Three edit magnitudes per design size:
//!
//! * **one FUB** — a single gate flip, the paper's latency headline;
//! * **5% of FUBs** — a medium refactor touching several blocks;
//! * **full rewrite** — every FUB's digest changes, the adversarial
//!   bound where warm must degrade gracefully to cold-equivalent work.
//!
//! Reported per edit: walked-node and wall-time ratios of cold over
//! warm. The acceptance bar is a ≥5× walked-node reduction for the
//! one-FUB edit on the production-size (~102k node) design.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use seqavf_core::engine::{SartConfig, SartEngine, SartResult, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten;
use seqavf_netlist::synth::{generate, SynthConfig};

use crate::common::{Provenance, Scale};

/// One edit magnitude's cold-vs-warm comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EditPoint {
    /// Edit kind: `one_fub`, `five_percent_fubs`, or `full_rewrite`.
    pub edit: String,
    /// Gates flipped in the EXLIF text to produce the edit.
    pub flipped_gates: usize,
    /// FUBs whose content digest changed (re-relaxed from scratch).
    pub dirty_fubs: usize,
    /// FUBs seeded from the stored fixpoint.
    pub seeded_fubs: usize,
    /// Nodes walked by the cold re-solve of the edited design.
    pub cold_walked_nodes: usize,
    /// Nodes walked by the warm re-solve.
    pub warm_walked_nodes: usize,
    /// `cold_walked_nodes / warm_walked_nodes` — the work reduction.
    pub walk_reduction: f64,
    /// Cold re-solve wall time, milliseconds.
    pub cold_wall_ms: f64,
    /// Warm re-solve wall time (seed + dirty-cone relaxation).
    pub warm_wall_ms: f64,
    /// `cold_wall_ms / warm_wall_ms`.
    pub wall_speedup: f64,
    /// Whether warm and cold AVFs matched bit for bit (checked before
    /// any ratio is reported).
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
    /// Encoded `seqavf-fixpoint/1` artifact size in bytes.
    pub artifact_bytes: usize,
    /// Base-revision cold solve (the one that paid for the artifact).
    pub base_solve_ms: f64,
    /// One point per edit magnitude.
    pub edits: Vec<EditPoint>,
}

/// The E18 report, emitted as `BENCH_9.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmstartReport {
    /// Measurement provenance (base design digest, host, thread counts).
    pub provenance: Provenance,
    /// One entry per design size, ascending.
    pub points: Vec<DesignPoint>,
}

impl WarmstartReport {
    /// The one-FUB walked-node reduction on the largest design — the
    /// acceptance metric.
    pub fn headline_walk_reduction(&self) -> Option<f64> {
        let p = self.points.last()?;
        p.edits
            .iter()
            .find(|e| e.edit == "one_fub")
            .map(|e| e.walk_reduction)
    }

    /// Renders the per-design tables.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cross-run warm-start study (host parallelism: {}, threads: {:?})",
            self.provenance.host_parallelism, self.provenance.threads
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "\n== {} — {} nodes, {} FUBs, artifact {} bytes, base solve {:.1} ms\n\
                 {:<18} {:>6} {:>7} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
                p.label,
                p.nodes,
                p.fubs,
                p.artifact_bytes,
                p.base_solve_ms,
                "edit",
                "dirty",
                "seeded",
                "cold walks",
                "warm walks",
                "walk x",
                "cold ms",
                "warm ms",
                "wall x"
            );
            for e in &p.edits {
                let _ = writeln!(
                    out,
                    "{:<18} {:>6} {:>7} {:>12} {:>12} {:>7.1}x {:>10.2} {:>10.2} {:>7.2}x{}",
                    e.edit,
                    e.dirty_fubs,
                    e.seeded_fubs,
                    e.cold_walked_nodes,
                    e.warm_walked_nodes,
                    e.walk_reduction,
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
        if let Some(r) = self.headline_walk_reduction() {
            let _ = writeln!(
                out,
                "\nheadline: one-FUB edit re-walks {r:.1}x fewer nodes than a cold solve \
                 on the largest design"
            );
        }
        out
    }
}

/// Flips `count` and/or gate lines spread evenly across the EXLIF text,
/// so the flips land in distinct regions (and therefore mostly distinct
/// FUBs). Returns the edited text and the number of gates flipped.
pub(crate) fn flip_spread(text: &str, count: usize) -> (String, usize) {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let gate_lines: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            t.starts_with(".gate and ") || t.starts_with(".gate or ")
        })
        .map(|(i, _)| i)
        .collect();
    let count = count.clamp(1, gate_lines.len());
    let stride = gate_lines.len() / count;
    let mut flipped = 0usize;
    for k in 0..count {
        let i = gate_lines[k * stride.max(1)];
        lines[i] = if lines[i].trim_start().starts_with(".gate and ") {
            lines[i].replacen(".gate and ", ".gate or ", 1)
        } else {
            lines[i].replacen(".gate or ", ".gate and ", 1)
        };
        flipped += 1;
    }
    (lines.join("\n") + "\n", flipped)
}

/// Cold + warm re-solve of one edited revision; panics on AVF mismatch
/// only indirectly (the flag is recorded, not asserted, so a full run
/// still reports the failure).
fn measure_edit(
    edit: &str,
    base_text: &str,
    flips: usize,
    mapping: &StructureMapping,
    inputs: &PavfInputs,
    stored: &StoredFixpoint,
    threads: usize,
) -> EditPoint {
    let (edited, flipped_gates) = flip_spread(base_text, flips);
    let nl = flatten::parse_netlist(&edited).expect("edited EXLIF parses");
    let config = SartConfig {
        threads,
        ..SartConfig::default()
    };
    let engine = SartEngine::new(&nl, mapping, config);

    let t0 = Instant::now();
    let cold = engine.run(inputs);
    let cold_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let (warm, status, _) =
        engine.run_warm_patch_traced(inputs, stored, &seqavf_obs::Collector::disabled());
    let warm_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    let (seeded_fubs, dirty_fubs) = match status {
        WarmStatus::Warm {
            seeded_fubs,
            dirty_fubs,
        } => (seeded_fubs, dirty_fubs),
        WarmStatus::Cold(_) => (0, nl.fub_count()),
    };
    let bit_identical = cold.avf.len() == warm.avf.len()
        && cold
            .avf
            .iter()
            .zip(&warm.avf)
            .all(|(c, w)| c.to_bits() == w.to_bits());
    let cold_walked = cold.outcome.total_walked_nodes();
    let warm_walked = warm.outcome.total_walked_nodes();
    EditPoint {
        edit: edit.to_owned(),
        flipped_gates,
        dirty_fubs,
        seeded_fubs,
        cold_walked_nodes: cold_walked,
        warm_walked_nodes: warm_walked,
        walk_reduction: cold_walked as f64 / (warm_walked as f64).max(1.0),
        cold_wall_ms,
        warm_wall_ms,
        wall_speedup: cold_wall_ms / warm_wall_ms.max(1e-9),
        bit_identical,
    }
}

/// Measures one design size: base solve + artifact capture, then the
/// three edit magnitudes.
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
    let result: SartResult = engine.run(&inputs);
    let base_solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stored = engine
        .capture_fixpoint(&result)
        .expect("base revision converges");
    let artifact_bytes = stored.encode().len();

    let fubs = nl.fub_count();
    let edits = vec![
        measure_edit(
            "one_fub", &base_text, 1, &mapping, &inputs, &stored, threads,
        ),
        measure_edit(
            "five_percent_fubs",
            &base_text,
            fubs.div_ceil(20),
            &mapping,
            &inputs,
            &stored,
            threads,
        ),
        measure_edit(
            "full_rewrite",
            &base_text,
            usize::MAX,
            &mapping,
            &inputs,
            &stored,
            threads,
        ),
    ];
    DesignPoint {
        label: label.to_owned(),
        nodes: nl.node_count(),
        fubs,
        artifact_bytes,
        base_solve_ms,
        edits,
    }
}

/// Runs E18. Quick measures the ~3k-node reference; full adds the
/// production-size (~102k node) design the acceptance bar is set on.
pub fn run(scale: Scale, seed: u64) -> WarmstartReport {
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
    WarmstartReport {
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
    fn quick_run_reduces_walks_and_stays_bit_identical() {
        let report = run(Scale::Quick, 42);
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.edits.len(), 3);
        for e in &p.edits {
            assert!(e.bit_identical, "{} diverged", e.edit);
            assert!(e.warm_walked_nodes <= e.cold_walked_nodes, "{}", e.edit);
        }
        let one = &p.edits[0];
        assert_eq!(one.dirty_fubs, 1, "one gate flip dirties one FUB");
        assert!(
            one.walk_reduction > 2.0,
            "one-FUB edit reduction {} too small even at 3k nodes",
            one.walk_reduction
        );
        let rewrite = &p.edits[2];
        assert!(rewrite.dirty_fubs >= p.fubs / 2, "rewrite barely dirtied");
    }
}
