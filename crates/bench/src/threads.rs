//! **E12 — relaxation thread scaling**: wall-clock of the parallel
//! relaxation engine versus worker-thread count.
//!
//! The per-FUB walks of one relaxation iteration read cross-FUB values
//! only from the iteration-start snapshot, so they are data parallel;
//! `seqavf-core` fans them out over scoped workers and interns the
//! moved term masks into the shared arena at the iteration barrier.
//! This study sweeps the thread count on one design, measures
//! relaxation wall time (from the engine's own per-iteration telemetry,
//! so preparation and resolution cost are excluded), and *checks* the
//! bit-identity contract: every thread count must produce exactly the
//! same `SetId` annotations and AVFs.
//!
//! Expect near-linear speedup while FUBs outnumber workers and the host
//! has free cores; on a single-core host the curve is flat.

use serde::{Deserialize, Serialize};

use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::synth::{generate, SynthConfig};

use crate::common::Scale;

/// One point of the thread sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Relaxation wall time (sum over sweeps), seconds.
    pub relax_seconds: f64,
    /// Speedup over the single-thread point.
    pub speedup: f64,
    /// Productive relaxation iterations (identical across points).
    pub iterations: usize,
}

/// The thread-scaling report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadScalingReport {
    /// Nodes in the benchmarked design.
    pub nodes: usize,
    /// FUB partitions (the parallelism grain).
    pub fubs: usize,
    /// Sweep points in ascending thread count.
    pub points: Vec<ThreadPoint>,
    /// Whether every thread count produced bit-identical annotations.
    pub bit_identical: bool,
}

impl ThreadScalingReport {
    /// Best speedup observed anywhere in the sweep.
    pub fn best_speedup(&self) -> f64 {
        self.points.iter().map(|p| p.speedup).fold(1.0, f64::max)
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "relaxation thread scaling ({} nodes, {} FUBs)\n\
             {:<8} {:>12} {:>9} {:>11}",
            self.nodes, self.fubs, "threads", "relax (s)", "speedup", "iterations"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<8} {:>12.4} {:>8.2}x {:>11}",
                p.threads, p.relax_seconds, p.speedup, p.iterations
            );
        }
        let _ = writeln!(
            out,
            "\nannotations bit-identical across thread counts: {}",
            if self.bit_identical {
                "yes"
            } else {
                "NO (BUG)"
            }
        );
        out
    }
}

/// Runs the thread sweep (best of `repeats` runs per point).
pub fn run(scale: Scale, seed: u64, thread_counts: &[usize]) -> ThreadScalingReport {
    let factor = match scale {
        Scale::Quick => 1.0,
        Scale::Full => 4.0,
    };
    let design = generate(&SynthConfig::xeon_like(seed).scaled(factor));
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    let repeats = 3usize;

    let mut points = Vec::new();
    let mut baseline: Option<(f64, Vec<f64>)> = None;
    let mut bit_identical = true;
    for &threads in thread_counts {
        let engine = SartEngine::new(
            nl,
            &mapping,
            SartConfig {
                threads,
                ..SartConfig::default()
            },
        );
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..repeats {
            let r = engine.run(&inputs);
            best = best.min(r.outcome.total_wall_seconds());
            last = Some(r);
        }
        let r = last.expect("at least one run");
        match &baseline {
            None => baseline = Some((best, r.avf.clone())),
            Some((base_secs, base_avf)) => {
                if base_avf != &r.avf {
                    bit_identical = false;
                }
                points.push(ThreadPoint {
                    threads,
                    relax_seconds: best,
                    speedup: base_secs / best.max(1e-12),
                    iterations: r.outcome.iterations,
                });
                continue;
            }
        }
        points.push(ThreadPoint {
            threads,
            relax_seconds: best,
            speedup: 1.0,
            iterations: r.outcome.iterations,
        });
    }

    ThreadScalingReport {
        nodes: nl.node_count(),
        fubs: nl.fub_count(),
        points,
        bit_identical,
    }
}
