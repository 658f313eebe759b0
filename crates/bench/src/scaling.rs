//! **E11 — scaling study** (§1, §5.2): how SART's cost grows with design
//! size.
//!
//! The paper reports "computation times … on the order of a week to
//! compute the AVF over thousands of workloads" and "about a day" of SART
//! analysis for an Intel Xeon core, and argues the approach scales because
//! each relaxation iteration is linear in nodes and edges and the
//! closed-form reuse amortizes workloads. This study sweeps the synthetic
//! design scale and measures preparation, relaxation, and re-evaluation
//! cost, checking the per-node cost stays roughly flat (near-linear total
//! scaling).

use serde::{Deserialize, Serialize};

use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;

use crate::common::Scale;

/// One scaling point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Generator scale factor.
    pub factor: f64,
    /// Nodes in the design.
    pub nodes: usize,
    /// Edges in the design.
    pub edges: usize,
    /// Full SART run (prepare + relax + resolve), seconds.
    pub sart_seconds: f64,
    /// Closed-form re-evaluation, seconds.
    pub reeval_seconds: f64,
    /// SART cost per node, microseconds.
    pub us_per_node: f64,
}

/// The scaling report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingReport {
    /// Sweep points in ascending size.
    pub points: Vec<ScalePoint>,
}

impl ScalingReport {
    /// Ratio of per-node cost between the largest and smallest design —
    /// near 1.0 means linear scaling.
    pub fn per_node_growth(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) if a.us_per_node > 0.0 => b.us_per_node / a.us_per_node,
            _ => 1.0,
        }
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SART scaling with design size\n\
             {:<8} {:>9} {:>10} {:>10} {:>11} {:>10}",
            "scale", "nodes", "edges", "sart (s)", "reeval (s)", "µs/node"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<8.2} {:>9} {:>10} {:>10.4} {:>11.6} {:>10.2}",
                p.factor, p.nodes, p.edges, p.sart_seconds, p.reeval_seconds, p.us_per_node
            );
        }
        let _ = writeln!(
            out,
            "\nper-node cost growth across the sweep: {:.2}× (≈1 means linear scaling)",
            self.per_node_growth()
        );
        out
    }
}

/// Runs the scaling sweep.
pub fn run(scale: Scale, seed: u64) -> ScalingReport {
    let factors: &[f64] = match scale {
        Scale::Quick => &[0.3, 0.6, 1.0, 2.0],
        Scale::Full => &[0.5, 1.0, 2.0, 4.0, 8.0],
    };
    let inputs = PavfInputs::new();
    let mut points = Vec::new();
    for &factor in factors {
        let design = generate(&SynthConfig::xeon_like(seed).scaled(factor));
        let nl = &design.netlist;
        let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
        let t0 = std::time::Instant::now();
        let obs = Collector::disabled();
        let engine = SartEngine::new_traced(nl, &mapping, SartConfig::default(), None, &obs);
        let result = engine.run_traced(&inputs, &obs);
        let sart_seconds = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let _ = result.reevaluate(nl, &inputs);
        let reeval_seconds = t1.elapsed().as_secs_f64();
        points.push(ScalePoint {
            factor,
            nodes: nl.node_count(),
            edges: nl.edge_count(),
            sart_seconds,
            reeval_seconds,
            us_per_node: sart_seconds * 1e6 / nl.node_count() as f64,
        });
    }
    ScalingReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_near_linearly() {
        let r = run(Scale::Quick, 37);
        assert_eq!(r.points.len(), 4);
        for w in r.points.windows(2) {
            assert!(w[1].nodes > w[0].nodes, "sizes must ascend");
        }
        // Per-node cost may wobble with cache effects but must not blow up
        // quadratically across a ~7x node range.
        assert!(
            r.per_node_growth() < 8.0,
            "per-node growth {:.2}",
            r.per_node_growth()
        );
    }

    #[test]
    fn render_lists_all_points() {
        let r = run(Scale::Quick, 37);
        assert_eq!(r.render().lines().count(), r.points.len() + 4);
    }
}
