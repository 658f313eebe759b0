//! **E7 — SART vs SFI cost** (§3.1 vs §5): wall-clock per
//! statistically-significant node AVF.
//!
//! The paper's motivating arithmetic: complete SFI coverage of a design is
//! `#nodes × #cycles` paired RTL simulations ("months to years … for just
//! a few workloads"), while SART computes every node's AVF analytically in
//! about a day, a speedup of 3–4 orders of magnitude *per node* before
//! even counting the workload dimension (SART amortizes all workloads into
//! one walk via the closed forms).

use serde::{Deserialize, Serialize};

use crate::common::{flow_config, Scale};
use seqavf_core::engine::SartEngine;
use seqavf_core::mapping::StructureMapping;
use seqavf_netlist::graph::NodeId;
use seqavf_netlist::synth::generate;
use seqavf_obs::Collector;
use seqavf_sfi::campaign::{run_campaign, CampaignConfig};

/// Injections per node needed for a statistically significant SFI AVF
/// (the ±10%-at-95% ballpark for a proportion near 0.5).
pub const SIGNIFICANT_INJECTIONS: u64 = 100;

/// The speed-comparison report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedReport {
    /// Nodes in the benchmarked design.
    pub nodes: usize,
    /// Sequential nodes (the SFI target population).
    pub seq_nodes: usize,
    /// SART wall-clock for the complete design, seconds.
    pub sart_seconds: f64,
    /// SART cost per node AVF, microseconds.
    pub sart_us_per_node: f64,
    /// Measured SFI cost per injection, microseconds.
    pub sfi_us_per_injection: f64,
    /// SFI cost per statistically-significant node AVF, microseconds.
    pub sfi_us_per_node: f64,
    /// Speedup of SART over SFI per node AVF.
    pub speedup: f64,
    /// Extrapolated SFI campaign for every sequential in the design, in
    /// hours.
    pub sfi_full_campaign_hours: f64,
}

impl SpeedReport {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "SART vs SFI cost per statistically-significant node AVF\n\
             design: {} nodes ({} sequential)\n\
             SART full design:       {:.3} s  ({:.2} µs/node)\n\
             SFI per injection:      {:.1} µs\n\
             SFI per node (×{} inj): {:.1} µs\n\
             speedup:                {:.0}× ({:.1} orders of magnitude; paper: 3-4)\n\
             full SFI campaign over all sequentials: {:.2} h\n",
            self.nodes,
            self.seq_nodes,
            self.sart_seconds,
            self.sart_us_per_node,
            self.sfi_us_per_injection,
            SIGNIFICANT_INJECTIONS,
            self.sfi_us_per_node,
            self.speedup,
            self.speedup.log10(),
            self.sfi_full_campaign_hours,
        )
    }
}

/// Runs the speed comparison.
pub fn run(scale: Scale, seed: u64) -> SpeedReport {
    let cfg = flow_config(scale, seed);
    let design = generate(&cfg.design);
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = seqavf_core::mapping::PavfInputs::new();

    // SART: time preparation + solve for the whole design.
    let t0 = std::time::Instant::now();
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(nl, &mapping, cfg.sart.clone(), None, &obs);
    let result = engine.run_traced(&inputs, &obs);
    let sart_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(result.node_avfs().len(), nl.node_count());
    let sart_us_per_node = sart_seconds * 1e6 / nl.node_count() as f64;

    // SFI: time a bounded batch and derive the per-injection cost.
    let seqs: Vec<NodeId> = nl.seq_nodes().collect();
    let probe: Vec<NodeId> = seqs
        .iter()
        .step_by((seqs.len() / 24).max(1))
        .copied()
        .collect();
    let camp_cfg = CampaignConfig {
        injections_per_node: 4,
        threads: 1, // single-threaded for a fair per-core comparison
        ..CampaignConfig::default()
    };
    let t1 = std::time::Instant::now();
    let camp = run_campaign(nl, &probe, &camp_cfg);
    let sfi_seconds = t1.elapsed().as_secs_f64();
    let sfi_us_per_injection = sfi_seconds * 1e6 / camp.total_injections.max(1) as f64;
    let sfi_us_per_node = sfi_us_per_injection * SIGNIFICANT_INJECTIONS as f64;
    let sfi_full_campaign_hours = sfi_us_per_node * seqs.len() as f64 / 1e6 / 3600.0;

    SpeedReport {
        nodes: nl.node_count(),
        seq_nodes: seqs.len(),
        sart_seconds,
        sart_us_per_node,
        sfi_us_per_injection,
        sfi_us_per_node,
        speedup: sfi_us_per_node / sart_us_per_node.max(1e-9),
        sfi_full_campaign_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sart_is_orders_of_magnitude_faster() {
        let r = run(Scale::Quick, 17);
        assert!(
            r.speedup > 100.0,
            "expected ≥2 orders of magnitude, got {:.0}×",
            r.speedup
        );
        assert!(r.sart_us_per_node < r.sfi_us_per_node);
        assert!(r.sfi_full_campaign_hours > 0.0);
    }

    #[test]
    fn render_reports_speedup() {
        let r = run(Scale::Quick, 17);
        assert!(r.render().contains("speedup"));
    }
}
