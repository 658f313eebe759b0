//! **E8 — SART conservatism vs SFI ground truth** (§3.1).
//!
//! The paper positions SFI as "the best way to compute limited AVFs …
//! appropriate … to validate analytically modeled results". This
//! experiment does that validation on an SFI-tractable design:
//!
//! - Run SART in its **fully conservative** configuration (all port pAVFs,
//!   boundaries and loop injections at 1.0), which reduces every node's
//!   AVF to a pure reachability bound: can a fault here reach an
//!   observation point at all?
//! - Run an SFI campaign over the sequential nodes and compare per node:
//!   the SART bound must dominate the SFI *error* rate (unknown-resident
//!   faults are SFI's own conservatism and are reported separately), and
//!   SART = 0 must imply SFI found no errors — a strong structural check
//!   of the walk rules.

use serde::{Deserialize, Serialize};

use crate::common::Scale;
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::graph::NodeId;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;
use seqavf_sfi::campaign::{run_campaign, CampaignConfig};

/// Per-node comparison record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeComparison {
    /// Node index in the netlist.
    pub node: usize,
    /// SART conservative bound.
    pub sart: f64,
    /// SFI error rate (errors / injections).
    pub sfi_error_rate: f64,
    /// SFI unknown rate.
    pub sfi_unknown_rate: f64,
}

/// The accuracy-validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Per-node records.
    pub nodes: Vec<NodeComparison>,
    /// Nodes where the conservative SART bound ≥ the SFI error rate.
    pub conservative_ok: usize,
    /// Nodes violating conservatism (should be 0).
    pub violations: usize,
    /// Nodes with SART = 0 (proved safe) where SFI found an error
    /// (must be 0: would indicate a walk-rule bug).
    pub zero_violations: usize,
    /// Mean SART bound and mean SFI error rate.
    pub mean_sart: f64,
    /// Mean SFI-measured error rate.
    pub mean_sfi: f64,
}

impl AccuracyReport {
    /// Renders the validation summary.
    pub fn render(&self) -> String {
        format!(
            "SART conservatism vs SFI ground truth ({} nodes compared)\n\
             conservative (SART ≥ SFI errors): {} / {}\n\
             violations:                        {}\n\
             SART=0 with SFI errors:            {}  (must be 0)\n\
             mean SART bound = {:.4}, mean SFI error rate = {:.4}\n\
             conservatism ratio = {:.2}×\n",
            self.nodes.len(),
            self.conservative_ok,
            self.nodes.len(),
            self.violations,
            self.zero_violations,
            self.mean_sart,
            self.mean_sfi,
            self.mean_sart / self.mean_sfi.max(1e-12),
        )
    }
}

/// Runs the conservatism validation.
pub fn run(scale: Scale, seed: u64) -> AccuracyReport {
    // SFI needs a small design; even at Full scale the validation runs on
    // a modest core so every sequential gets enough injections.
    let factor = if scale == Scale::Full { 0.6 } else { 0.3 };
    let design = generate(&SynthConfig::xeon_like(seed).scaled(factor));
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());

    // Fully conservative SART: every source term at 1.0.
    let config = SartConfig {
        loop_pavf: 1.0,
        boundary_in_pavf: 1.0,
        boundary_out_pavf: 1.0,
        default_port_pavf: 1.0,
        ..SartConfig::default()
    };
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(nl, &mapping, config, None, &obs);
    let result = engine.run_traced(&PavfInputs::new(), &obs);

    let seqs: Vec<NodeId> = nl.seq_nodes().collect();
    let stride = (seqs.len() / 200).max(1);
    let sample: Vec<NodeId> = seqs.iter().step_by(stride).copied().collect();
    let camp = run_campaign(
        nl,
        &sample,
        &CampaignConfig {
            injections_per_node: if scale == Scale::Full { 24 } else { 12 },
            threads: 8,
            ..CampaignConfig::default()
        },
    );

    let mut nodes = Vec::with_capacity(camp.nodes.len());
    let mut conservative_ok = 0;
    let mut violations = 0;
    let mut zero_violations = 0;
    let mut sum_sart = 0.0;
    let mut sum_sfi = 0.0;
    for est in &camp.nodes {
        let sart = result.avf(est.node);
        let err = est.errors as f64 / est.injections.max(1) as f64;
        let unk = est.unknowns as f64 / est.injections.max(1) as f64;
        if sart + 1e-9 >= err {
            conservative_ok += 1;
        } else {
            violations += 1;
        }
        if sart <= 1e-12 && est.errors > 0 {
            zero_violations += 1;
        }
        sum_sart += sart;
        sum_sfi += err;
        nodes.push(NodeComparison {
            node: est.node.index(),
            sart,
            sfi_error_rate: err,
            sfi_unknown_rate: unk,
        });
    }
    let n = nodes.len().max(1) as f64;
    AccuracyReport {
        conservative_ok,
        violations,
        zero_violations,
        mean_sart: sum_sart / n,
        mean_sfi: sum_sfi / n,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sart_bound_dominates_sfi_errors() {
        let r = run(Scale::Quick, 19);
        assert!(!r.nodes.is_empty());
        assert_eq!(
            r.violations, 0,
            "conservative SART bound violated on {} nodes",
            r.violations
        );
        assert_eq!(r.zero_violations, 0, "walk-rule soundness violated");
        assert!(r.mean_sart >= r.mean_sfi);
    }

    #[test]
    fn sfi_finds_real_masking() {
        // The ground truth should show genuine masking (mean error rate
        // strictly below the conservative bound), otherwise the comparison
        // is vacuous.
        let r = run(Scale::Quick, 19);
        assert!(
            r.mean_sfi < r.mean_sart,
            "SFI {} vs SART {}",
            r.mean_sfi,
            r.mean_sart
        );
        assert!(r.mean_sfi > 0.0, "some faults must propagate");
    }
}
