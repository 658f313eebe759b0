//! Validating SART against statistical fault injection (§3.1): on an
//! SFI-tractable design, the fully conservative SART bound must dominate
//! the per-node SFI error rate, and SART = 0 must imply no SFI errors.
//!
//! Run with: `cargo run --release --example sfi_validation`

use seqavf::core::engine::{SartConfig, SartEngine};
use seqavf::core::mapping::{PavfInputs, StructureMapping};
use seqavf::netlist::graph::NodeId;
use seqavf::netlist::synth::{generate, SynthConfig};
use seqavf::obs::Collector;
use seqavf::sfi::campaign::{run_campaign, CampaignConfig};

fn main() {
    let design = generate(&SynthConfig::xeon_like(7).scaled(0.3));
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    println!(
        "design: {} nodes, {} sequentials (small enough for SFI)",
        nl.node_count(),
        nl.seq_count()
    );

    // Fully conservative SART: every source term pinned to 1.0, so a
    // node's AVF is a pure fault-reachability bound.
    let config = SartConfig {
        loop_pavf: 1.0,
        boundary_in_pavf: 1.0,
        boundary_out_pavf: 1.0,
        default_port_pavf: 1.0,
        ..SartConfig::default()
    };
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(nl, &mapping, config, None, &obs);
    let sart = engine.run_traced(&PavfInputs::new(), &obs);

    let targets: Vec<NodeId> = nl.seq_nodes().collect();
    let sample: Vec<NodeId> = targets.iter().step_by(4).copied().collect();
    println!(
        "injecting into {} sampled sequentials × 16 injections…",
        sample.len()
    );
    let camp = run_campaign(
        nl,
        &sample,
        &CampaignConfig {
            injections_per_node: 16,
            threads: 8,
            ..CampaignConfig::default()
        },
    );

    let mut violations = 0;
    let mut masked_found = 0;
    for est in &camp.nodes {
        let bound = sart.avf(est.node);
        let err = est.errors as f64 / est.injections as f64;
        if err > bound + 1e-9 {
            violations += 1;
            println!(
                "  VIOLATION {}: SFI {:.2} > SART {:.2}",
                nl.name(est.node),
                err,
                bound
            );
        }
        if err < 0.5 {
            masked_found += 1;
        }
    }
    println!(
        "\n{} injections across {} nodes; mean SFI AVF = {:.3}",
        camp.total_injections,
        camp.nodes.len(),
        camp.mean_avf()
    );
    println!("conservatism violations: {violations} (expected 0)");
    println!("nodes with >50% logical masking: {masked_found}");
    assert_eq!(violations, 0, "SART must be conservative");
    println!("\nSART's conservative bound dominates SFI ground truth on every node.");
}
