//! The flow on the second design preset: a small in-order embedded core
//! (the class of design the paper's related work fault-injects directly).
//! Checks that the methodology is not tuned to one topology — the same
//! invariants hold on a very different design shape.

use seqavf::core::engine::{SartConfig, SartEngine};
use seqavf::core::mapping::StructureMapping;
use seqavf::core::report::SartSummary;
use seqavf::flow::{inputs_from_suite, run_suite};
use seqavf::netlist::synth::{generate, SynthConfig};
use seqavf::obs::Collector;
use seqavf::sfi::campaign::{run_campaign, CampaignConfig};
use seqavf::workloads::suite::{standard_suite, SuiteConfig};

#[test]
fn embedded_core_flow_end_to_end() {
    let design = generate(&SynthConfig::embedded_like(11));
    let nl = &design.netlist;
    assert_eq!(nl.fub_count(), 5);

    let traces = standard_suite(&SuiteConfig {
        workloads: 6,
        len: 1_500,
        ..SuiteConfig::default()
    });
    let suite = run_suite(&traces, &Default::default());
    let inputs = inputs_from_suite(&suite);
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let obs = Collector::disabled();
    let result = SartEngine::new_traced(nl, &mapping, SartConfig::default(), None, &obs)
        .run_traced(&inputs, &obs);

    assert!(result.outcome.converged);
    let summary = SartSummary::new(nl, &result);
    assert!(summary.weighted_seq_avf > 0.0 && summary.weighted_seq_avf < 1.0);
    assert!(summary.visited_fraction > 0.98);
    // The control-heavy `ctl` FUB exists and its census is populated.
    assert!(summary.rows.iter().any(|r| r.fub == "ctl"));
    assert!(summary.control_reg_bits > 0);
    assert!(summary.loop_seq_bits > 0);
}

#[test]
fn embedded_core_is_sfi_tractable_and_sart_conservative() {
    // The embedded preset is small enough to fault-inject every sequential.
    let design = generate(&SynthConfig::embedded_like(13));
    let nl = &design.netlist;
    assert!(nl.seq_count() < 400, "embedded preset should be tiny");

    let config = SartConfig {
        loop_pavf: 1.0,
        boundary_in_pavf: 1.0,
        boundary_out_pavf: 1.0,
        default_port_pavf: 1.0,
        ..SartConfig::default()
    };
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let obs = Collector::disabled();
    let sart = SartEngine::new_traced(nl, &mapping, config, None, &obs)
        .run_traced(&Default::default(), &obs);

    let targets: Vec<_> = nl.seq_nodes().collect();
    let camp = run_campaign(
        nl,
        &targets,
        &CampaignConfig {
            injections_per_node: 6,
            threads: 8,
            ..CampaignConfig::default()
        },
    );
    for est in &camp.nodes {
        let err = est.errors as f64 / est.injections as f64;
        assert!(
            sart.avf(est.node) + 1e-9 >= err,
            "{}: SFI {} exceeds SART bound {}",
            nl.name(est.node),
            err,
            sart.avf(est.node)
        );
    }
}
