//! Cross-crate integration: the full §5 tool flow from workload traces to
//! resolved sequential AVFs, exercised through the umbrella `flow` module.

use seqavf::core::report::SartSummary;
use seqavf::flow::{inputs_from_report, run_flow, FlowConfig};
use seqavf::netlist::scc::find_loops;
use seqavf::netlist::stats::DesignCensus;
use seqavf::perf::pipeline::{run_ace, PerfConfig};
use seqavf::workloads::suite::MixFamily;

fn small_flow(seed: u64) -> seqavf::flow::FlowOutput {
    let mut cfg = FlowConfig::small(seed);
    cfg.suite.workloads = 6;
    cfg.suite.len = 1_500;
    run_flow(&cfg)
}

#[test]
fn flow_produces_consistent_summary() {
    let out = small_flow(1);
    let nl = &out.design.netlist;
    let summary = SartSummary::new(nl, &out.result);
    assert_eq!(summary.rows.len(), nl.fub_count());
    let seq_total: usize = summary.rows.iter().map(|r| r.seq_count).sum();
    assert_eq!(seq_total, nl.seq_count());
    assert!(summary.weighted_seq_avf > 0.0 && summary.weighted_seq_avf < 1.0);
    assert!(summary.visited_fraction > 0.98);
    assert!(out.result.outcome.converged);
}

#[test]
fn flow_is_deterministic() {
    let a = small_flow(2);
    let b = small_flow(2);
    assert_eq!(a.design.netlist.node_count(), b.design.netlist.node_count());
    for id in a.design.netlist.nodes() {
        assert_eq!(a.result.avf(id), b.result.avf(id));
    }
}

#[test]
fn loop_census_matches_netlist_analysis() {
    let out = small_flow(3);
    let nl = &out.design.netlist;
    let loops = find_loops(nl);
    let census = DesignCensus::new(nl, &loops);
    // SART's loop census can only differ from the raw SCC census by
    // sequentials it classified as control registers instead.
    assert!(out.result.roles.loop_seq_bits() <= census.total_loop_sequential());
    assert!(out.result.roles.loop_seq_bits() > 0);
}

#[test]
fn per_workload_inputs_shift_node_avfs() {
    let out = small_flow(4);
    let nl = &out.design.netlist;
    // A NOP-heavy workload must produce lower AVFs than a busy one.
    let busy = MixFamily::builtin()[0].generate(0, 2_000, 9);
    let mut nops = Vec::new();
    for _ in 0..2_000 {
        nops.push(seqavf::workloads::trace::Instr::nop());
    }
    let nop_trace = seqavf::workloads::trace::Trace::new("nops", nops);

    let busy_rep = run_ace(&busy, &PerfConfig::default());
    let nop_rep = run_ace(&nop_trace, &PerfConfig::default());
    let busy_avfs = out.result.reevaluate(nl, &inputs_from_report(&busy_rep));
    let nop_avfs = out.result.reevaluate(nl, &inputs_from_report(&nop_rep));
    let mean =
        |v: &[f64]| nl.seq_nodes().map(|id| v[id.index()]).sum::<f64>() / nl.seq_count() as f64;
    assert!(
        mean(&nop_avfs) < mean(&busy_avfs),
        "un-ACE workload {} must yield lower AVFs than busy {}",
        mean(&nop_avfs),
        mean(&busy_avfs)
    );
}

#[test]
fn structure_avfs_flow_into_cell_values() {
    let out = small_flow(5);
    let nl = &out.design.netlist;
    // Every structure cell whose structure has a measured AVF takes it.
    for sid in nl.structure_ids() {
        let perf_name = out.mapping.perf_name(sid).expect("generator maps all");
        if let Some(avf) = out.inputs.structure_avf(perf_name) {
            for &cell in nl.structure(sid).cells() {
                assert!(
                    (out.result.avf(cell) - avf).abs() < 1e-12,
                    "cell {} of {}",
                    nl.name(cell),
                    perf_name
                );
            }
        }
    }
}

#[test]
fn mapping_text_roundtrip_through_cli_formats() {
    // The same path the CLI uses: EXLIF text + mapping text + JSON inputs.
    let out = small_flow(6);
    let nl = &out.design.netlist;
    let exlif_text = seqavf::netlist::exlif::write(nl);
    let map_text = out.mapping.to_text(nl);
    let inputs_json = serde_json::to_string(&out.inputs).unwrap();

    let nl2 = seqavf::netlist::flatten::parse_netlist(&exlif_text).unwrap();
    let mapping2 = seqavf::core::mapping::StructureMapping::from_text(&nl2, &map_text).unwrap();
    let inputs2: seqavf::core::mapping::PavfInputs = serde_json::from_str(&inputs_json).unwrap();
    let obs = seqavf::obs::Collector::disabled();
    let config = out.result.config.clone();
    let engine = seqavf::core::engine::SartEngine::new_traced(&nl2, &mapping2, config, None, &obs);
    let result2 = engine.run_traced(&inputs2, &obs);
    // Same design, same inputs, same config → same AVFs (matched by name;
    // node ids are preserved by the writer's id-order emission).
    for id in nl.nodes() {
        let id2 = nl2.lookup(nl.name(id)).expect("names preserved");
        assert!(
            (out.result.avf(id) - result2.avf(id2)).abs() < 1e-12,
            "{}",
            nl.name(id)
        );
    }
}

#[test]
fn kernels_run_through_entire_flow() {
    let out = small_flow(7);
    let nl = &out.design.netlist;
    for trace in [
        seqavf::workloads::kernels::lattice::lattice_trace(&Default::default()),
        seqavf::workloads::kernels::md5::md5_trace(&Default::default()),
    ] {
        let rep = run_ace(&trace, &PerfConfig::default());
        assert_eq!(rep.instructions as usize, trace.len());
        let avfs = out.result.reevaluate(nl, &inputs_from_report(&rep));
        for id in nl.nodes() {
            assert!((0.0..=1.0).contains(&avfs[id.index()]));
        }
    }
}
