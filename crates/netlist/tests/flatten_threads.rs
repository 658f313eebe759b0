//! Determinism of the parallel flattener: for any generated design —
//! hierarchy, structures, FSM loops and all — every thread count must
//! produce a bit-identical graph, and invalid designs must report the
//! same (document-order) error regardless of which worker hit it first.

mod common;

use proptest::prelude::*;

use seqavf_netlist::exlif;
use seqavf_netlist::flatten;
use seqavf_netlist::synth::{generate, SynthConfig};

/// At production scale (≥100k nodes, 8 replicated cores behind an
/// uncore), the *public* threaded entry point runs its parallel phases —
/// the work estimate clears the sequential-fallback threshold — and must
/// still be bit-identical to the sequential build.
#[test]
fn production_scale_design_is_thread_equivalent() {
    let design = generate(&SynthConfig::xeon_like(42).scaled(2.0).with_cores(8));
    assert!(
        design.netlist.node_count() >= 100_000,
        "scaled design too small: {}",
        design.netlist.node_count()
    );
    let text = exlif::write(&design.netlist);
    let ast = exlif::parse(&text).expect("generated EXLIF parses");
    assert!(flatten::estimated_flat_stmts(&ast) >= 100_000);
    let seq = flatten::build_netlist_threaded(&ast, 1).expect("flattens");
    let par = flatten::build_netlist_threaded(&ast, 8).expect("flattens");
    assert_eq!(seq, par);
    assert_eq!(seq.content_digest(), par.content_digest());
    // The flattened graph reproduces the generated one node for node.
    assert_eq!(seq.node_count(), design.netlist.node_count());
    assert_eq!(seq.edge_count(), design.netlist.edge_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn thread_counts_yield_identical_graphs(src in common::arb_design()) {
        let ast = exlif::parse(&src).expect("generated design parses");
        // An explicit thread count is honoured at any size, so the
        // parallel phases genuinely run on these small generated designs.
        let seq = flatten::build_netlist_threaded(&ast, 1).expect("flattens");
        for threads in [2usize, 3, 8] {
            let par = flatten::build_netlist_threaded(&ast, threads).unwrap();
            prop_assert_eq!(&par, &seq);
            prop_assert_eq!(par.content_digest(), seq.content_digest());
            prop_assert_eq!(par.node_count(), seq.node_count());
            for id in seq.nodes() {
                prop_assert_eq!(par.name(id), seq.name(id));
                prop_assert_eq!(par.kind(id), seq.kind(id));
                prop_assert_eq!(par.fanin(id), seq.fanin(id));
            }
        }
    }

    #[test]
    fn thread_counts_agree_on_errors(src in common::arb_design()) {
        // Inject an undefined-net reference into the first FUB: every
        // thread count must pick the same document-order error.
        let src = src.replacen(
            ".endfub",
            "  .gate and badg in0_undefined also_undefined\n.endfub",
            1,
        );
        let ast = exlif::parse(&src).expect("still parses");
        let seq_err = flatten::build_netlist_threaded(&ast, 1)
            .expect_err("undefined net must not flatten");
        for threads in [2usize, 8] {
            let par_err = flatten::build_netlist_threaded(&ast, threads)
                .expect_err("undefined net must not flatten");
            prop_assert_eq!(par_err.to_string(), seq_err.to_string());
        }
    }
}
