//! The flattener against its reference: for every generated design —
//! nested models, dotted references, shared FUB names, cross-FUB and
//! forward references, injected faults — the dense per-scope resolver
//! must build exactly the graph the name-probing resolver in
//! `reference/` builds (node names, kinds, fan-ins by id, the symbol
//! table, the content digest), or fail with exactly its error.

mod common;
mod reference;

use proptest::prelude::*;

use seqavf_netlist::exlif::{self, DesignAst};
use seqavf_netlist::flatten;
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_netlist::{verilog, Fnv1a64};

/// FNV-1a over the symbol table's byte heap and spans.
fn symbols_digest(nl: &Netlist) -> u64 {
    let (buf, spans) = nl.symbols().raw();
    let mut h = Fnv1a64::new();
    h.update(buf);
    for &(start, len) in spans {
        h.update(&start.to_le_bytes());
        h.update(&len.to_le_bytes());
    }
    h.finish()
}

fn assert_same_graph(new: &Netlist, old: &Netlist) {
    prop_assert_eq!(new.node_count(), old.node_count());
    for id in old.nodes() {
        prop_assert_eq!(new.name(id), old.name(id));
        prop_assert_eq!(new.kind(id), old.kind(id));
        prop_assert_eq!(new.fanin(id), old.fanin(id));
    }
    prop_assert!(new.symbols().raw() == old.symbols().raw());
    prop_assert_eq!(new.content_digest(), old.content_digest());
    prop_assert_eq!(new, old);
}

/// Flattens `ast` at several thread counts and compares each result with
/// the reference's.
fn check_against_reference(ast: &DesignAst) {
    let want = reference::build_netlist(ast);
    for threads in [1usize, 3] {
        let got = flatten::build_netlist_threaded(ast, threads);
        match (&got, &want) {
            (Ok(new), Ok(old)) => assert_same_graph(new, old),
            (Err(new), Err(old)) => prop_assert_eq!(new.to_string(), old.to_string()),
            _ => prop_assert!(
                false,
                "outcomes differ at {} threads: {:?} vs reference {:?}",
                threads,
                got.as_ref().map(Netlist::node_count),
                want.as_ref().map(Netlist::node_count)
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hierarchical_designs_match_the_reference(src in common::arb_hier_design()) {
        let ast = exlif::parse(&src).expect("generated design parses");
        check_against_reference(&ast);
    }

    #[test]
    fn flat_designs_match_the_reference(src in common::arb_design()) {
        let ast = exlif::parse(&src).expect("generated design parses");
        check_against_reference(&ast);
    }
}

/// The generator reaches both outcomes: a fault-free design flattens,
/// and every injected fault fails with the error its kind predicts.
#[test]
fn generator_covers_every_fault() {
    use common::{render_hier_design, Fault, HierFub};
    let fubs: Vec<HierFub> = (0..3)
        .map(|i| HierFub {
            same_name: i == 2,
            width: 3,
            mids: 2,
            readers: 1,
            deep_ref: true,
            rebind: i == 1,
            cross: true,
        })
        .collect();
    let flatten_text = |fault| {
        let src = render_hier_design(&fubs, fault, 1);
        flatten::build_netlist(&exlif::parse(&src).expect("parses"))
    };
    let nl = flatten_text(Fault::None).expect("a fault-free design flattens");
    // `f0.r0_0.x` is the parent's dotted definition the reader reads.
    let x = nl.lookup("f0.r0_0.x").expect("dotted definition");
    let y = nl.lookup("f0.r0_0.y").expect("reader output");
    assert!(nl.fanin(y).contains(&x));
    // The two-level formal: leaf `d` inside `mid` inside FUB 1 reads the
    // last binding of `a`, `q1_0`.
    let t = nl.lookup("f1.u1_0.l0.t").expect("leaf gate");
    assert_eq!(nl.fanin(t)[0], nl.lookup("f1.q1_0").unwrap());
    // FUB 2 shares FUB 1's name and prefix.
    assert!(nl.lookup("f1.q2_0").is_some());
    let expect = [
        (Fault::UndefinedInInstance, "undefined net `x`"),
        (Fault::Duplicate, "duplicate node name `f1.g1_0`"),
        (
            Fault::DuplicateAcrossScopes,
            "duplicate node name `f1.lz1.t`",
        ),
        (Fault::SwOutOfRange, "bit 4 out of range"),
    ];
    for (fault, msg) in expect {
        let e = flatten_text(fault).expect_err("a fault must not flatten");
        assert!(e.to_string().contains(msg), "{fault:?}: {e}");
    }
}

/// A multi-module structural-Verilog design: structures, enabled flops,
/// latches, and cross-module reads in both directions.
fn verilog_design(modules: usize) -> String {
    let mut s = String::new();
    for m in 0..modules {
        s.push_str(&format!(
            "module m{m} (input a{m}, input b{m}, output y{m});\n"
        ));
        s.push_str(&format!("  wire w{m}, v{m};\n  structure st{m} [3:0];\n"));
        s.push_str(&format!("  and g{m} (w{m}, a{m}, st{m}[0]);\n"));
        s.push_str(&format!("  not n{m} (v{m}, w{m});\n"));
        s.push_str(&format!("  dff q{m} (.q(q{m}_o), .d(v{m}), .en(b{m}));\n"));
        s.push_str(&format!("  latch l{m} (.q(l{m}_o), .d(q{m}_o));\n"));
        let other = (m + 1) % modules;
        s.push_str(&format!(
            "  xor x{m} (x{m}_o, l{m}_o, m{other}.q{other}_o);\n"
        ));
        for b in 1..4 {
            s.push_str(&format!("  assign st{m}[{b}] = x{m}_o;\n"));
        }
        s.push_str(&format!("  assign y{m} = l{m}_o;\nendmodule\n"));
    }
    s
}

/// Digests recorded with the name-probing resolver, before the dense
/// per-scope tables replaced it: the same content digest and the same
/// symbol table, byte for byte.
#[test]
fn production_and_verilog_digests_are_pinned() {
    let design = generate(&SynthConfig::xeon_like(42).scaled(2.0).with_cores(8));
    let ast = exlif::parse(&exlif::write(&design.netlist)).expect("generated EXLIF parses");
    let nl = flatten::build_netlist(&ast).expect("flattens");
    let v = verilog::parse_netlist(&verilog_design(12)).expect("Verilog flattens");
    let got = [
        nl.content_digest(),
        symbols_digest(&nl),
        v.content_digest(),
        symbols_digest(&v),
    ];
    assert_eq!(
        got,
        [
            0x7d04_6721_7ca8_c3d4,
            0x2521_71f3_9aa4_e314,
            0x822b_ae27_90d2_b072,
            0xa407_676f_1d3a_44a1,
        ]
    );
}
