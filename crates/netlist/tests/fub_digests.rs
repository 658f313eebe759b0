//! The contract `Netlist::fub_digests` documents: a FUB's digest follows
//! its nodes' names, kinds, loop membership and fan-in/fan-out names,
//! never node ids — so a warm start re-walks exactly the FUBs an edit
//! reaches.

use seqavf_netlist::exlif;
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::find_loops;
use seqavf_netlist::synth::{generate, SynthConfig};

fn digests(nl: &Netlist) -> Vec<u64> {
    nl.fub_digests(&find_loops(nl))
}

/// Three FUBs in a chain: `a` feeds `b` feeds `c`. `{a_extra}` and
/// `{ga_ins}` are the edit points.
fn chain(a_extra: &str, ga_ins: &str, gb_ins: &str) -> Netlist {
    let text = format!(
        r"
.design chain
.fub a
  .input i
  .input j
  .gate or ga {ga_ins}
  .flop qa ga
{a_extra}
.endfub
.fub b
  .input k
  .gate and gb {gb_ins}
  .flop qb gb
.endfub
.fub c
  .gate not gc b.qb
  .flop qc gc
  .output oc qc
.endfub
.end
"
    );
    parse_netlist(&text).expect("chain design flattens")
}

/// The fan-in and fan-out names of every node of FUB `fub`, by node name.
fn wiring(nl: &Netlist, fub: &str) -> Vec<(String, Vec<String>, Vec<String>)> {
    let names = |ids: &[_]| ids.iter().map(|&n| nl.name(n).to_owned()).collect();
    nl.nodes()
        .filter(|&n| nl.fub_name(nl.fub(n)) == fub)
        .map(|n| {
            (
                nl.name(n).to_owned(),
                names(nl.fanin(n)),
                names(nl.fanout(n)),
            )
        })
        .collect()
}

#[test]
fn untouched_fub_keeps_its_digest_when_ids_shift() {
    let before = chain("", "i j", "a.qa k");
    let after = chain("  .gate buf extra i", "i j", "a.qa k");
    // Every node of `b` and `c` moved up by one id …
    let qb = before.lookup("b.qb").unwrap();
    assert_eq!(after.lookup("b.qb").unwrap().index(), qb.index() + 1);
    // … and only `a`'s digest moved.
    let (d0, d1) = (digests(&before), digests(&after));
    assert_ne!(d0[0], d1[0]);
    assert_eq!(d0[1..], d1[1..]);
}

#[test]
fn removing_a_cross_fub_consumer_edge_changes_the_producer() {
    let before = chain("", "i j", "a.qa k");
    let after = chain("", "i j", "k k");
    // `a`'s fan-ins are unchanged; only `qa`'s fan-out lost `b.gb`.
    let fanins = |nl: &Netlist| -> Vec<_> {
        wiring(nl, "a")
            .into_iter()
            .map(|(n, ins, _)| (n, ins))
            .collect()
    };
    assert_eq!(fanins(&before), fanins(&after));
    assert_ne!(wiring(&before, "a"), wiring(&after, "a"));
    let (d0, d1) = (digests(&before), digests(&after));
    assert_ne!(d0[0], d1[0], "the producer must re-walk");
    assert_ne!(d0[1], d1[1], "the consumer changed too");
    assert_eq!(d0[2], d1[2]);
}

#[test]
fn a_new_loop_through_an_untouched_fub_changes_its_digest() {
    // `a.ga` starts reading `c.qc`: the loop a.qa → b.gb → b.qb → c.gc →
    // c.qc → a.ga → a.qa now runs through `b`, whose own wiring is
    // unchanged.
    let before = chain("", "i j", "a.qa k");
    let after = chain("", "i c.qc", "a.qa k");
    assert_eq!(wiring(&before, "b"), wiring(&after, "b"));
    let qb = before.lookup("b.qb").unwrap();
    assert!(!find_loops(&before).is_loop_node(qb));
    assert!(find_loops(&after).is_loop_node(qb));
    let (d0, d1) = (digests(&before), digests(&after));
    assert_ne!(d0[1], d1[1], "loop membership must reach the digest");
}

#[test]
fn one_gate_edit_changes_exactly_one_fub_digest() {
    let design = generate(&SynthConfig::xeon_like(42));
    let text = exlif::write(&design.netlist);
    let edited = text.replacen(".gate and ", ".gate or ", 1);
    assert_ne!(text, edited);
    let (d0, d1) = (
        digests(&parse_netlist(&text).unwrap()),
        digests(&parse_netlist(&edited).unwrap()),
    );
    assert_eq!(d0.len(), d1.len());
    let changed = d0.iter().zip(&d1).filter(|(a, b)| a != b).count();
    assert_eq!(changed, 1);
}
