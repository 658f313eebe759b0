//! E1 — the paper's Figure 7 worked example, asserted end to end across
//! `seqavf-netlist` (EXLIF parse) and `seqavf-core` (SART).
//!
//! Figure 7: structures S1 (pAVF_R = 0.10) and S2 (pAVF_R = 0.02) feed a
//! network of pipeline flops, two NOR joins and a distribution split,
//! terminating at the write ports of S3 and S4. The walk annotates:
//! Q1a = Q2a = 0.10, Q1b = 0.02, and both join outputs 0.12 — with the
//! nested union `pAVF_1 ∪ (pAVF_1 ∪ pAVF_2)` simplifying to 0.12 by set
//! semantics, not 0.22.

use seqavf::core::engine::{SartConfig, SartEngine, SartResult};
use seqavf::core::mapping::{PavfInputs, StructureMapping};
use seqavf::netlist::flatten::parse_netlist;
use seqavf::netlist::graph::Netlist;
use seqavf::obs::Collector;

const FIGURE7: &str = r"
.design figure7
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .struct s4 1
  .flop q1a s1[0]
  .flop q1b s2[0]
  .flop q2a q1a
  .gate nor g1 q2a q1b
  .flop q3b g1
  .gate nor g2 q2a g1
  .flop q3a g2
  .sw s3[0] q3a
  .sw s4[0] q3b
.endfub
.end
";

fn inputs() -> PavfInputs {
    let mut p = PavfInputs::new();
    p.set_port("f.s1", 0.10, 0.60);
    p.set_port("f.s2", 0.02, 0.60);
    p.set_port("f.s3", 0.50, 0.80);
    p.set_port("f.s4", 0.50, 0.80);
    p
}

fn solve(nl: &Netlist, inputs: &PavfInputs) -> SartResult {
    let obs = Collector::disabled();
    SartEngine::new_traced(
        nl,
        &StructureMapping::new(),
        SartConfig::default(),
        None,
        &obs,
    )
    .run_traced(inputs, &obs)
}

#[test]
fn figure7_forward_annotations_match_paper() {
    let nl = parse_netlist(FIGURE7).unwrap();
    let r = solve(&nl, &inputs());
    let inputs = inputs();
    let fwd = |name: &str| r.forward_value(nl.lookup(name).unwrap(), &inputs);

    // "The first phase of the pAVF walk begins with the walk from the S1
    // read-port … Both of these signals are annotated with 0.10".
    assert!((fwd("f.q1a") - 0.10).abs() < 1e-12);
    assert!((fwd("f.q2a") - 0.10).abs() < 1e-12);
    // "the S2 read-port pAVF … is walked forward to the output of Q1b,
    // which is annotated with 0.02".
    assert!((fwd("f.q1b") - 0.02).abs() < 1e-12);
    // "the output is annotated with a pAVF value of 0.12 … propagated
    // forward through Q3b".
    assert!((fwd("f.g1") - 0.12).abs() < 1e-12);
    assert!((fwd("f.q3b") - 0.12).abs() < 1e-12);
    // "The union of these values is (pAVF_1 ∪ (pAVF_1 ∪ pAVF_2)), which
    // simplifies to just (pAVF_1 ∪ pAVF_2) … 0.12 (0.10 + 0.02)".
    assert!((fwd("f.g2") - 0.12).abs() < 1e-12);
    assert!((fwd("f.q3a") - 0.12).abs() < 1e-12);
}

#[test]
fn figure7_table1_resolution_rules() {
    let nl = parse_netlist(FIGURE7).unwrap();
    let r = solve(&nl, &inputs());
    let inputs = inputs();
    // Table 1: AVF = MIN(forward union, backward union) for every node.
    for id in nl.seq_nodes() {
        let f = r.forward_value(id, &inputs);
        let b = r.backward_value(id, &inputs);
        assert!((r.avf(id) - f.min(b)).abs() < 1e-12, "{}", nl.name(id));
    }
}

#[test]
fn figure7_backward_dominates_when_writes_are_rare() {
    // Drop the write rates: the backward walk becomes the binding estimate
    // (the "Logical Join" and "Distribution Split" rows of Table 1).
    let nl = parse_netlist(FIGURE7).unwrap();
    let mut p = inputs();
    p.set_port("f.s3", 0.50, 0.03);
    p.set_port("f.s4", 0.50, 0.01);
    let r = solve(&nl, &p);
    // Q2a feeds both G1 and G2, reaching both sinks; backward = 0.03 + 0.01.
    let q2a = nl.lookup("f.q2a").unwrap();
    assert!((r.avf(q2a) - 0.04).abs() < 1e-12, "got {}", r.avf(q2a));
    // Q3b feeds only S4.
    let q3b = nl.lookup("f.q3b").unwrap();
    assert!((r.avf(q3b) - 0.01).abs() < 1e-12);
    // Q3a feeds only S3.
    let q3a = nl.lookup("f.q3a").unwrap();
    assert!((r.avf(q3a) - 0.03).abs() < 1e-12);
}

#[test]
fn figure7_closed_forms_are_reported() {
    let nl = parse_netlist(FIGURE7).unwrap();
    let r = solve(&nl, &inputs());
    let q3a = nl.lookup("f.q3a").unwrap();
    let form = r.closed_form(q3a);
    assert!(form.contains("pAVF_R(f.s1)"), "{form}");
    assert!(form.contains("pAVF_R(f.s2)"), "{form}");
    assert!(form.contains("pAVF_W(f.s3)"), "{form}");
}
